"""Identical configs give bitwise-identical traces: one small `amoo run`
config per weight rule, plus the network's ``local_curvature`` variant
(powers alpha != 1, softplus curvature) under diagonal CAMOO and PAMOO,
each pinned to the sha256 of its ``trace.csv``.  A long EW run crosses two
chunks of the trace reader and writer (``traceio._CHUNK_ROWS`` rows each).

Each digest is also checked in fresh processes whose OpenBLAS runs one
thread and two threads: the thread count is read once, at import, so only
a new process can change it.

Each run also pins its ``summary.json``, with the ``wall_time`` value
masked, the one number that differs between two runs of one config, and
its trace read back from CSV equals the trace in memory bit for bit,
column by column.

Three of the runs also pin their plots: the ``plot.svg`` that ``amoo run``
writes and the ``amoo plot`` re-render of the run's ``trace.csv`` must both
have the pinned digest.

A digest moves only when a change alters some recorded number or, for a
plot, some drawn coordinate.  Such a change updates the digest here and
says in CHANGES.md which numbers moved and why.  The digests were taken
with numpy's bundled OpenBLAS 0.3.31 on x86-64; another BLAS or LAPACK may
round differently.
"""

import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amoo
from amoo import driver, traceio
from amoo.cli import cmd_plot, cmd_run, parse_run_config


def spd_hessians(seed: int, m: int = 3, n: int = 12) -> list:
    """m dense SPD matrices with random eigenbases, eigenvalues in [0.1, 1]."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(m):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        h = (q * rng.uniform(0.1, 1.0, size=n)) @ q.T
        mats.append(0.5 * (h + h.T))
    return mats


SELECTION = {"kind": "selection", "delta": 0.1, "m": 3, "n": 4}
MLP = {
    "kind": "mlp_matching", "variant": "selection", "input_dim": 4,
    "hidden": 5, "output_dim": 3, "dataset_size": 6, "seed": 2,
}
MLP_CURVED = {**MLP, "variant": "local_curvature"}
QUAD = {"kind": "quad_family", "h_list": [h.tolist() for h in spd_hessians(0)]}

CONFIGS = {
    "ew": {
        "problem": SELECTION,
        "weighting": {"kind": "ew"},
        "inner": {"kind": "gd", "step": 0.25},
        "run": {"steps": 60},
    },
    "fixed": {
        "problem": SELECTION,
        "weighting": {"kind": "fixed", "weights": [0.2, 0.3, 0.5]},
        "inner": {"kind": "gd", "step": 0.25},
        "run": {"steps": 60},
    },
    "camoo_exact": {
        "problem": QUAD,
        "weighting": {"kind": "camoo", "camoo": {"mode": "exact-eigen"}},
        "inner": {"kind": "gd", "step": 0.5},
        "run": {"steps": 30, "camoo_lr_scale_by_m": False},
    },
    "camoo_diagonal": {
        "problem": MLP,
        "weighting": {"kind": "camoo", "camoo": {"mode": "diagonal-bilinear"}},
        "inner": {"kind": "adam", "step": 5e-3},
        "run": {"steps": 200, "record_every": 10},
    },
    "camoo_diagonal_softplus": {
        "problem": {**MLP_CURVED, "activation": "softplus"},
        "weighting": {"kind": "camoo", "camoo": {"mode": "diagonal-bilinear"}},
        "inner": {"kind": "adam", "step": 5e-3},
        "run": {"steps": 200, "record_every": 10},
    },
    "pamoo": {
        "problem": MLP,
        "weighting": {"kind": "pamoo"},
        "inner": {"kind": "adam", "step": 5e-3},
        "run": {"steps": 200, "record_every": 10},
    },
    "pamoo_curved": {
        "problem": MLP_CURVED,
        "weighting": {"kind": "pamoo"},
        "inner": {"kind": "adam", "step": 5e-3},
        "run": {"steps": 200, "record_every": 10},
    },
    "pamoo_theory": {
        "problem": SELECTION,
        "preset": "pamoo-theory",
        "run": {"steps": 10},
    },
    "ew_chunks": {
        "problem": SELECTION,
        "weighting": {"kind": "ew"},
        "inner": {"kind": "gd", "step": 0.25},
        "run": {"steps": 1100, "record_every": 1},
    },
}

GOLDEN_SHA256 = {
    "ew": "64c8c09a7a8bf1b292996a739845bd11f09df822dca5e527d455ea47e98afe92",
    "fixed": "be7d0b833d8e8f1f7702ce5308a5e2a8fcd8d179a02e644e911d9cc6d14fa594",
    "camoo_exact": "95bdf590a92c0a14ff97f37478714f33a36cc80458b91849dc66320822e295c1",
    "camoo_diagonal": "321be2a817cb2f61b9bcef8752330826c5826f6cabafaf574bc0005702e5d394",
    "camoo_diagonal_softplus": "16021a331a4375cb6926ca6479883584ab725584b0b94e5fa39a3d702aaa6f02",
    "pamoo": "c89a5c2bd7a0a61b722db8eca50c6700ec305b5b1115176574391179e7101f89",
    "pamoo_curved": "305e62a68818be0a0f516c28e4ade48118cf5bd9be438687ce028be7f7ee62ae",
    "pamoo_theory": "66f92ba88452c1d3f636e90ee4fb5619d0b598b00fb1f7c9d378502e537f2107",
    "ew_chunks": "7ccfd24061bb0a47f0da444b503c3d281d37fe4a8362d95a9ca42b07b690f7c0",
}

SUMMARY_SHA256 = {
    "ew": "1f1813afc9e28ccc36dd666b3a1f9b2e2936e9e862a36a67341a1956eaf2b495",
    "fixed": "ee77ec20475f046ebf98265b822edd82d0e206ebfc96478bd7df819140db1273",
    "camoo_exact": "8bb5911d12f37e20f081b8f3de983d2ceac66ec5a069c27ce86474117075c8c0",
    "camoo_diagonal": "5a3bd1599ac97f37dd932e664c58feb9ebb31636be64ed6e6bf509d10a9b5e72",
    "camoo_diagonal_softplus": "f702e1428083c72ed8ce1bdda6b4b14fed17a4289239d381a4b55da9dc4753c4",
    "pamoo": "02104204d38b0008c13b65ce7126c8fc518779cd1c23f221303b2dec8244e8d4",
    "pamoo_curved": "e7b421086f759fccc57318bd965327f2f6e05d5bc05d0a4146b0527de3dcf852",
    "pamoo_theory": "3e20e11c1aab92a0289a073c2d98c11ee2ee9330978c84cb346f8993409e2eda",
    "ew_chunks": "966165149b6456215b5d09702672e4a19298adc91313295049953a821b5dab63",
}

PLOT_SHA256 = {
    "camoo_diagonal": "915850dacbd295315a08af06d64a4015d4cb534ece0eb475656141e7927ff136",
    "pamoo_curved": "160d3952a359a293c9262e903d288d92da374b53233e7c486ddc49bcd6267b6c",
    "ew_chunks": "f9eb31dff811b22669e35f1aa96f584a805c838a2ceb8092f90f4278dec7ccb8",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_sha256(path) -> str:
    """sha256 of a summary.json with its ``wall_time`` value written as 0."""
    data = re.sub(rb'"wall_time": [^,\n]*', b'"wall_time": 0', path.read_bytes())
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_digest_is_pinned(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out"
    assert cmd_run(str(config), str(out)) == 0
    assert sha256(out / "trace.csv") == GOLDEN_SHA256[name]
    assert summary_sha256(out / "summary.json") == SUMMARY_SHA256[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_read_back_equals_the_run_column_by_column(name, tmp_path):
    # mnorm is not in the CSV, so it reads back as None on every row.
    trace = driver.run(parse_run_config(CONFIGS[name]))
    path = tmp_path / "trace.csv"
    traceio.write_trace_csv(trace, path)
    back = traceio.read_trace_csv(path)
    assert back.steps == trace.steps and back.m == trace.m
    assert back.f.tobytes() == trace.f.tobytes() and back.w.tobytes() == trace.w.tobytes()
    for col in ("grad_norm", "residual", "msq", "lambda_min_est", "pu_gap"):
        got, want = getattr(back, col), getattr(trace, col)
        assert [None if v is None else np.float64(v).tobytes() for v in got] == [
            None if v is None else np.float64(v).tobytes() for v in want
        ], col
    assert back.mnorm == [None] * len(trace.steps) and back.config is None


def trace_digests(out_dir: Path) -> dict:
    """Run every config of ``CONFIGS`` under ``out_dir``; its trace digests."""
    digests = {}
    for name, doc in CONFIGS.items():
        config = out_dir / f"{name}.json"
        config.write_text(json.dumps(doc))
        # The __main__ block prints the digests as JSON: keep the run's line off stdout.
        with contextlib.redirect_stdout(None):
            assert cmd_run(str(config), str(out_dir / name)) == 0
        digests[name] = sha256(out_dir / name / "trace.csv")
    return digests


@pytest.mark.parametrize("threads", ["1", "2"])
def test_trace_digests_hold_under_each_blas_thread_count(threads, tmp_path):
    src = str(Path(amoo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == GOLDEN_SHA256


@pytest.mark.parametrize("name", sorted(PLOT_SHA256))
def test_plot_digests_are_pinned(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIGS[name], "output": {"plot": True}}))
    out = tmp_path / "out"
    assert cmd_run(str(config), str(out)) == 0
    replot = out / "replot.svg"
    assert cmd_plot(str(out / "trace.csv"), str(replot)) == 0
    assert sha256(out / "plot.svg") == sha256(replot) == PLOT_SHA256[name]


if __name__ == "__main__":  # python test_golden_traces.py OUT_DIR: print the digests
    print(json.dumps(trace_digests(Path(sys.argv[1]))))
