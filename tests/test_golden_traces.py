"""Identical configs give bitwise-identical traces: one small `amoo run`
config per weight rule, plus the network's ``local_curvature`` variant
(powers alpha != 1, softplus curvature) under diagonal CAMOO and PAMOO,
each pinned to the sha256 of its ``trace.csv``.

A digest moves only when a change alters some recorded number.  Such a
change updates the digest here and says in CHANGES.md which numbers moved
and why.  The digests were taken with numpy's bundled OpenBLAS 0.3.31 on
x86-64; another BLAS or LAPACK may round differently.
"""

import hashlib
import json

import numpy as np
import pytest

from amoo.cli import cmd_run


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
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_digest_is_pinned(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out"
    assert cmd_run(str(config), str(out), print_fn=lambda *_: None) == 0
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
