"""Benchmark of the amoo package in the checkout that contains this file.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload mlp_matching --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced pass, then traced passes that wrap the
layer boundaries of ``amoo`` and report the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  The full result (machine facts, per-config quality and
trace digests, every pass) goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Small dense linear algebra: one BLAS thread is fastest and steadiest.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s comes from this many pairs of fresh processes, half of them
# before the timed passes and half after: a set-up process and, right after
# it, a reference process that starts Python and imports what amoo imports
# from outside the standard library.  A slow stretch of a shared machine
# slows both alike, so setup_s is the median ratio of the two times, in
# seconds of a machine where the reference takes REF_SECONDS.
SETUP_PAIRS = 8
REF_COMMAND = [sys.executable, "-c", "import numpy, scipy.optimize; print('ready')"]
REF_SECONDS = 0.5
WORKLOAD_NAMES = ("mlp_matching", "analytic_cli", "verify")

# End-to-end metrics in BENCHMARK.json: every workload reports them.
END_TO_END = [("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB")]
# Further end-to-end metrics, printed and recorded where they apply.
EXTRA_UNITS = {
    "setup_raw_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "failed_frac": "ratio",
    "msq_final_log10": "log10",
    "steps_to_tol": "steps",
}


def load_amoo():
    """Import amoo from the checkout's src/, never from anywhere else."""
    if not (SRC / "amoo" / "__init__.py").is_file():
        sys.exit(f"error: no amoo package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import amoo

    if Path(amoo.__file__).resolve().parent != (SRC / "amoo").resolve():
        sys.exit(f"error: imported amoo from {amoo.__file__}, not from {SRC}")
    return amoo


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(amoo) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "amoo_file": amoo.__file__,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")},
        "blas_version": deps.get("blas", {}).get("version"),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads_in_use(),
    }


def time_to_ready(cmd) -> float:
    """Seconds from starting ``cmd`` until it prints ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        sys.exit(f"error: {cmd[1]} exited {code} without getting ready")
    return t1 - t0


def setup_samples(workload: str, seed: int, pairs: int) -> list[tuple[float, float]]:
    """(set-up, reference) seconds of ``pairs`` pairs of fresh processes.

    A set-up process runs from start through importing amoo and building
    every config of the workload.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    return [(time_to_ready(probe), time_to_ready(REF_COMMAND)) for _ in range(pairs)]


def setup_s(samples) -> float:
    """Set-up seconds at the reference speed: REF_SECONDS times the median
    ratio of set-up to reference time."""
    return REF_SECONDS * statistics.median(s / r for s, r in samples)


def measure(wl, seconds: float, traced: bool):
    """Run passes for about ``seconds``; a traced run starts with one untraced pass.

    A new pass starts only while it should still end within ``seconds``, so
    a run overshoots little; at least one pass (two when traced) runs.
    """
    import layers
    from refclock import RefClock
    from tracing import Tracer
    from workloads import run_ops

    passes = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        trace_this = traced and len(passes) > 0
        tracer = Tracer()
        ops = wl.plan()
        with wl.pass_context():
            if trace_this:
                with tracer.install(layers.bindings()):
                    run_ops(ops)
            else:
                with RefClock() as clock:
                    run_ops(ops, clock)
        counted, quality = wl.check_pass(ops)
        steps, driver_s = wl.steps_done(ops)
        for op in ops:
            op.fn = op.result = None  # keep one pass's traces in memory, not all
        passes.append(
            {
                "traced": trace_this,
                "wall_s": sum(op.seconds for op in ops),
                "wall_ref": sum(op.ref for op in ops),
                "steps": steps,
                "driver_s": driver_s,
                "ops": ops,
                "counted": counted,
                "quality": quality,
                "layers": layers.layer_metrics(tracer.spans) if trace_this else None,
                "spans": tracer.spans,
            }
        )
        now = time.perf_counter()
        need_traced = traced and not trace_this
        if not need_traced and (now - t_start) + (now - t_pass) > seconds:
            return passes


def per_layer(passes) -> dict:
    """Per-layer metrics averaged over the traced passes."""
    import layers

    traced = [p for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    out = {}
    for name, _ in layers.PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = statistics.median(p["wall_s"] for p in traced) - statistics.median(plain)
        else:
            out[name] = statistics.fmean(p["layers"][name] for p in traced)
    return out


def write_spans(passes, path: Path) -> None:
    """All spans of the run as CSV; ``parent`` indexes the same pass's rows."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["pass", "index", "name", "start", "end", "parent"])
        for i, p in enumerate(passes):
            for j, s in enumerate(p["spans"]):
                parent = "" if s.parent is None else s.parent
                out.writerow([i, j, s.name, repr(s.start), repr(s.end), parent])


def run_workload(args) -> int:
    amoo = load_amoo()
    import layers
    import workloads

    facts = machine_facts(amoo)
    pairs = 0 if args.trace else SETUP_PAIRS
    setups = setup_samples(args.workload, args.seed, pairs // 2)

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir / "work")
    wl.setup()
    wl.write_inputs()

    passes = measure(wl, args.seconds, bool(args.trace))
    setups += setup_samples(args.workload, args.seed, pairs - pairs // 2)

    ops = [op for p in passes for op in p["counted"]]
    failed = workloads.failed_count(ops)
    last_quality = passes[-1]["quality"]
    e2e = {
        "setup_s": setup_s(setups) if setups else None,
        "setup_raw_s": statistics.median(s for s, _ in setups) if setups else None,
        "wall_ref": statistics.median(p["wall_ref"] for p in passes if not p["traced"]),
        "wall_s": statistics.median(p["wall_s"] for p in passes if not p["traced"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": workloads.failed_frac(ops),
    }
    steps = sum(p["steps"] for p in passes if not p["traced"])
    driver_s = sum(p["driver_s"] for p in passes if not p["traced"])
    if steps:
        e2e["steps_per_s"] = steps / driver_s
    e2e.update(wl.summary(last_quality))

    units = dict(END_TO_END) | EXTRA_UNITS
    if args.trace:
        values = per_layer(passes)
        metrics = {n: {"value": values[n], "unit": u} for n, u in layers.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "setup_samples": [{"setup_s": s, "ref_s": r} for s, r in setups],
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "per_layer": metrics if args.trace else None,
        "passes": [
            {
                "traced": p["traced"],
                "wall_s": p["wall_s"],
                "wall_ref": p["wall_ref"],
                "steps": p["steps"],
                "driver_s": p["driver_s"],
                "ops": [
                    {"name": op.name, "seconds": op.seconds, "ref": op.ref}
                    for op in p["ops"]
                ],
                "failures": [
                    {"name": op.name, "errors": op.errors}
                    for op in p["counted"]
                    if op.failed
                ],
            }
            for p in passes
        ],
        "quality": last_quality,
        "trace_sha256": wl.digests,
        "attempted": len(ops),
        "failed": failed,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        write_spans(passes, out_dir / "spans.csv")
    result_path = out_dir / "result.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print_report(result, result_path)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def print_report(result: dict, result_path: Path) -> None:
    m = result["machine"]
    print(
        f"# amoo benchmark: workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']} passes={len(result['passes'])}"
    )
    print(f"# amoo: {m['amoo_file']} (commit {m['git_commit']})")
    print(
        f"# machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"scipy={m['scipy']} blas={m['blas']['blas']} {m['blas_version']} "
        f"threads={m['blas_threads']}"
    )
    print("# end-to-end (untraced passes):")
    for name, entry in result["end_to_end"].items():
        if entry["value"] is not None:
            print(f"  {name:<18} {entry['value']:>14.6g} {entry['unit']}")
    if result["per_layer"]:
        print("# per-layer (traced passes, per pass):")
        for name, entry in result["per_layer"].items():
            print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}")
    for p in result["passes"]:
        for failure in p["failures"]:
            for err in failure["errors"]:
                print(f"# FAILED {failure['name']}: {err.strip().splitlines()[-1]}")
    print(f"# attempted={result['attempted']} failed={result['failed']}")
    print(f"# full result: {os.path.relpath(result_path, ROOT)}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv=None):
    def nonneg_int(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def positive(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be > 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=nonneg_int, default=0)
    p.add_argument("--seconds", type=positive, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy loads; set-up probes and child runs inherit it.
    os.environ.update({var: BLAS_THREADS for var in BLAS_ENV})
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
