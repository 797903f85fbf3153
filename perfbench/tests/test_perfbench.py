"""Tests of the benchmark itself: span arithmetic, failure counting,
steps_to_tol, and a shrunken smoke run of every workload.

Run from the root of the checkout: python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.load_amoo()

import layers  # noqa: E402
import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracing import Span, Tracer, covered_length, outermost, self_times  # noqa: E402


def spans_of(rows):
    """Spans from (name, start, end, parent) rows."""
    out = []
    for name, start, end, parent in rows:
        s = Span(name, start, parent)
        s.end = end
        out.append(s)
    return out


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = spans_of(
        [
            ("root", 0.0, 10.0, None),
            ("child", 1.0, 4.0, 0),
            ("grandchild", 2.0, 3.0, 1),
            ("child", 6.0, 7.0, 0),
        ]
    )
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = spans_of(
        [
            ("root", 0.0, 10.0, None),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 6.0, 0),
            ("c", 5.5, 5.8, 0),
        ]
    )
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    spans = spans_of([("root", 0.0, 10.0, None), ("late", 8.0, 12.0, 0)])
    assert self_times(spans)[0] == pytest.approx(8.0)
    assert covered_length([(-5.0, -1.0), (11.0, 12.0)], 0.0, 10.0) == 0.0


def test_tracer_records_nesting_and_restores_bindings():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Owner:
        @staticmethod
        def inner():
            clock.advance(2.0)
            return "inner"

        @staticmethod
        def outer():
            clock.advance(1.0)
            Owner.inner()
            clock.advance(3.0)
            return "outer"

    inner, outer = Owner.inner, Owner.outer
    with tracer.install(
        [
            (Owner, "inner", "layer.inner", None),
            (Owner, "outer", "layer.outer", lambda a, k, r: {"result": r}),
        ]
    ):
        assert Owner.outer() == "outer"
    assert Owner.inner is inner and Owner.outer is outer
    names = [s.name for s in tracer.spans]
    assert names == ["layer.outer", "layer.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert [s.duration for s in tracer.spans] == [6.0, 2.0]
    assert self_times(tracer.spans) == [4.0, 2.0]
    assert tracer.spans[0].info == {"result": "outer"}


def test_recursive_spans_count_once():
    spans = spans_of(
        [
            ("problems.build", 0.0, 4.0, None),
            ("problems.build", 1.0, 2.0, 0),
            ("problems.build", 5.0, 6.0, None),
        ]
    )
    assert outermost(spans) == [True, False, True]
    metrics = layers.layer_metrics(spans)
    assert metrics["problems.build.calls"] == 2
    assert metrics["problems.build.s"] == pytest.approx(5.0)


def test_gradients_per_step_is_the_worst_run():
    rows = [("driver.run", 0.0, 10.0, None)]
    rows += [("core.gradients", 1.0 + i, 1.5 + i, 0) for i in range(3)]
    rows += [("driver.run", 20.0, 30.0, None)]
    rows += [("core.gradients", 21.0 + i, 21.5 + i, 4) for i in range(6)]
    spans = spans_of(rows)
    spans[0].info = {"iterates": 3}
    spans[4].info = {"iterates": 3}
    metrics = layers.layer_metrics(spans)
    assert metrics["core.gradients.per_step"] == 2.0
    assert metrics["driver.run.self_s"] == pytest.approx(20.0 - 4.5)


# ---------------------------------------------------------------------------
# Reference clock
# ---------------------------------------------------------------------------


def test_refclock_divides_each_stretch_by_the_last_probe_and_skips_probes():
    clock = RefClock()
    # Probes of 0.5 s at t=0, 1 s at t=10 (the machine slowed down), 0.5 s at t=20.
    clock.starts, clock.probes = [0.0, 10.0, 20.0], [0.5, 1.0, 0.5]
    seconds, units = clock.work(2.0, 24.0)
    # [2, 10) at 0.5 s per probe, [11, 20) at 1 s, [20.5, 24) at 0.5 s.
    assert seconds == pytest.approx(8.0 + 9.0 + 3.5)
    assert units == pytest.approx(8.0 / 0.5 + 9.0 / 1.0 + 3.5 / 0.5)
    assert clock.work(12.0, 14.0) == pytest.approx((2.0, 2.0))
    with pytest.raises(ValueError):
        clock.work(-1.0, 1.0)


def test_refclock_samples_while_active():
    import time

    with RefClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(clock.starts) >= 3
    seconds, units = clock.work(t0, t1)
    assert 0.0 < seconds < t1 - t0
    assert units > 0.0


def test_setup_s_is_the_median_ratio_at_the_reference_speed(monkeypatch):
    monkeypatch.setattr(run, "REF_SECONDS", 0.5)
    # Ratios 2, 6 and 2.5: the slow second pair is an outlier.
    samples = [(1.0, 0.5), (3.0, 0.5), (1.5, 0.6)]
    assert run.setup_s(samples) == pytest.approx(1.25)
    # A machine that runs everything 1.5 times slower gives the same value.
    assert run.setup_s([(1.5 * s, 1.5 * r) for s, r in samples]) == pytest.approx(1.25)


# ---------------------------------------------------------------------------
# Failure counting
# ---------------------------------------------------------------------------


def test_failed_frac_counts_raising_and_checked_failures():
    ok, raising, wrong = workloads.Op("ok"), workloads.Op("raises"), workloads.Op("wrong")
    assert workloads.guarded(ok, lambda: 3) == 3

    def boom():
        raise RuntimeError("deliberate failure")

    assert workloads.guarded(raising, boom) is None
    wrong.errors.append("output check failed")
    ops = [ok, raising, wrong]
    assert [op.failed for op in ops] == [False, True, True]
    assert "deliberate failure" in raising.errors[0]
    assert workloads.failed_count(ops) == 2
    assert workloads.failed_frac(ops) == pytest.approx(2 / 3)
    assert workloads.failed_frac([]) == 0.0


def test_readback_check_catches_a_changed_bit(tmp_path):
    import amoo.driver
    import amoo.traceio

    cfg = amoo.driver.RunConfig(
        problem=amoo.problems.ProblemSpec(kind="specification"),
        weighting=amoo.driver.WeightingChoice(kind="ew"),
        inner=amoo.driver.GDConfig(step=0.1),
        steps=5,
    )
    trace = amoo.driver.run(cfg)
    path = tmp_path / "trace.csv"
    amoo.traceio.write_trace_csv(trace, path)
    op = workloads.Op("run")
    quality = workloads.check_trace(op, trace, path, np.zeros(2))
    assert not op.failed
    assert quality["final_step"] == 5
    assert len(quality["trace_sha256"]) == 64

    rec = trace.records[2]
    bumped = np.nextafter(rec.grad_norm, np.inf)
    trace.records[2] = type(rec)(**{**rec.__dict__, "grad_norm": bumped})
    op = workloads.Op("run")
    workloads.check_trace(op, trace, path, np.zeros(2))
    assert op.failed and "row 2: grad_norm" in op.errors[0]


def test_a_check_that_raises_marks_only_its_op_failed(tmp_path):
    ops = [workloads.Op("good"), workloads.Op("unreadable"), workloads.Op("no_result")]
    ops[0].result = ops[1].result = "done"
    checked = []

    def check(op):
        checked.append(op.name)
        if op.name == "unreadable":
            workloads.amoo.traceio.read_trace_csv(tmp_path / "missing.csv")

    workloads.check_each(ops, check)
    assert checked == ["good", "unreadable"]
    assert [op.failed for op in ops] == [False, True, False]
    assert "missing.csv" in ops[1].errors[0]


def test_every_pu_solve_gap_is_checked():
    import amoo.weighting

    capture = workloads.PuGapCapture()
    original = workloads.amoo.driver.solve_bilinear_pu
    with capture.install():
        assert workloads.amoo.driver.solve_bilinear_pu is not original
        diag = np.array([[1.0, 0.2], [0.3, 2.0]])
        workloads.amoo.driver.solve_bilinear_pu(diag, amoo.weighting.CamooConfig())
    assert workloads.amoo.driver.solve_bilinear_pu is original
    assert len(capture.gaps) == 1 and capture.gaps[0] >= 0.0

    op = workloads.Op("camoo")
    workloads.check_pu_gaps(op, [0.0, 1e-9])
    assert not op.failed
    workloads.check_pu_gaps(op, [1e-9, -1e-12, float("nan")])
    assert op.errors == ["2 of 3 PU solves certified a gap < 0 or NaN"]


def test_pinned_digest_flags_a_changed_trace():
    wl = workloads.Verify(0, out_dir=None)
    op = workloads.Op("x")
    wl.pin_digest(op, "x", "aa")
    wl.pin_digest(op, "x", "aa")
    assert not op.failed
    wl.pin_digest(op, "x", "bb")
    assert op.failed


# ---------------------------------------------------------------------------
# steps_to_tol
# ---------------------------------------------------------------------------


def test_steps_to_tol_finds_the_first_step_below_tolerance():
    steps = [0, 1, 2, 3, 4]
    f = np.array([[1.0, 4.0], [0.5, 1e-3], [1e-9, 1e-9], [1e-11, 3e-10], [0.0, 0.0]])
    # Worst gaps: 4, 0.5, 1e-9, 3e-10, 0 against a threshold of 4e-10.
    assert workloads.steps_to_tol(steps, f, np.zeros(2), budget=4) == 3


def test_steps_to_tol_uses_the_optimal_values_and_the_budget():
    steps = [0, 10, 20]
    f = np.array([[2.0, 3.0], [1.0 + 1e-11, 2.0 + 1e-12], [1.0, 2.0]])
    f_star = np.array([1.0, 2.0])
    # Gaps from f_star: 1, 1e-11, 0.
    assert workloads.steps_to_tol(steps, f, f_star, budget=99) == 10
    # Gaps from zero: 3, 2, 2 never drop below tolerance.
    assert workloads.steps_to_tol(steps, f, np.zeros(2), budget=99) == 99


# ---------------------------------------------------------------------------
# Smoke run
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink the runs so a whole benchmark run takes seconds (20 steps is
    the least that `analyze --fit-rate` accepts), and write results under
    ``tmp_path``."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PAIRS", 2)
    monkeypatch.setattr(workloads, "MLP_STEPS", 20)
    monkeypatch.setattr(workloads, "VERIFY_SEEDS", (0,))
    for key, steps in {"a_camoo_exact": 20, "b_pamoo_theory": 20, "c_misaligned": 25,
                       "d_ew_long": 40}.items():
        monkeypatch.setitem(workloads.CLI_STEPS, key, steps)


@pytest.mark.parametrize("workload", ["mlp_matching", "analytic_cli", "verify"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(tiny, capsys, workload, trace):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    report = "\n".join(lines[:-1])
    names = [n for n, _ in expected]
    if not trace:
        names += ["setup_raw_s", "wall_s", "failed_frac"]
        names += {"mlp_matching": ["steps_per_s", "msq_final_log10"],
                  "analytic_cli": ["steps_per_s", "steps_to_tol"],
                  "verify": []}[workload]
    for name in names:
        assert f"  {name} " in report
    if trace:
        spans = (run.OUT / f"{workload}-seed3-trace1" / "spans.csv").read_text().splitlines()
        assert spans[0] == "pass,index,name,start,end,parent"
        assert len(spans) > 1
