"""The weighted descent loop: updates, recording, determinism, failure paths."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amoo.driver
from amoo.core import (
    NumericError,
    ObjectiveSet,
    OptimalInfo,
    weighted_gradient,
)
from amoo.driver import (
    AdamConfig,
    ConfigurationError,
    GDConfig,
    RunConfig,
    WeightingChoice,
    adam_init,
    run,
    step_adam,
    step_gd,
    theory_camoo,
    theory_pamoo,
)
from amoo.hessians import HutchinsonConfig, diag_hessian_matrix
from amoo.cli import parse_run_config
from amoo.problems import (
    Problem,
    ProblemMeta,
    ProblemSpec,
    _QuadraticStack,
    _TwoLayerMatching,
    build,
)
from amoo.weighting import (
    CamooConfig,
    PamooConfig,
    equal_weights,
    max_min_weights,
    pamoo_context,
    pamoo_weights,
    solve_camoo_exact,
)
from test_golden_traces import CONFIGS, spd_hessians
from test_problems import mlp_objective_reference
from test_weighting import highs_max_min_value
from objective_sets import one_objective

SPEC01 = ProblemSpec(kind="specification", delta=0.1)
TWO_DENSE = ProblemSpec(
    kind="quad_family",
    h_list=(((2.0, 0.5), (0.5, 1.0)), ((1.0, -0.3), (-0.3, 3.0))),
)
# Powers 1, 1.5 and 2 of x'H_i x: Hessians that move along the run.
POWER6 = ProblemSpec(
    kind="quad_family",
    h_list=tuple(tuple(map(tuple, H)) for H in spd_hessians(1, n=6)),
    alpha_list=(1.0, 1.5, 2.0),
)


def spec_run(weighting, steps=100, step=0.25, x0=(1.0, 1.0), **kwargs):
    return run(
        RunConfig(
            problem=SPEC01,
            weighting=weighting,
            inner=GDConfig(step=step),
            steps=steps,
            x0=x0,
            **kwargs,
        )
    )


class TestSteppers:
    def test_gd_example(self):
        np.testing.assert_allclose(
            step_gd(np.array([1.0]), np.array([2.0]), 0.5), [0.0]
        )

    def test_gd_zero_gradient(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(step_gd(x, np.zeros(2), 0.7), x)

    def test_gd_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            step_gd(np.array([1.0]), np.array([np.nan]), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_adam_rejects_nonfinite(self, bad):
        state = adam_init(np.zeros(2))
        with pytest.raises(NumericError, match="non-finite gradient in Adam step"):
            step_adam(state, np.array([1.0, bad]), 0.1)

    def test_adam_first_step_unit_direction(self):
        state = adam_init(np.array([0.0]))
        state, x = step_adam(state, np.array([1.0]), 0.1)
        # Bias correction makes the first step eta * g / (|g| + eps).
        assert x[0] == pytest.approx(-0.1, rel=1e-6)
        assert state.t == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": math.nan},
            {"step": math.inf},
            {"step": 0.0},
            {"step": -0.1},
            {"step": -math.inf},
        ],
    )
    def test_adam_constants_checked(self, kwargs):
        with pytest.raises(ConfigurationError, match="Adam"):
            AdamConfig(**{"step": 0.1, **kwargs})

    def test_gd_nan_step_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            GDConfig(step=math.nan)

    def test_gd_infinite_step_rejected(self):
        with pytest.raises(ConfigurationError, match="step must be finite"):
            GDConfig(step=math.inf)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        steps=st.integers(1, 5),
        log_scale=st.floats(-8.0, 8.0),
        lr=st.sampled_from([0.01, 5e-3, 1.5]),
    )
    def test_adam_bitwise_equal_to_reference_and_state_kept(
        self, seed, n, steps, log_scale, lr
    ):
        """``step_adam`` updates in place, on arrays of its own: it gives the
        bits of the expression as first written and leaves the state it was
        given, and the gradient, as they were."""
        rng = np.random.default_rng(seed)
        state = adam_init(rng.normal(size=n))
        want_x, want_m1, want_m2 = state.x, state.m1, state.m2
        for t in range(1, steps + 1):
            g = 10.0**log_scale * rng.normal(size=n)
            g[rng.random(n) < 0.2] = -0.0
            kept = [a.copy() for a in (state.x, state.m1, state.m2, g)]
            state_next, x = step_adam(state, g, lr)
            for before, after in zip(kept, (state.x, state.m1, state.m2, g)):
                assert before.tobytes() == after.tobytes()
            for new in (state_next.x, state_next.m1, state_next.m2):
                for old in (state.x, state.m1, state.m2, g):
                    assert not np.shares_memory(new, old)
            # The update as first written, with b1, b2, eps = 0.9, 0.999, 1e-8.
            want_m1 = 0.9 * want_m1 + (1.0 - 0.9) * g
            want_m2 = 0.999 * want_m2 + (1.0 - 0.999) * g * g
            m1_hat = want_m1 / (1.0 - 0.9**t)
            m2_hat = want_m2 / (1.0 - 0.999**t)
            want_x = want_x - lr * m1_hat / (np.sqrt(m2_hat) + 1e-8)
            assert x is state_next.x and state_next.t == t
            for got, want in zip(
                (state_next.x, state_next.m1, state_next.m2), (want_x, want_m1, want_m2)
            ):
                assert got.tobytes() == want.tobytes()
            state = state_next

    def test_adam_deterministic(self):
        g = np.array([0.3, -0.7])
        s1, x1 = step_adam(adam_init(np.zeros(2)), g, 0.05)
        s2, x2 = step_adam(adam_init(np.zeros(2)), g, 0.05)
        np.testing.assert_array_equal(x1, x2)


class TestRunBasics:
    def test_specification_ew_converges(self):
        trace = spec_run(WeightingChoice(kind="ew"))
        final = trace.final()
        assert final.step == 100
        assert final.residual <= 1e-10
        # Independent simulation oracle: equal weights give the gradient
        # 0.5*(grad f1 + grad f2) = x, so x contracts by 0.75 each step.
        x = np.array([1.0, 1.0])
        for _ in range(100):
            x = x - 0.25 * x
        assert final.residual == pytest.approx(float(np.linalg.norm(x)), rel=1e-9)

    def test_recorded_norm_is_numpy_norm_bit_for_bit(self):
        # The driver records grad_norm and residual as sqrt(v.v), the formula
        # np.linalg.norm runs on 1-D float64; if numpy changes it, this fails
        # before the golden digests do.
        rng = np.random.default_rng(0)
        with np.errstate(over="ignore"):
            for n in range(1, 1001):
                scaled = rng.normal(size=n) * 10.0 ** rng.integers(-150, 151)
                for v in (scaled, np.full(n, 1e200), np.full(n, 1e-200), np.full(n, -0.0)):
                    got, want = amoo.driver._norm(v), float(np.linalg.norm(v))
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert amoo.driver._norm(np.full(3, 1e200)) == math.inf  # overflows
        assert amoo.driver._norm(np.full(3, 1e-200)) == 0.0  # underflows

    def test_zero_steps_single_record(self):
        trace = spec_run(WeightingChoice(kind="ew"), steps=0)
        assert trace.steps == [0]
        np.testing.assert_allclose(trace.f, [[1.0, 1.0]])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"steps": -1}, "steps must be nonnegative"),
            ({"record_every": 0}, "record_every must be positive"),
        ],
    )
    def test_run_config_rejects(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            spec_run(WeightingChoice(kind="ew"), **kwargs)

    def test_record_thinning_keeps_final(self):
        trace = spec_run(WeightingChoice(kind="ew"), steps=10, record_every=4)
        assert trace.steps == [0, 4, 8, 10]

    def test_monotone_weighted_decrease_small_step(self):
        # For step <= 1/beta the weighted value cannot increase.
        trace = spec_run(WeightingChoice(kind="ew"), steps=50, step=0.5)
        f_w_prev = (trace.w * trace.f).sum(axis=1)
        f_w_next = (trace.w[:-1] * trace.f[1:]).sum(axis=1)
        assert np.all(f_w_next <= f_w_prev[:-1] + 1e-12)

    def test_bitwise_determinism(self):
        t1 = spec_run(WeightingChoice(kind="camoo"), steps=20)
        t2 = spec_run(WeightingChoice(kind="camoo"), steps=20)
        assert t1.f.tobytes() == t2.f.tobytes() and t1.w.tobytes() == t2.w.tobytes()
        assert t1.residual == t2.residual

    def test_bitwise_determinism_with_hutchinson(self):
        spec = ProblemSpec(
            kind="mlp_matching",
            variant="selection",
            input_dim=4,
            hidden=5,
            output_dim=3,
            dataset_size=6,
            seed=2,
        )
        wc = WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear"),
            hutchinson=HutchinsonConfig(num_samples=3, rng_seed=1),
        )
        cfg = RunConfig(
            problem=spec, weighting=wc, inner=AdamConfig(step=0.005), steps=10,
            seed=5,
        )
        t1, t2 = run(cfg), run(cfg)
        assert t1.w.tobytes() == t2.w.tobytes()
        assert t1.msq == t2.msq and t1.pu_gap == t2.pu_gap

    def test_x0_shape_checked(self):
        with pytest.raises(ConfigurationError):
            spec_run(WeightingChoice(kind="ew"), x0=(1.0, 1.0, 1.0))

    def test_fixed_weights(self):
        trace = spec_run(
            WeightingChoice(kind="fixed", weights=(1.0, 0.0)), steps=100
        )
        # Objective 1 alone barely curves the second coordinate: x2 contracts
        # by 1 - 0.25 * 2 * delta = 0.95 per step.
        assert trace.final().residual == pytest.approx(0.95**100, rel=1e-6)
        ew = spec_run(WeightingChoice(kind="ew"), steps=100)
        assert trace.final().residual > 1e6 * ew.final().residual

    def test_constant_weights_fill_the_weight_column(self):
        ew = spec_run(WeightingChoice(kind="ew"), steps=5)
        fixed = spec_run(WeightingChoice(kind="fixed", weights=(1.0, 0.0)), steps=5)
        for trace, want in ((ew, equal_weights(2)), (fixed, np.array([1.0, 0.0]))):
            assert trace.w.shape == (6, 2) and trace.w.dtype == np.float64
            assert trace.w.tobytes() == np.tile(want, (6, 1)).tobytes()

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"kind": "magic"}, "unknown weighting kind"),
            ({"kind": "fixed"}, "needs weights"),
        ],
    )
    def test_weighting_choice_validated(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            WeightingChoice(**kwargs)

    @pytest.mark.parametrize(
        "problem,weighting,message",
        [
            (ProblemSpec(kind="selection", m=1), None, "bad value in problem"),
            (
                ProblemSpec(kind="specification", delta=0.9),
                None,
                "bad value in problem",
            ),
            (
                ProblemSpec(kind="mlp_matching", activation="tanh"),
                None,
                "bad value in problem",
            ),
            (
                SPEC01,
                WeightingChoice(kind="fixed", weights=(1.0,)),
                "1 fixed weights",
            ),
            (
                SPEC01,
                WeightingChoice(kind="fixed", weights=(1.0, -1.0)),
                "bad fixed weights",
            ),
            (
                SPEC01,
                WeightingChoice(kind="fixed", weights=(0.0, 0.0)),
                "sum to 0",
            ),
            (
                SPEC01,
                WeightingChoice(kind="fixed", weights=(math.nan, 1.0)),
                "bad fixed weights",
            ),
        ],
    )
    def test_rejected_before_first_step(self, monkeypatch, problem, weighting, message):
        monkeypatch.setattr(ObjectiveSet, "evaluate", lambda *a: pytest.fail("stepped"))
        cfg = RunConfig(
            problem=problem,
            weighting=weighting or WeightingChoice(kind="ew"),
            inner=GDConfig(step=0.25),
            steps=5,
        )
        with pytest.raises(ConfigurationError, match=message):
            run(cfg)


class TestCamooRuns:
    def test_local_curvature_weight_tracks_sign(self):
        cfg = RunConfig(
            problem=ProblemSpec(kind="local_curvature", n=1),
            weighting=WeightingChoice(kind="camoo"),
            inner=GDConfig(step=0.25),
            steps=30,
            x0=(2.0,),
        )
        trace = run(cfg)
        away = np.array(trace.residual) > 0.05
        # sign(x) equals sign(f1 - f2) since f1 - f2 = 2(sinh x - x).
        sign_x = np.sign(trace.f[away, 0] - trace.f[away, 1])
        np.testing.assert_array_equal(np.sign(trace.w[away, 0] - trace.w[away, 1]), sign_x)
        assert (sign_x < 0).any()  # the scaled step overshoots through the optimum

    def test_lambda_estimate_recorded(self):
        trace = spec_run(WeightingChoice(kind="camoo"), steps=5)
        assert trace.lambda_min_est == pytest.approx([1.0] * 6, abs=1e-2)

    @pytest.mark.parametrize(
        "problem,x0", [(TWO_DENSE, None), (POWER6, (0.5,) * 6)], ids=["quad", "power"]
    )
    def test_exact_mode_records_its_certified_gap(self, monkeypatch, problem, x0):
        # Kelley's gap of every step's solve, within the solver's tolerance
        # 1e-7 max_i ||H_i|| at that step's Hessians (which move on POWER6).
        scales = []
        solve = amoo.driver.solve_camoo_exact

        def kept(hessians, *args, **kwargs):
            scales.append(max(np.linalg.norm(H, 2) for H in hessians))
            return solve(hessians, *args, **kwargs)

        monkeypatch.setattr(amoo.driver, "solve_camoo_exact", kept)
        trace = run(
            RunConfig(
                problem=problem,
                weighting=WeightingChoice(kind="camoo"),
                inner=GDConfig(step=0.05),
                steps=20,
                x0=x0,
            )
        )
        assert len(trace.pu_gap) == len(scales) == 21
        for gap, scale in zip(trace.pu_gap, scales):
            assert 0.0 <= gap <= 1e-7 * scale

    def test_lr_scaling_by_m(self):
        slow = spec_run(
            WeightingChoice(kind="camoo"), steps=1, camoo_lr_scale_by_m=False
        )
        fast = spec_run(
            WeightingChoice(kind="camoo"), steps=1, camoo_lr_scale_by_m=True
        )
        # Doubled step moves twice as far from the start along the same ray.
        d_slow = np.sqrt(2) - slow.final().residual
        d_fast = np.sqrt(2) - fast.final().residual
        assert d_fast == pytest.approx(2.0 * d_slow, rel=1e-6)

    def test_diag_mode_records_gap(self):
        wc = WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear"),
        )
        trace = spec_run(wc, steps=5)
        assert all(gap is not None and gap >= -1e-10 for gap in trace.pu_gap)


    def test_diag_mode_floor(self):
        # Unfloored, the selection weights put all mass on the strong third
        # objective; the floor lifts the two weak ones to w_min.
        wc = WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear", w_min=0.2),
        )
        trace = run(
            RunConfig(
                problem=ProblemSpec(kind="selection", delta=0.1, m=3, n=2),
                weighting=wc,
                inner=GDConfig(step=0.1),
                steps=5,
            )
        )
        assert np.all(trace.w >= 0.2 - 1e-12)
        np.testing.assert_allclose(trace.w.sum(axis=1), 1.0, atol=1e-12, rtol=0)
        np.testing.assert_allclose(trace.w, [[0.2, 0.2, 0.6]] * 6, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(2, 4),
        floor_frac=st.sampled_from([1.0]) | st.floats(1e-3, 1.0),
        hutchinson=st.sampled_from([None, HutchinsonConfig()]),
    )
    def test_diag_mode_weights_stay_on_the_floored_simplex(
        self, m, floor_frac, hutchinson
    ):
        w_min = floor_frac / m
        wc = WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear", w_min=w_min),
            hutchinson=hutchinson,
        )
        trace = run(
            RunConfig(
                problem=ProblemSpec(kind="selection", delta=0.1, m=m, n=3),
                weighting=wc,
                inner=GDConfig(step=0.05),
                steps=8,
            )
        )
        assert trace.w.shape == (9, m)
        assert np.all(np.abs(trace.w.sum(axis=1) - 1.0) <= 1e-9)
        assert trace.w.min() >= w_min - 1e-9

    @pytest.mark.parametrize("variant", ["selection", "local_curvature"])
    def test_diag_mode_gap_bounds_the_suboptimality(self, monkeypatch, variant):
        # Column generation solves max_w min_k (w'D)_k exactly: its recorded
        # gap is >= 0, small, and bounds how far lambda_min_est lies below the
        # optimum of one direct HiGHS solve over every column of D.
        diags = []
        evaluate = _TwoLayerMatching.evaluate

        def keep_diag(model, theta):
            fvals, J, diag, hessians = evaluate(model, theta)

            def kept():
                diags.append(diag())
                return diags[-1]

            return fvals, J, kept, hessians

        monkeypatch.setattr(_TwoLayerMatching, "evaluate", keep_diag)
        trace = run(
            RunConfig(
                problem=ProblemSpec(kind="mlp_matching", variant=variant),
                weighting=WeightingChoice(
                    kind="camoo", camoo=CamooConfig(mode="diagonal-bilinear")
                ),
                inner=AdamConfig(step=5e-3),
                steps=200,
            )
        )
        assert len(trace.steps) == len(diags) == 201
        assert all(gap >= 0.0 for gap in trace.pu_gap)
        # Every step, so that steps that take a second round are checked too.
        for w, value, gap, D in zip(trace.w, trace.lambda_min_est, trace.pu_gap, diags):
            assert value == (w @ D).min()
            best = highs_max_min_value(D, 0.0)
            assert gap >= best - value - 1e-12
            assert best - value <= 1e-9 * (1.0 + abs(best))
            # The solve stops only once its own gap certifies the optimum.
            assert gap <= 1e-9 * (1.0 + abs(best))


ONE_EVAL_WEIGHTINGS = {
    "ew": WeightingChoice(kind="ew"),
    "camoo-diag": WeightingChoice(
        kind="camoo", camoo=CamooConfig(mode="diagonal-bilinear")
    ),
    "pamoo": WeightingChoice(kind="pamoo"),
}


class TestOneEvaluationPerIterate:
    @pytest.mark.parametrize("kind", list(ONE_EVAL_WEIGHTINGS))
    def test_one_evaluate_call_per_iterate(self, monkeypatch, kind):
        calls = {"evaluate": 0, "values": 0, "gradients": 0}
        for name in calls:
            original = getattr(ObjectiveSet, name)

            def counted(self, x, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, x)

            monkeypatch.setattr(ObjectiveSet, name, counted)
        trace = spec_run(ONE_EVAL_WEIGHTINGS[kind], steps=10, step=0.1)
        assert len(trace.steps) == 11
        assert calls == {"evaluate": 11, "values": 0, "gradients": 0}

    def test_exact_camoo_takes_the_hessians_of_the_pass(self, monkeypatch):
        # Exact CAMOO on the camoo_misaligned golden's problem, whose base has
        # powers: the base's evaluate runs once per iterate and its pass gives
        # the Hessians, so ObjectiveSet.hessians is never called.
        calls = []
        evaluate = _QuadraticStack.evaluate

        def counted(self, x):
            calls.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(_QuadraticStack, "evaluate", counted)
        monkeypatch.setattr(ObjectiveSet, "hessians", lambda *a: pytest.fail("hessians"))
        cfg = parse_run_config(CONFIGS["camoo_misaligned"])
        problem = build(cfg.problem)
        monkeypatch.setattr(amoo.driver, "build_problem", lambda spec: problem)
        calls.clear()  # the minimax solve's
        trace = run(cfg)
        assert len(calls) == cfg.steps + 1 == 61
        assert all(X.shape == (3, 2) for X in calls)
        assert all(gap is not None for gap in trace.pu_gap)

    @pytest.mark.parametrize("kind", list(ONE_EVAL_WEIGHTINGS))
    def test_one_forward_pass_per_iterate_on_the_mlp(self, monkeypatch, kind):
        # Each record adds one pass for msq and mnorm; the Hessian diagonal
        # reuses the pass of ``evaluate``.
        passes = []
        original = _TwoLayerMatching._forward

        def counted(self, theta):
            passes.append(theta)
            return original(self, theta)

        monkeypatch.setattr(_TwoLayerMatching, "_forward", counted)
        steps = 20
        trace = run(
            RunConfig(
                problem=SMALL_MLP,
                weighting=ONE_EVAL_WEIGHTINGS[kind],
                inner=AdamConfig(step=1e-3),
                steps=steps,
                record_every=5,
            )
        )
        assert len(trace.steps) == 5
        assert len(passes) == (steps + 1) + len(trace.steps)


class TestFiniteChecksPerStep:
    @pytest.mark.parametrize("kind", list(ONE_EVAL_WEIGHTINGS))
    @pytest.mark.parametrize("inner", [GDConfig(step=0.1), AdamConfig(step=0.01)])
    def test_a_finite_run_calls_no_isfinite_per_step(self, monkeypatch, kind, inner):
        # Finite vectors pass on v·v alone (core._finite); np.isfinite runs
        # only on a NaN, an inf or an overflow.
        calls = []
        original = np.isfinite

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)

        def isfinite_calls(steps):
            calls.clear()
            cfg = RunConfig(SPEC01, ONE_EVAL_WEIGHTINGS[kind], inner, steps, x0=(1.0, 1.0))
            assert len(run(cfg).steps) == steps + 1
            return len(calls)

        assert isfinite_calls(30) == isfinite_calls(0)


class TestPamooRuns:
    def test_polyak_reduction_m1(self):
        # One quadratic objective, unit inner step: the update must equal the
        # classic adaptive step -(f - f*) / |grad|^2 * grad.
        problem_spec = ProblemSpec(
            kind="quad_family", h_list=(((1.0,),),), alpha_list=(1.0,)
        )
        wc = WeightingChoice(
            kind="pamoo",
            pamoo=PamooConfig(gram_tau=0.0, clip_floor=0.0),
        )
        cfg = RunConfig(
            problem=problem_spec, weighting=wc, inner=GDConfig(step=1.0),
            steps=50, x0=(1.0,),
        )
        trace = run(cfg)
        x = 1.0
        for residual in trace.residual:
            assert residual == pytest.approx(abs(x), abs=1e-9)
            # Polyak reference update for f = x^2: x <- x - (x^2/(2x)^2)*2x.
            x = x - (x * x) / (2 * x) ** 2 * (2 * x)

    def test_run_carries_its_problem(self):
        trace = spec_run(WeightingChoice(kind="pamoo"), steps=2, step=1.0)
        assert trace.problem.spec == SPEC01
        np.testing.assert_array_equal(
            trace.problem.optimum.x_star, build(SPEC01).optimum.x_star
        )

    def test_recorded_weights_keep_no_solver_array(self):
        # PAMOO's weights are a row of its (2^m, m, 1) batch solve, 393 KB at
        # m = 12: a record that kept that row kept the whole batch alive, so
        # a 50-step run peaked about 19 MB above a 1-step one.
        cfg = RunConfig(
            problem=ProblemSpec(kind="selection", m=12, n=12),
            weighting=WeightingChoice(kind="pamoo"), inner=GDConfig(step=0.1), steps=1,
        )

        def peak(steps):
            tracemalloc.start()
            try:
                run(replace(cfg, steps=steps))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50) - peak(1) < 1e6

    def test_pamoo_converges_on_specification(self):
        wc, inner = theory_pamoo()
        cfg = RunConfig(
            problem=SPEC01, weighting=wc, inner=inner, steps=60, x0=(1.0, 1.0)
        )
        trace = run(cfg)
        assert trace.final().residual <= 1e-8

    def test_pamoo_resolves_local_curvature_near_its_minimum(self):
        # Near the minimum the gaps are O(x^2): values measured from a nonzero
        # minimum (n) cancel them to 0, and the run stalls (here at 1.6e-8).
        wc, inner = theory_pamoo()
        cfg = RunConfig(
            problem=ProblemSpec(kind="local_curvature", n=2), weighting=wc,
            inner=inner, steps=1000, x0=(0.1, 0.1), record_every=100,
        )
        assert run(cfg).final().residual <= 1e-15


class TestTheoryPresets:
    def test_camoo_preset_fields(self):
        built = build(SPEC01)
        wc, inner = theory_camoo(built.meta, 2)
        assert inner.step == pytest.approx(1.0 / 3.6)
        assert wc.camoo.w_min == pytest.approx(1.0 / (8 * 2 * 1.8))

    def test_preset_requires_constants(self):
        built = build(
            ProblemSpec(
                kind="mlp_matching",
                input_dim=3,
                hidden=3,
                output_dim=2,
                dataset_size=4,
            )
        )
        with pytest.raises(ConfigurationError):
            theory_camoo(built.meta, 3)


class TestNumericFailure:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_partial_trace(self):
        with pytest.raises(NumericError) as err:
            spec_run(WeightingChoice(kind="ew"), steps=2000, step=10.0)
        trace = err.value.payload
        assert trace is not None
        assert trace.error is not None
        assert len(trace.steps) > 0
        assert np.isfinite(trace.f).all()

    # Hand-built one-objective sets on R^1, each first
    # non-finite at step 2: f = x^2 under GD step 0.25 halves x, and the
    # linear ramp's iterate moves 1e308 per step, so it overflows at step 2.
    # A poisoned value comes with a poisoned gradient, and the value is named.
    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize(
        "poison, step, message",
        [
            ("ramp", 1e308, "non-finite iterate"),
            ("value", 0.25, "non-finite objective value"),
            ("gradient", 0.25, "non-finite gradient"),
        ],
    )
    def test_first_non_finite_quantity_is_named(
        self, monkeypatch, poison, step, message
    ):
        def square(x):
            return float(x @ x) if poison != "value" or x[0] > 0.3 else np.nan

        def square_gradient(x):
            return 2.0 * x if x[0] > 0.3 else np.full(1, np.nan)

        if poison == "ramp":
            objectives = one_objective(1, lambda x: float(-x[0]), lambda x: -np.ones(1))
        else:
            objectives = one_objective(1, square, square_gradient)
        x0 = np.zeros(1) if poison == "ramp" else np.ones(1)
        problem = Problem(
            objectives,
            OptimalInfo(x_star=np.zeros(1)),
            ProblemMeta(beta=None, mu_g=None, mu_l=None, m_self=None),
            x0=x0,
            spec=SPEC01,
        )
        monkeypatch.setattr(amoo.driver, "build_problem", lambda spec: problem)
        cfg = RunConfig(
            problem=SPEC01,
            weighting=WeightingChoice(kind="ew"),
            inner=GDConfig(step=step),
            steps=10,
        )
        with pytest.raises(NumericError) as err:
            run(cfg)
        trace = err.value.payload
        assert trace.error == f"step 2: {message}"
        assert str(err.value) == trace.error
        assert trace.steps == [0, 1]
        assert np.isfinite(trace.f).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_x0_fails_at_step_0(self, bad):
        with pytest.raises(NumericError) as err:
            spec_run(WeightingChoice(kind="ew"), x0=(1.0, bad))
        trace = err.value.payload
        assert str(err.value) == trace.error == "step 0: non-finite iterate"
        assert trace.steps == [] and trace.f.shape == trace.w.shape == (0, 2)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_iterate_whose_square_overflows_is_finite(self):
        # x'x overflows at entries near 1e160, but every entry is finite, and
        # with H = 1e-300 I so are the values and the gradient.
        spec = ProblemSpec(kind="quad_family", h_list=(((1e-300, 0.0), (0.0, 1e-300)),))
        trace = run(
            RunConfig(spec, WeightingChoice(kind="ew"), GDConfig(step=1.0), 3, x0=(1e160, -2e160))
        )
        assert trace.error is None and trace.residual == [math.inf] * 4
        assert trace.final().f[0] == pytest.approx(5e20)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_gradient_whose_square_overflows_is_recorded(self):
        # With H = 1e160 I at (1, 1), f = 2e160 and g = (2e160, 2e160): g·g
        # overflows, the gradient is finite, and grad_norm is its overflowed norm.
        spec = ProblemSpec(kind="quad_family", h_list=(((1e160, 0.0), (0.0, 1e160)),))
        cfg = RunConfig(spec, WeightingChoice(kind="ew"), GDConfig(step=1.0), 0, x0=(1.0, 1.0))
        record = run(cfg).final()
        assert record.f[0] == 2e160
        assert record.grad_norm == math.inf == float(np.linalg.norm([2e160, 2e160]))

    def test_non_finite_weights_end_the_run_at_the_gradient_check(self, monkeypatch):
        # NaN weights make the weighted gradient the first non-finite quantity.
        # The weight rule is patched to return them: the settings that once
        # made the PAMOO ascent do so (an infinite gram_tau) are now rejected.
        nan_weights = lambda gaps, *_, **__: np.full(len(gaps), np.nan)  # noqa: E731
        monkeypatch.setattr(amoo.driver, "pamoo_weights", nan_weights)
        wc = WeightingChoice(kind="pamoo")
        with pytest.raises(NumericError) as err:
            spec_run(wc, steps=5)
        trace = err.value.payload
        assert str(err.value) == trace.error == "step 0: non-finite gradient"
        assert trace.steps == []


def run_reference(cfg):
    """The descent loop as first written, picking the weight rule inside the
    loop on every step; returns (f, w, grad_norm, residual, lambda_min_est,
    pu_gap) per record.  The diagonal estimate of call k is seeded with the
    run's mixed Hutchinson seed plus k."""
    problem = build(cfg.problem)
    objs = problem.objectives
    m = objs.m
    wc = cfg.weighting
    x = np.array(cfg.x0 if cfg.x0 is not None else problem.x0, dtype=np.float64)
    if wc.hutchinson is not None:
        hseed = int(
            np.random.SeedSequence([cfg.seed, wc.hutchinson.rng_seed]).generate_state(1)[0]
        )
    const_w = None
    if wc.kind == "ew":
        const_w = equal_weights(m)
    elif wc.kind == "fixed":
        const_w = np.array(wc.weights, dtype=np.float64)
    scale = float(m) if wc.kind == "camoo" and cfg.camoo_lr_scale_by_m else 1.0
    inner_step = cfg.inner.step * scale
    adam_state = adam_init(x) if isinstance(cfg.inner, AdamConfig) else None
    cuts = cols = None
    records = []
    for k in range(cfg.steps + 1):
        fvals = objs.values(x)
        J = objs.gradients(x)
        lambda_est = gap = None
        if const_w is not None:
            w = const_w
        elif wc.kind == "camoo" and wc.camoo.mode == "exact-eigen":
            result = solve_camoo_exact(objs.hessians(x), wc.camoo, warm=cuts)
            w, cuts = result.weights, result.cuts
            lambda_est, gap = result.value, result.gap
        elif wc.kind == "camoo":
            if wc.hutchinson is not None:
                hcfg = replace(wc.hutchinson, rng_seed=hseed + k)
                diag = diag_hessian_matrix(objs, x, hcfg)
            else:
                diag = np.stack([np.diagonal(H) for H in objs.hessians(x)])
            # Column generation from the previous step's columns.
            if cols is None:
                cols = [int(np.argmin(equal_weights(m) @ diag))]
            while True:
                w, t, y = max_min_weights(diag[:, cols], wc.camoo.w_min)
                curv = w @ diag
                j = int(np.argmin(curv))
                gap = t - curv[j]
                if gap <= 1e-12 * (1.0 + abs(t)) or j in cols:
                    break
                cols = cols + [j]
            cols = [c for c, yc in zip(cols, y) if yc > 0]
            gap = max(float(gap), 0.0)
            lambda_est = float(curv[j])
        else:
            w = pamoo_weights(*pamoo_context(fvals, J), wc.pamoo)
        g = weighted_gradient(J, w)
        if k % cfg.record_every == 0 or k == cfg.steps:
            res = float(np.linalg.norm(x - problem.optimum.x_star))
            records.append(
                (fvals, np.array(w), float(np.linalg.norm(g)), res, lambda_est, gap)
            )
        if k == cfg.steps:
            break
        if adam_state is None:
            x = step_gd(x, g, inner_step)
        else:
            adam_state, x = step_adam(adam_state, g, inner_step)
    return records


SELECTION3 = ProblemSpec(kind="selection", delta=0.1, m=3, n=2)
SMALL_MLP = ProblemSpec(
    kind="mlp_matching", variant="selection", input_dim=4, hidden=5,
    output_dim=3, dataset_size=6, seed=2,
)
REFERENCE_CASES = {
    "ew": (SPEC01, WeightingChoice(kind="ew"), {}),
    "fixed": (
        SELECTION3, WeightingChoice(kind="fixed", weights=(0.5, 0.3, 0.2)), {}
    ),
    "camoo-exact": (TWO_DENSE, WeightingChoice(kind="camoo"), {}),
    "camoo-exact-floor": (
        TWO_DENSE, WeightingChoice(kind="camoo", camoo=CamooConfig(w_min=0.2)), {}
    ),
    "camoo-diag-floor": (
        SELECTION3,
        WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear", w_min=0.2),
        ),
        {},
    ),
    "camoo-diag-hutchinson": (
        SMALL_MLP,
        WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear"),
            hutchinson=HutchinsonConfig(num_samples=3, rng_seed=1),
        ),
        {"seed": 5},
    ),
    # PAMOO takes the values as its gaps, on a problem that is not quadratic.
    "pamoo": (
        ProblemSpec(kind="local_curvature", n=2),
        WeightingChoice(kind="pamoo"),
        {},
    ),
}


def same_bits(got, want):
    if got is None or want is None:
        return got is want
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize(
    "inner", [GDConfig(step=0.05), AdamConfig(step=0.01)], ids=["gd", "adam"]
)
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_run_matches_reference_loop(case, inner):
    problem, weighting, extra = REFERENCE_CASES[case]
    cfg = RunConfig(
        problem=problem, weighting=weighting, inner=inner, steps=25, **extra
    )
    trace = run(cfg)
    want = run_reference(cfg)
    assert len(trace.steps) == len(want) == 26
    names = ("f", "w", "grad_norm", "residual", "lambda_min_est", "pu_gap")
    for i, ref in enumerate(want):
        for name, expected in zip(names, ref):
            assert same_bits(getattr(trace, name)[i], expected), (name, trace.steps[i])


@pytest.mark.parametrize("variant", ["selection", "local_curvature"])
def test_diagonal_camoo_run_matches_reference_kernel(monkeypatch, variant):
    # The Hessian diagonal skips exactly-zero terms; a whole run must not
    # move a bit against the full per-objective form.
    cfg = RunConfig(
        problem=ProblemSpec(kind="mlp_matching", variant=variant),
        weighting=WeightingChoice(
            kind="camoo",
            camoo=CamooConfig(mode="diagonal-bilinear"),
        ),
        inner=AdamConfig(step=5e-3),
        steps=200,
        record_every=1,
    )
    trace = run(cfg)

    evaluate = _TwoLayerMatching.evaluate

    def with_reference_diag(model, theta):
        fvals, J, _, hessians = evaluate(model, theta)
        ref = [mlp_objective_reference(model, theta, k)[2] for k in range(model.m)]
        return fvals, J, lambda: np.stack(ref), hessians

    monkeypatch.setattr(_TwoLayerMatching, "evaluate", with_reference_diag)
    want = run(cfg)
    assert len(trace.steps) == len(want.steps) == 201
    assert trace.f.tobytes() == want.f.tobytes() and trace.w.tobytes() == want.w.tobytes()
    for name in ("lambda_min_est", "pu_gap"):
        assert same_bits(getattr(trace, name), getattr(want, name)), name


def test_package_exports_the_run_front_door():
    # What a caller of ``run`` constructs, reads or catches; the rest is
    # imported from its module.
    assert set(amoo.__all__) == {
        "run",
        "RunConfig",
        "WeightingChoice",
        "GDConfig",
        "AdamConfig",
        "CamooConfig",
        "PamooConfig",
        "HutchinsonConfig",
        "ProblemSpec",
        "RunTrace",
        "IterateRecord",
        "ConfigurationError",
        "NumericError",
    }
    for name in amoo.__all__:
        assert getattr(amoo, name) is not None, name
