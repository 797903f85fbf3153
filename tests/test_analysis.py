"""Recurrence bounds, rate envelopes, rate fitting, curvature degradation."""

import math

import numpy as np
import pytest

from amoo.analysis import (
    RecurrenceParams,
    TheoremParams,
    fit_rate,
    max_admissible_noise,
    recurrence_simulate_and_bound,
    self_concordance_check,
    theorem_bound_check,
    weyl_degradation_suite,
)
from amoo.driver import (
    GDConfig,
    IterateRecord,
    RunConfig,
    RunTrace,
    WeightingChoice,
    run,
    theory_camoo,
)
from amoo.linalg import min_eigenpair, weighted_hessian
from amoo.weighting import max_min_weights
from amoo.problems import ProblemSpec, build
from grid_oracle import grid_max_min_eig
from objective_sets import one_objective


def residual_trace(pairs) -> RunTrace:
    """A run trace whose records carry the given (step, residual) pairs."""
    one = np.ones(1)
    records = [IterateRecord(k, one, one, 0.0, residual=r) for k, r in pairs]
    return RunTrace(records=records, config=None)


class TestRecurrence:
    def test_exact_geometric_case(self):
        p = RecurrenceParams(alpha1=0.5, alpha2=0.0, r0=1.0, horizon=10)
        r, b, holds = recurrence_simulate_and_bound(p, "exact")
        assert holds
        # alpha2 = 0: r_{k+1}^2 = (1 - alpha1) r_k^2 exactly.
        assert r[10] == pytest.approx(0.5**5, abs=1e-15)
        assert b[10] == pytest.approx(0.75**5, abs=1e-12)

    def test_exact_no_contraction(self):
        p = RecurrenceParams(alpha1=0.0, alpha2=3.0, r0=2.0, horizon=50)
        r, b, holds = recurrence_simulate_and_bound(p, "exact")
        assert holds
        np.testing.assert_allclose(r, 2.0)
        np.testing.assert_allclose(b[-1], 2.0)

    def test_exact_monotone_nonincreasing(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            p = RecurrenceParams(
                alpha1=float(rng.uniform(0.0, 1.99)),
                alpha2=float(rng.uniform(0.0, 10.0)),
                r0=float(rng.uniform(0.0, 100.0)),
                horizon=200,
            )
            r, _, holds = recurrence_simulate_and_bound(p, "exact")
            assert holds
            assert np.all(np.diff(r) <= 1e-15)

    def test_eps_plateau_value(self):
        a1, a2 = 0.5, 1.0
        a3, a4 = a1**2 / 256.0, a1 / 8.0
        p = RecurrenceParams(
            alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4, r0=4.0, horizon=500
        )
        r, b, holds = recurrence_simulate_and_bound(p, "eps")
        assert holds
        plateau = np.sqrt(2 * a3 / a1 + 2 * a4 / (a1 * a2))
        assert plateau == pytest.approx(np.sqrt(0.25390625), abs=1e-12)
        assert b[-1] >= plateau
        assert r[-1] <= plateau  # the tight simulation settles below it

    def test_eps_admissibility_enforced(self):
        with pytest.raises(ValueError, match="alpha3"):
            recurrence_simulate_and_bound(
                RecurrenceParams(alpha1=0.5, alpha2=1.0, alpha3=1.0, r0=1.0),
                "eps",
            )
        with pytest.raises(ValueError, match="alpha4"):
            recurrence_simulate_and_bound(
                RecurrenceParams(alpha1=0.5, alpha2=1.0, alpha4=1.0, r0=1.0),
                "eps",
            )

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError, match="alpha1"):
            RecurrenceParams(alpha1=2.0, alpha2=0.0)
        with pytest.raises(ValueError, match="alpha2"):
            RecurrenceParams(alpha1=0.5, alpha2=-1.0)

    def test_bound_factor_dominates_simulated_factor(self):
        # With alpha2 = 0 the bound contracts by sqrt(1 - a1/2) per step
        # while the simulation contracts by sqrt(1 - a1).
        for a1 in (0.1, 0.5, 1.0, 1.5):
            assert np.sqrt(1 - a1 / 2) >= np.sqrt(max(1 - a1, 0.0))

    def test_full_grid_both_variants(self):
        for a1 in (0.1, 0.5, 1.5):
            for a2 in (0.0, 1.0, 10.0):
                for r0 in (0.1, 1.0, 100.0):
                    p = RecurrenceParams(alpha1=a1, alpha2=a2, r0=r0, horizon=1000)
                    _, _, holds = recurrence_simulate_and_bound(p, "exact")
                    assert holds, (a1, a2, r0, "exact")
                    a3, a4 = max_admissible_noise(a1, a2)
                    p = RecurrenceParams(
                        alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4, r0=r0,
                        horizon=1000,
                    )
                    _, _, holds = recurrence_simulate_and_bound(p, "eps")
                    assert holds, (a1, a2, r0, "eps")


# The recurrence grid of `amoo verify`: 27 points, each in both variants.
VERIFY_GRID = [
    (a1, a2, r0)
    for a1 in (0.1, 0.5, 1.5)
    for a2 in (0.0, 1.0, 10.0)
    for r0 in (0.1, 1.0, 100.0)
]


def numpy_scalar_recurrence(p: RecurrenceParams, variant: str) -> np.ndarray:
    """The recurrence at equality as a loop that reads and writes numpy
    scalars: the reference whose bits the Python-float loop must match."""
    a3, a4 = (p.alpha3, p.alpha4) if variant == "eps" else (0.0, 0.0)
    r = np.empty(p.horizon + 1)
    r[0] = p.r0
    for k in range(p.horizon):
        rk = r[k]
        r2 = rk * rk * (1.0 - p.alpha1 / (1.0 + p.alpha2 * rk)) + a3 + a4 * rk
        r[k + 1] = math.sqrt(max(r2, 0.0))
    return r


class TestRecurrenceLoop:
    @pytest.mark.parametrize("variant", ["exact", "eps"])
    def test_bitwise_equal_to_numpy_scalar_loop_on_verify_grid(self, variant):
        for a1, a2, r0 in VERIFY_GRID:
            a3, a4 = max_admissible_noise(a1, a2) if variant == "eps" else (0.0, 0.0)
            p = RecurrenceParams(
                alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4, r0=r0, horizon=1000
            )
            r, _, _ = recurrence_simulate_and_bound(p, variant)
            assert r.tobytes() == numpy_scalar_recurrence(p, variant).tobytes()

    @pytest.mark.parametrize("dtype", [float, np.float64, np.float32, int])
    def test_bitwise_equal_on_random_coefficients(self, dtype):
        # numpy scalars of any width promote to float64 against the loop's
        # float64 residual; the Python-float loop must do the same.
        rng = np.random.default_rng(52)
        for _ in range(20):
            a1 = dtype(rng.uniform(0.0, 1.99))
            a2 = dtype(rng.uniform(0.0, 10.0))
            noise = max_admissible_noise(float(a1), float(a2))
            a3, a4 = (dtype(0.5 * v) for v in noise)
            p = RecurrenceParams(
                alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4,
                r0=dtype(rng.uniform(0.0, 100.0)), horizon=300,
            )
            r, _, _ = recurrence_simulate_and_bound(p, "exact")
            assert r.tobytes() == numpy_scalar_recurrence(p, "exact").tobytes()
            if a1 > 0:
                r, _, _ = recurrence_simulate_and_bound(p, "eps")
                assert r.tobytes() == numpy_scalar_recurrence(p, "eps").tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", ["alpha2", "alpha3", "alpha4", "r0"])
    def test_non_finite_or_negative_coefficient_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RecurrenceParams(**{"alpha1": 0.5, "alpha2": 1.0, name: value})


class TestTheoremBound:
    def test_holds_on_specification_theory_runs(self):
        spec = ProblemSpec(kind="specification", delta=0.1)
        built = build(spec)
        wc, inner = theory_camoo(built.meta, 2)
        trace = run(
            RunConfig(
                problem=spec, weighting=wc, inner=inner, steps=60,
                camoo_lr_scale_by_m=False, x0=(1.0, 1.0),
            )
        )
        tp = TheoremParams(
            beta=1.8, mu=1.0, m_self=0.0, m=2,
            r0=trace.records[0].residual, which="CAMOO",
        )
        assert theorem_bound_check(trace, tp)

    def test_single_record_trivially_holds(self):
        tp = TheoremParams(beta=2.0, mu=1.0, m_self=0.0, m=2, r0=1.0, which="CAMOO")
        assert theorem_bound_check(residual_trace([(0, 1.0)]), tp)

    def test_violated_by_stalled_residuals(self):
        tp = TheoremParams(beta=2.0, mu=1.0, m_self=0.0, m=2, r0=1.0, which="CAMOO")
        stalled = [(k, 1.0) for k in range(20)]
        assert not theorem_bound_check(residual_trace(stalled), tp)

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError, match="mu"):
            TheoremParams(beta=2.0, mu=20.0, m_self=0.0, m=2, r0=1.0)
        with pytest.raises(ValueError):
            TheoremParams(beta=-1.0, mu=0.5, m_self=0.0, m=2, r0=1.0)
        tp = TheoremParams(beta=2.0, mu=1.0, m_self=0.0, m=2, r0=1.0)
        with pytest.raises(ValueError, match="residual"):
            theorem_bound_check(residual_trace([]), tp)

    def test_pre_phase_with_positive_self_concordance(self):
        # Linear decrease until k0, then geometric; a synthetic trajectory
        # slightly inside the envelope must pass, one outside must fail.
        tp = TheoremParams(
            beta=2.0, mu=1.0, m_self=0.5, m=2, r0=10.0, which="CAMOO"
        )
        from amoo.analysis import theorem_k0

        k0 = theorem_k0(tp)
        assert k0 > 0
        steps = np.arange(0, k0 + 50)
        # The CAMOO envelope: r0 - slope k before k0, then a geometric decay
        # with squared factor 1 - 3 mu / (8 beta), anchored on the line at k0 - 1.
        slope = tp.mu**1.5 / (16.0 * tp.beta**2 * np.sqrt(tp.m) * tp.m_self)
        anchor = tp.r0 - slope * (k0 - 1)
        assert anchor > 0
        factor = np.sqrt(1.0 - 3.0 * tp.mu / (8.0 * tp.beta))
        env = np.where(
            steps < k0, tp.r0 - slope * steps, anchor * factor ** (steps - k0)
        )
        trace_ok = list(zip(steps.tolist(), (env * 0.999).tolist()))
        assert theorem_bound_check(residual_trace(trace_ok), tp)
        trace_bad = list(zip(steps.tolist(), (env * 1.5).tolist()))
        assert not theorem_bound_check(residual_trace(trace_bad), tp)


class TestTheoremBoundNonFinite:
    CONSTANTS = {"beta": 2.0, "mu": 1.0, "m_self": 0.0, "m": 2, "r0": 1.0}

    @pytest.mark.parametrize("m_self", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residuals_violate(self, bad, m_self):
        tp = TheoremParams(**{**self.CONSTANTS, "m_self": m_self})
        # At m_self 0.5, k0 is 35: the last record lies in the geometric phase.
        every = [(k, bad) for k in range(40)]
        assert not theorem_bound_check(residual_trace(every), tp)
        late = [(k, 0.0) for k in range(39)] + [(39, bad)]
        assert not theorem_bound_check(residual_trace(late), tp)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", ["beta", "m_self", "r0"])
    def test_non_finite_or_negative_constant_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TheoremParams(**{**self.CONSTANTS, name: value})


class TestFitRate:
    def test_geometric_sequence(self):
        pairs = [(k, 0.9**k) for k in range(40)]
        assert fit_rate(residual_trace(pairs), 0.5) == pytest.approx(0.9, abs=1e-6)

    def test_constant_sequence(self):
        pairs = [(k, 0.3) for k in range(30)]
        assert fit_rate(residual_trace(pairs), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_specification_ew_rate(self):
        spec = ProblemSpec(kind="specification", delta=0.1)
        trace = run(
            RunConfig(
                problem=spec,
                weighting=WeightingChoice(kind="ew"),
                inner=GDConfig(step=0.25),
                steps=120,
                x0=(1.0, 1.0),
            )
        )
        assert fit_rate(trace, 0.5) == pytest.approx(0.75, abs=0.01)

    def test_needs_ten_tail_records(self):
        with pytest.raises(ValueError, match="10"):
            fit_rate(residual_trace((k, 0.5) for k in range(5)), 1.0)

    def test_zero_residuals_clip_and_warn(self):
        pairs = [(k, 0.0) for k in range(20)]
        with pytest.warns(UserWarning, match="clipping"):
            rho = fit_rate(residual_trace(pairs), 1.0)
        assert 0.0 < rho <= 1.0


class TestSelfConcordance:
    EXP = one_objective(
        1,
        lambda x: float(np.exp(x[0]) - x[0]),
        lambda x: np.exp(x) - 1.0,
        lambda x: np.exp(x).reshape(1, 1),
    )

    def test_exp_inequality_holds(self):
        assert self_concordance_check(self.EXP, [0.0], [1.0], m_self=1.0)
        for x in (-1.0, 0.3, 2.0):
            for y in (-2.0, 0.0, 1.5):
                assert self_concordance_check(self.EXP, [x], [y], m_self=1.0)

    def test_quadratic_is_taylor_exact(self):
        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        quad = build(ProblemSpec(kind="quad_family", h_list=(H.tolist(),))).objectives
        rng = np.random.default_rng(51)
        for _ in range(20):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert self_concordance_check(quad, x, y, m_self=0.0)
            d = y - x
            lhs = quad.values(y)[0]
            rhs = (
                quad.values(x)[0]
                + float(quad.gradients(x)[0] @ d)
                + 0.5 * float(d @ quad.hessians(x)[0] @ d)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_every_objective_is_checked(self):
        # From 0 to 1, exp(x) - x grows faster than its quadratic bound
        # (M = 0) and its mirror exp(-x) + x slower; both hold at M = 1.
        problem = build(ProblemSpec(kind="local_curvature", n=1))
        assert self_concordance_check(self.EXP, [0.0], [1.0], m_self=0.0)
        assert not self_concordance_check(problem.objectives, [0.0], [1.0], m_self=0.0)
        assert self_concordance_check(problem.objectives, [0.0], [1.0], m_self=1.0)

    def test_same_point_equality(self):
        assert self_concordance_check(self.EXP, [0.7], [0.7], m_self=1.0)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            self_concordance_check(self.EXP, [0.0], [1.0], m_self=-1.0)


class TestWeylDegradation:
    def test_exactly_diagonal_matrices(self):
        mats = [np.diag([2.0, 0.5]), np.diag([0.3, 1.5])]
        mu_grid, _ = grid_max_min_eig(mats, step=1e-3)
        w_hat, _, _ = max_min_weights(np.stack([np.diagonal(H) for H in mats]))
        achieved, _ = min_eigenpair(weighted_hessian(mats, w_hat))
        assert achieved >= mu_grid - 1e-6

    def test_single_matrix_reduces_to_weyl(self):
        rng = np.random.default_rng(52)
        B = rng.normal(size=(4, 4))
        H = B @ B.T + np.eye(4)
        w_hat, _, _ = max_min_weights(np.diagonal(H).reshape(1, -1))
        np.testing.assert_allclose(w_hat, [1.0], atol=1e-9)
        from amoo.linalg import spectral_norm

        dev = spectral_norm(H - np.diag(np.diagonal(H)))
        lam, _ = min_eigenpair(H)
        assert lam >= lam - 2 * dev  # degenerate but type-checks the chain

    def test_hundred_seeded_trials_pass(self):
        report = weyl_degradation_suite(seed=0, trials=100)
        assert report["passes"] == 100
        assert report["failures"] == []

    def test_report_is_json_serializable(self):
        import json

        report = weyl_degradation_suite(seed=3, trials=5)
        json.dumps(report)


class TestUniqueMinimizer:
    def test_multistart_gd_agrees(self):
        # 20 seeded starting points all converge to the same point.
        for kind, kwargs in [
            ("specification", {"delta": 0.1}),
            ("selection", {"delta": 0.1, "m": 3, "n": 2}),
        ]:
            spec = ProblemSpec(kind=kind, **kwargs)
            rng = np.random.default_rng(53)
            finals = []
            for _ in range(20):
                x0 = tuple(rng.uniform(-2, 2, size=2))
                trace = run(
                    RunConfig(
                        problem=spec,
                        weighting=WeightingChoice(kind="ew"),
                        inner=GDConfig(step=0.25),
                        steps=400,
                        x0=x0,
                    )
                )
                finals.append(trace.final().residual)
            # All runs land within 1e-6 of the shared optimum, hence within
            # 2e-6 of each other.
            assert max(finals) <= 1e-6
