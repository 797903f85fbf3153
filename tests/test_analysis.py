"""Recurrence bounds, rate envelopes, rate fitting, curvature degradation."""

import math
import re

import numpy as np
import pytest

from amoo import analysis, weighting
from amoo.analysis import (
    ENVELOPE_CONSTANTS,
    RecurrenceParams,
    TheoremParams,
    _envelope,
    _theorem_envelope,
    fit_rate,
    max_admissible_noise,
    recurrence_simulate_and_bound,
    self_concordance_check,
    theorem_bound_check,
    weyl_degradation_suite,
)
from amoo.driver import (
    GDConfig,
    RunConfig,
    RunTrace,
    WeightingChoice,
    run,
    theory_camoo,
)
from amoo.core import ObjectiveSet, UnsupportedQueryError
from amoo.linalg import min_eigenpair, weighted_hessian
from amoo.weighting import max_min_weights
from amoo.problems import ProblemSpec, build
from grid_oracle import grid_max_min_eig
from objective_sets import one_objective
from traces import column_trace


def residual_trace(pairs) -> RunTrace:
    """A run trace whose rows carry the given (step, residual) pairs."""
    pairs = list(pairs)
    ones = np.ones((len(pairs), 1))
    return column_trace(
        [k for k, _ in pairs], ones, ones,
        grad_norm=[0.0] * len(pairs), residual=[r for _, r in pairs],
    )


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
            r0=trace.residual[0], which="CAMOO",
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
        k0 = _theorem_envelope(tp)[0]
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

    def test_anchor_above_r0_fails_without_pre_phase(self):
        # k0 = 0: the geometric phase anchors at the first residual, which
        # must not exceed r0 however fast the trace decays from it.
        tp = TheoremParams(beta=2.0, mu=1.0, m_self=0.0, m=2, r0=1.0)
        assert not theorem_bound_check(residual_trace([(0, 5.0), (1, 4.0)]), tp)
        assert theorem_bound_check(residual_trace([(0, 1.0), (1, 0.9)]), tp)

    def test_anchor_above_the_line_fails_after_a_gap(self):
        # The records before k0 lie on the line, but the first one past it
        # lies above the line at k0 - 1.
        tp = TheoremParams(beta=2.0, mu=1.0, m_self=0.5, m=2, r0=10.0)
        k0, slope, _ = envelope_constants(tp)
        line_end = tp.r0 - slope * (k0 - 1)
        pairs = [(0, tp.r0), (k0 + 5, line_end)]
        assert theorem_bound_check(residual_trace(pairs), tp)
        pairs[1] = (k0 + 5, line_end * (1 + 1e-9))
        assert not theorem_bound_check(residual_trace(pairs), tp)


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

    @pytest.mark.parametrize("which", ["CAMOO", "PAMOO"])
    def test_k0_beyond_the_float_range_rejected(self, which):
        # beta 1e200 against mu 1e-100: k0 overflows to inf.
        tp = TheoremParams(beta=1e200, mu=1e-100, m_self=1.0, m=2, r0=1.0, which=which)
        with pytest.raises(ValueError, match="k0 = inf is not finite"):
            _theorem_envelope(tp)
        with pytest.raises(ValueError, match="k0"):
            theorem_bound_check(residual_trace([(0, 1.0), (1, 0.5)]), tp)
        # At -inf the geometric phase starts at step 0.
        tp = TheoremParams(beta=1e300, mu=1e-100, m_self=1e-300, m=2, r0=1e-100)
        assert _theorem_envelope(tp)[0] == 0

    @pytest.mark.parametrize(
        "beta, mu, m_self, message",
        [
            # (beta / mu) / sqrt(mu) overflows, so k0 is inf
            (1.0, 1e-217, 1.0, "k0 = inf is not finite for"),
        ],
    )
    def test_envelope_out_of_the_float_range_rejected(self, beta, mu, m_self, message):
        tp = TheoremParams(beta=beta, mu=mu, m_self=m_self, m=2, r0=1.0)
        named = f"beta={beta}, mu={mu}, m_self={m_self}"
        with pytest.raises(ValueError, match=re.escape(f"{message} {named}")):
            _theorem_envelope(tp)
        with pytest.raises(ValueError, match=re.escape(f"{message} {named}")):
            theorem_bound_check(residual_trace([(0, 1.0), (1, 0.5)]), tp)

    def test_largest_constants_give_a_verdict(self):
        # 3 mu / (8 beta) once made inf / inf here; (3 / 8) (mu / beta) is
        # 3 / 8, and the factor is sqrt(5 / 8).
        tp = TheoremParams(beta=1e308, mu=1e308, m_self=0.0, m=2, r0=1.0)
        assert _theorem_envelope(tp) == (0, 0.0, math.sqrt(0.625))
        # One step of the decay allows 0.7906 of r0.
        assert theorem_bound_check(residual_trace([(0, 1.0), (1, 0.79)]), tp)
        assert not theorem_bound_check(residual_trace([(0, 1.0), (1, 0.8)]), tp)

    @pytest.mark.parametrize(
        "beta, mu, m_self, k0, slope",
        [
            (1e160, 1e160, 2.6e-81, 1, 0.16997759163138),
            (1e160, 1e160, 1e-70, 226274169975, 4.419417382415921e-12),
            (1e210, 1e206, 1.0, 2.2627416997969518e112, 4.419417382415922e-113),
        ],
        ids=["k0-1", "k0-2e11", "k0-2e112"],
    )
    def test_no_power_of_beta_or_mu_is_formed(self, beta, mu, m_self, k0, slope):
        # Each set once raised "leaves the float range": beta**2 (the first
        # two) or mu**1.5 (the third) overflowed on the way to a finite k0
        # and slope.
        tp = TheoremParams(beta=beta, mu=mu, m_self=m_self, m=2, r0=1.0)
        got_k0, got_slope, _ = _theorem_envelope(tp)
        assert got_k0 == pytest.approx(k0, rel=1e-15)
        assert got_slope == pytest.approx(slope, rel=1e-12)
        pairs = [(0, 1.0), (1, 0.8), (2, 0.6)]
        if k0 == 1:  # on the line at step 0, then within the decay
            assert theorem_bound_check(residual_trace(pairs), tp)
        else:
            with pytest.raises(ValueError, match="no recorded step reaches k0"):
                theorem_bound_check(residual_trace(pairs), tp)

    def test_no_pre_phase_forms_no_slope(self):
        # k0 is 0 (its numerator is negative), so the envelope never reads
        # the slope.
        tp = TheoremParams(beta=1e200, mu=1e-100, m_self=1e-300, m=2, r0=1.0)
        assert _theorem_envelope(tp)[0] == 0
        assert theorem_bound_check(residual_trace([(0, 1.0), (1, 0.5)]), tp)
        assert not theorem_bound_check(residual_trace([(0, 1.0), (1, 2.0)]), tp)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", ["beta", "m_self", "r0"])
    def test_non_finite_or_negative_constant_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TheoremParams(**{**self.CONSTANTS, name: value})


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: RecurrenceParams(0.5, 1.0, horizon=0), "horizon must be positive"),
            (
                lambda: recurrence_simulate_and_bound(RecurrenceParams(0.5, 1.0), "loose"),
                "variant must be 'exact' or 'eps', got 'loose'",
            ),
            (
                lambda: recurrence_simulate_and_bound(RecurrenceParams(0.0, 1.0), "eps"),
                "eps variant requires alpha1 > 0",
            ),
            (
                lambda: recurrence_simulate_and_bound(
                    RecurrenceParams(0.5, 0.0, alpha4=0.1), "eps"
                ),
                "alpha4 must be 0 when alpha2 = 0",
            ),
            (lambda: TheoremParams(2.0, 1.0, 0.0, m=0, r0=1.0), "m must be at least 1"),
            (
                lambda: TheoremParams(2.0, 1.0, 0.0, 2, 1.0, which="EW"),
                "which must be CAMOO or PAMOO, got 'EW'",
            ),
            (
                # k0 = 35: a trace that stops at step 20 never reaches it.
                lambda: theorem_bound_check(
                    residual_trace([(k, 1.0) for k in range(21)]),
                    TheoremParams(2.0, 1.0, 0.5, 2, 1.0),
                ),
                "no recorded step reaches k0 = 35",
            ),
            (lambda: weyl_degradation_suite(trials=0), "trials must be positive"),
        ],
        ids=[
            "horizon", "variant", "eps-alpha1", "eps-alpha4", "m", "which",
            "k0-unreached", "trials",
        ],
    )
    def test_message(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


def envelope_constants(tp: TheoremParams):
    """(k0, slope, factor) of the envelope of ``tp``; slope 0 without a pre-phase."""
    c_lin, c_geo = ENVELOPE_CONSTANTS[tp.which]
    factor = math.sqrt(max(1.0 - (3.0 / c_geo) * (tp.mu / tp.beta), 0.0))
    slope = 0.0
    if tp.m_self > 0:
        root_mu = math.sqrt(tp.mu)
        slope = (tp.mu / tp.beta) * (root_mu / tp.beta) / (c_lin * math.sqrt(tp.m) * tp.m_self)
    return _theorem_envelope(tp)[0], slope, factor


def loop_theorem_check(steps, res, tp: TheoremParams, slack: float = 1e-12):
    """The envelope check as a loop over records, the form it had before the
    envelope was shared: (bounds, verdict).  It has no anchor rule."""
    k0, slope, factor = envelope_constants(tp)
    anchor_idx = int(np.argmax(steps >= k0))
    anchor_step = int(steps[anchor_idx])
    r_anchor = float(res[anchor_idx])
    tol = slack * (1.0 + tp.r0)
    bounds, holds = [], True
    for k, r in zip(steps, res):
        if k < k0:
            bound = tp.r0 - slope * k
        else:
            bound = r_anchor * factor ** (k - anchor_step)
        bounds.append(bound)
        if not (r <= bound + tol and r < math.inf):
            holds = False
    return np.array(bounds, dtype=np.float64), holds


def where_recurrence_bound(p: RecurrenceParams, variant: str) -> np.ndarray:
    """The recurrence's bound as the one np.where it was before the envelope
    was shared."""
    a1, a2, a3, a4 = p.alpha1, p.alpha2, p.alpha3, p.alpha4
    c = 4.0 if variant == "exact" else 16.0
    k0 = max(math.ceil(c * (p.r0 * a2 - 1.0) / a1) if a1 > 0 else 0, 0)
    slope = a1 / (c * a2) if a2 > 0 else 0.0
    plateau = 0.0
    if variant == "eps":
        plateau = math.sqrt(2.0 * a3 / a1 + (2.0 * a4 / (a1 * a2) if a2 > 0 else 0.0))
    factor = math.sqrt(max(1.0 - a1 / 2.0, 0.0))
    r = numpy_scalar_recurrence(p, variant)
    ks = np.arange(p.horizon + 1)
    return np.where(
        ks < k0,
        p.r0 - slope * ks,
        r[min(k0, p.horizon)] * factor ** np.maximum(ks - k0, 0) + plateau,
    )


class TestSharedEnvelope:
    def test_recurrence_bound_bitwise_equal_to_where_form(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            a1 = rng.uniform(0.01, 1.99)
            a2 = rng.choice([0.0, rng.uniform(0.0, 10.0)])
            a3, a4 = (0.5 * v for v in max_admissible_noise(a1, a2))
            # r0 up to 100 puts k0 past the horizon on some draws.
            p = RecurrenceParams(
                alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4,
                r0=rng.uniform(0.0, 100.0), horizon=int(rng.integers(1, 300)),
            )
            for variant in ("exact", "eps"):
                _, b, _ = recurrence_simulate_and_bound(p, variant)
                assert b.tobytes() == where_recurrence_bound(p, variant).tobytes()

    def test_theorem_bound_matches_the_loop_on_random_traces(self):
        rng = np.random.default_rng(34)
        seen = {"pre-phase": 0, "anchor above": 0, "non-finite": 0, "holds": 0}
        for _ in range(400):
            beta = rng.uniform(0.5, 5.0)
            tp = TheoremParams(
                beta=beta, mu=beta * rng.uniform(0.05, 1.0),
                m_self=rng.choice([0.0, rng.uniform(0.001, 0.05)]),
                m=int(rng.integers(1, 5)), r0=rng.uniform(0.1, 10.0),
                which=str(rng.choice(["CAMOO", "PAMOO"])),
            )
            k0, slope, factor = envelope_constants(tp)
            # Sorted steps with gaps of 1 to 5; all but step 0 move up so
            # that the last one reaches k0.
            steps = np.cumsum(np.r_[0, rng.integers(1, 6, size=rng.integers(1, 40))])
            steps += max(k0 - int(steps[-1]), 0) * (steps > 0)
            past = steps >= k0
            a = int(np.argmax(past))
            line_end = tp.r0 - slope * max(k0 - 1, 0)
            # Residuals inside the envelope, anchored above the line on about
            # half the draws; then one record may overshoot or be NaN or inf.
            anchor = line_end * rng.uniform(0.9, 1.1)
            decay = anchor * factor ** (steps - steps[a])
            env = np.where(past, decay, tp.r0 - slope * steps)
            res = env * rng.uniform(0.5, 1.0, size=len(steps))
            res[a] = anchor
            j = rng.integers(len(steps))
            res[j] = rng.choice(
                [res[j], 1.5 * res[j], math.nan, math.inf], p=[0.5, 0.3, 0.1, 0.1]
            )
            loop_bounds, loop_holds = loop_theorem_check(steps, res, tp)
            bounds = _envelope(steps, res, k0, tp.r0, slope, factor)
            # numpy's scalar power squares exactly at exponent 2, and its
            # array power may differ there by one ulp: every other bound
            # keeps its bytes.
            two = steps - steps[a] == 2
            assert bounds[~two].tobytes() == loop_bounds[~two].tobytes()
            np.testing.assert_allclose(
                bounds[two], loop_bounds[two], rtol=np.finfo(float).eps, atol=0
            )
            holds = theorem_bound_check(residual_trace(zip(steps, res)), tp)
            if res[a] <= line_end:
                assert holds == loop_holds
            else:
                assert not holds
            seen["pre-phase"] += k0 > 0
            seen["anchor above"] += bool(res[a] > line_end)
            seen["non-finite"] += not np.isfinite(res).all()
            seen["holds"] += holds
        assert min(seen.values()) >= 40, seen


class TestFitRate:
    def test_geometric_sequence(self):
        pairs = [(k, 0.9**k) for k in range(40)]
        assert fit_rate(residual_trace(pairs)) == pytest.approx(0.9, abs=1e-6)

    def test_constant_sequence(self):
        pairs = [(k, 0.3) for k in range(30)]
        assert fit_rate(residual_trace(pairs)) == pytest.approx(1.0, abs=1e-12)

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
        assert fit_rate(trace) == pytest.approx(0.75, abs=0.01)

    def test_needs_ten_tail_records(self):
        with pytest.raises(ValueError, match="10"):
            fit_rate(residual_trace((k, 0.5) for k in range(5)))

    def test_fits_the_tail_before_the_first_zero(self):
        # 30 decaying residuals, then the run sits at 0: the fit takes the
        # last half of the 30, not of all 60.
        pairs = [(k, 0.9**k) for k in range(30)] + [(k, 0.0) for k in range(30, 60)]
        assert fit_rate(residual_trace(pairs)) == pytest.approx(0.9, abs=1e-6)
        assert fit_rate(residual_trace(pairs[:30])) == fit_rate(residual_trace(pairs))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_a_nonfinite_tail_residual(self, bad):
        pairs = [(k, 0.9**k) for k in range(30)]
        pairs[25] = (25, bad)
        with pytest.raises(ValueError, match="NaN or infinite"):
            fit_rate(residual_trace(pairs))
        # Before the tail, the same value is never fitted.
        pairs[25], pairs[5] = (25, 0.9**25), (5, bad)
        assert fit_rate(residual_trace(pairs)) == pytest.approx(0.9, abs=1e-6)

    def test_trace_at_zero_from_step_one_has_no_rate(self):
        # Diagonal CAMOO at GD 0.5 selects the well-conditioned objective of
        # `selection` and lands on x* = 0 in one step.
        spec = ProblemSpec(kind="selection", delta=0.1, m=3, n=4)
        trace = run(
            RunConfig(
                problem=spec, weighting=WeightingChoice(kind="camoo"),
                inner=GDConfig(step=0.5), steps=50, camoo_lr_scale_by_m=False,
            )
        )
        assert [r for _, r in trace.residuals()[:2]] == [2.0, 0.0]
        with pytest.raises(ValueError, match="need at least 10 tail records, have 1"):
            fit_rate(trace)


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

    def test_one_pass_at_x(self, monkeypatch):
        # x's values, gradients and Hessians come from one pass, and y's
        # values from another; ObjectiveSet.hessians is never called.
        objs = build(ProblemSpec(kind="local_curvature", n=2)).objectives
        points = []
        evaluate = ObjectiveSet.evaluate

        def counted(self, x):
            points.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(ObjectiveSet, "evaluate", counted)
        monkeypatch.setattr(ObjectiveSet, "hessians", lambda *a: pytest.fail("hessians"))
        x, y = np.array([0.3, -0.2]), np.array([1.0, 0.5])
        assert self_concordance_check(objs, x, y, m_self=1.0)
        assert [p.tobytes() for p in points] == [x.tobytes(), y.tobytes()]

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            self_concordance_check(self.EXP, [0.0], [1.0], m_self=-1.0)

    def test_a_set_without_hessians_is_rejected(self):
        first_order = one_objective(1, lambda x: float(x[0] ** 2), lambda x: 2.0 * x)
        with pytest.raises(UnsupportedQueryError, match="needs the set's Hessians"):
            self_concordance_check(first_order, [0.0], [1.0], m_self=0.0)


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

    def test_weights_come_from_the_diagonal_solver(self, monkeypatch):
        solves = []

        def counted(D, cfg=None, warm=None):
            solves.append(weighting.solve_camoo_diagonal(D, cfg, warm))
            return solves[-1]

        monkeypatch.setattr(analysis, "solve_camoo_diagonal", counted)
        report = weyl_degradation_suite(seed=0, trials=100)
        assert report["passes"] == 100 and len(solves) == 100
        assert all(r.converged for r in solves)

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
