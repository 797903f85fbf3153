"""Numerical verification of the convergence guarantees at desk scale.

The residual recurrences behind the convergence proofs are simulated at
equality and compared against their closed-form two-phase bounds; run
traces are checked against the theorem rate envelopes; empirical
contraction factors are fitted from trace tails; and the continuity of the
best weighted curvature under diagonal Hessian approximation is stress
tested on random positive-definite instances.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ObjectiveSet, UnsupportedQueryError, as_vector
from .linalg import min_eigenpair, spectral_norm, weighted_hessian
from .weighting import solve_camoo_diagonal, solve_camoo_exact

CAMOO = "CAMOO"
PAMOO = "PAMOO"
# Each rule's envelope constants (c_lin, c_geo): pre-phase slope mu^1.5 /
# (c_lin beta^2 sqrt(m) M), squared geometric factor 1 - 3 mu / (c_geo beta).
ENVELOPE_CONSTANTS = {CAMOO: (16.0, 8.0), PAMOO: (64.0, 32.0)}


# ---------------------------------------------------------------------------
# Residual recurrences
# ---------------------------------------------------------------------------


def _envelope(steps, values, k0, r0, slope, factor, plateau=0.0):
    """The two-phase rate envelope at the ascending ``steps``: the line
    r0 - slope k before k0, then geometric decay by ``factor`` per step from
    the anchor, the value at the first step at or past k0, plus ``plateau``."""
    past = steps >= k0
    i = int(np.argmax(past))
    decay = values[i] * factor ** np.maximum(steps - steps[i], 0) + plateau
    return np.where(past, decay, r0 - slope * steps)


@dataclass(frozen=True)
class RecurrenceParams:
    """Coefficients of the residual recurrence r_{k+1}^2 <= r_k^2 - a1 r_k^2/(1 + a2 r_k) [+ a3 + a4 r_k]."""

    alpha1: float
    alpha2: float
    alpha3: float = 0.0
    alpha4: float = 0.0
    r0: float = 1.0
    horizon: int = 100

    def __post_init__(self):
        if not 0.0 <= self.alpha1 < 2.0:
            raise ValueError(f"alpha1 must lie in [0, 2), got {self.alpha1}")
        for name in ("alpha2", "alpha3", "alpha4", "r0"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")


def max_admissible_noise(alpha1: float, alpha2: float) -> tuple[float, float]:
    """Largest (alpha3, alpha4) the perturbed recurrence bound admits.

    For alpha2 > 0: alpha3 <= alpha1^2/(256 alpha2^2), alpha4 <= alpha1/(4 alpha2).
    At alpha2 = 0 the additive bound term 2 alpha4/(alpha1 alpha2) forces
    alpha4 = 0 and alpha3 is conventionally capped as if alpha2 were 1.
    """
    if alpha2 > 0:
        return alpha1**2 / (256.0 * alpha2**2), alpha1 / (4.0 * alpha2)
    return alpha1**2 / 256.0, 0.0


def recurrence_simulate_and_bound(p: RecurrenceParams, variant: str = "exact"):
    """Simulate the recurrence at equality and evaluate its closed-form bound.

    Returns (r, b, holds): the simulated sequence, the bound sequence, and
    whether r_k <= b_k + 1e-12 everywhere.  The bound has a linear phase up
    to k0 (vacuous whenever r0 <= 1/alpha2) and a geometric phase with
    per-step squared factor (1 - alpha1/2), plus, in the perturbed variant,
    a plateau sqrt(2 alpha3/alpha1 + 2 alpha4/(alpha1 alpha2)).  It simulates
    on Python floats: numpy scalars' IEEE operations at a fraction of the cost.
    """
    if variant not in ("exact", "eps"):
        raise ValueError(f"variant must be 'exact' or 'eps', got {variant!r}")
    a1, a2, a3, a4 = p.alpha1, p.alpha2, p.alpha3, p.alpha4
    if variant == "exact":
        a3 = a4 = 0.0
        k0 = math.ceil(4.0 * (p.r0 * a2 - 1.0) / a1) if a1 > 0 else 0
        slope = a1 / (4.0 * a2) if a2 > 0 else 0.0
    else:
        if a1 <= 0.0:
            raise ValueError("eps variant requires alpha1 > 0")
        a3_max, a4_max = max_admissible_noise(a1, a2)
        if a2 > 0 and a3 > a3_max * (1 + 1e-12):
            raise ValueError(
                f"alpha3 = {a3} exceeds the admissible alpha1^2/(256 alpha2^2) = {a3_max}"
            )
        if a2 > 0 and a4 > a4_max * (1 + 1e-12):
            raise ValueError(
                f"alpha4 = {a4} exceeds the admissible alpha1/(4 alpha2) = {a4_max}"
            )
        if a2 == 0 and a4 > 0:
            raise ValueError("alpha4 must be 0 when alpha2 = 0")
        k0 = math.ceil(16.0 * (p.r0 * a2 - 1.0) / a1)
        slope = a1 / (16.0 * a2) if a2 > 0 else 0.0
    k0 = max(k0, 0)

    c1, c2, c3, c4, rk = (float(v) for v in (a1, a2, a3, a4, p.r0))
    seq = [rk]
    for _ in range(p.horizon):
        r2 = rk * rk * (1.0 - c1 / (1.0 + c2 * rk)) + c3 + c4 * rk
        rk = math.sqrt(max(r2, 0.0))
        seq.append(rk)
    r = np.array(seq)

    plateau = 0.0
    if variant == "eps":
        plateau = math.sqrt(
            2.0 * a3 / a1 + (2.0 * a4 / (a1 * a2) if a2 > 0 else 0.0)
        )
    factor = math.sqrt(max(1.0 - a1 / 2.0, 0.0))
    b = _envelope(np.arange(p.horizon + 1), r, k0, p.r0, slope, factor, plateau)
    holds = bool(np.all(r <= b + 1e-12))
    return r, b, holds


# ---------------------------------------------------------------------------
# Theorem rate envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremParams:
    """Constants entering a convergence-rate envelope for one run."""

    beta: float
    mu: float
    m_self: float
    m: int
    r0: float
    which: str = CAMOO

    def __post_init__(self):
        if not 0 < self.beta < math.inf:  # each test fails on NaN
            raise ValueError("beta must be finite and positive")
        if not 0 < self.mu <= self.beta:
            raise ValueError(
                f"mu must satisfy 0 < mu <= beta, got mu={self.mu}, beta={self.beta}"
            )
        for name in ("m_self", "r0"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.which not in (CAMOO, PAMOO):
            raise ValueError(f"which must be CAMOO or PAMOO, got {self.which!r}")


def _theorem_envelope(tp: TheoremParams) -> tuple[int, float, float]:
    """The envelope's (k0, slope, factor): its pre-phase length, the slope of
    its line before k0 (0 without a pre-phase, where it is never read) and
    its per-step geometric factor.  mu^1.5 / beta^2 is formed as (mu / beta)
    (sqrt(mu) / beta), and k0's beta / mu^1.5 as (beta / mu) / sqrt(mu), so
    no power of beta or mu leaves the float range on the way.  Constants
    that put k0 at +inf or NaN, or the slope or factor out of the float
    range, are a ValueError naming them."""
    c_lin, c_geo = ENVELOPE_CONSTANTS[tp.which]
    factor = math.sqrt(max(1.0 - (3.0 / c_geo) * (tp.mu / tp.beta), 0.0))
    k0 = slope = 0.0
    if tp.m_self > 0:
        root_mu = math.sqrt(tp.mu)
        root = tp.r0 * 3.0 * math.sqrt(tp.m) * tp.beta * tp.m_self
        k0 = c_lin * (tp.beta / tp.mu) * ((root - root_mu) / (3.0 * root_mu))
        if k0 > 0:  # no divisor is 0: mu, beta > 0, c_lin sqrt(m) m_self >= 16 * 5e-324
            lin = c_lin * math.sqrt(tp.m) * tp.m_self
            slope = (tp.mu / tp.beta) * (root_mu / tp.beta) / lin
    named = f"beta={tp.beta}, mu={tp.mu}, m_self={tp.m_self}"
    if not k0 < math.inf:  # NaN fails too
        raise ValueError(f"k0 = {k0} is not finite for {named}")
    if not (slope < math.inf and factor >= 0.0):
        raise ValueError(f"the envelope leaves the float range at {named}")
    return math.ceil(max(k0, 0.0)), slope, factor


def theorem_bound_check(trace, tp: TheoremParams) -> bool:
    """Check the residuals of a ``RunTrace`` against the convergence-rate
    envelope, to within 1e-12 (1 + r0).

    The geometric phase (per-step squared factor 1 - 3 mu / (8 beta) or
    1 - 3 mu / (32 beta)) anchors at the first recorded step at or past k0,
    and that residual must itself lie on or below the line at the last
    pre-phase step, r0 - slope max(k0 - 1, 0); with ``m_self`` zero the
    pre-phase is vacuous, k0 = 0 and the anchor is at most r0.  The bound's
    exponent counts half steps, i.e. factor^((k - k0)/2) on the residual.
    NaN and infinite residuals fail; an infinite k0, or a slope or factor
    out of the float range, is a ValueError that names the constants.
    """
    pairs = trace.residuals()
    if not pairs:
        raise ValueError("trace carries no residuals")
    steps = np.array([s for s, _ in pairs], dtype=np.int64)
    res = np.array([r for _, r in pairs], dtype=np.float64)
    k0, slope, factor = _theorem_envelope(tp)
    anchored = steps >= k0
    if not np.any(anchored):
        raise ValueError(f"no recorded step reaches k0 = {k0}")
    tol = 1e-12 * (1.0 + tp.r0)
    bound = _envelope(steps, res, k0, tp.r0, slope, factor)
    anchor = res[np.argmax(anchored)]
    line_end = tp.r0 - slope * max(k0 - 1, 0)
    # An inf residual fails under an inf bound too; NaN fails both tests.
    within = (res <= bound + tol) & (res < math.inf)
    return bool(np.all(within) and anchor <= line_end + tol)


# ---------------------------------------------------------------------------
# Empirical rate estimation
# ---------------------------------------------------------------------------


def fit_rate(trace) -> float:
    """Per-step contraction factor fitted on the tail of a ``RunTrace``.

    Least-squares slope of log residual against step index over the last
    half of the residuals recorded before the first one at or below zero,
    exponentiated.  A run that converges exactly has no rate after that
    point, so a trace that reaches 0 early raises for want of 10 tail
    records; a NaN or infinite residual in the tail raises too.
    """
    pairs = trace.residuals()
    stop = next((i for i, (_, r) in enumerate(pairs) if r <= 0.0), len(pairs))
    tail = pairs[stop // 2 : stop]
    if len(tail) < 10:
        raise ValueError(f"need at least 10 tail records, have {len(tail)}")
    steps = np.array([s for s, _ in tail], dtype=np.float64)
    res = np.array([r for _, r in tail], dtype=np.float64)
    if not np.isfinite(res).all():
        raise ValueError("the tail holds a NaN or infinite residual")
    slope = np.polyfit(steps, np.log(res), 1)[0]
    return float(np.exp(slope))


# ---------------------------------------------------------------------------
# Curvature inequality checks
# ---------------------------------------------------------------------------


def _omega_lower(t: float) -> float:
    return t * t / (2.0 * (1.0 + t))


def self_concordance_check(objectives: ObjectiveSet, x, y, m_self: float) -> bool:
    """Check f_i(y) >= f_i(x) + <grad f_i(x), y - x> + curvature term for
    every objective i of the set, to within 1e-10 (1 + |f_i(y)|).

    The curvature term is (1/M^2) * omega(M t) with t the Hessian-metric
    distance ||y - x|| at x and omega(s) = s^2 / (2 (1 + s)); at M = 0 it
    degenerates to the quadratic t^2 / 2.
    """
    if m_self < 0:
        raise ValueError("m_self must be nonnegative")
    if not objectives.has_hessians:
        raise UnsupportedQueryError("the self-concordance check needs the set's Hessians")
    x = as_vector(x, objectives.dim)
    y = as_vector(y, objectives.dim)
    d = y - x
    fx, J, _, hessians = objectives.evaluate(x)
    fy = objectives.evaluate(y)[0]
    for H, f0, g, f1 in zip(hessians(), fx, J, fy):
        t = math.sqrt(max(float(d @ H @ d), 0.0))
        if m_self == 0.0:
            curv = 0.5 * t * t
        else:
            curv = _omega_lower(m_self * t) / (m_self * m_self)
        lhs = float(f1)
        if not lhs >= float(f0) + float(g @ d) + curv - 1e-10 * (1.0 + abs(lhs)):
            return False
    return True


def weyl_degradation_suite(seed: int = 0, trials: int = 100) -> dict:
    """Stress-test curvature degradation under diagonal Hessian approximation.

    Each trial draws random positive-definite matrices and takes the
    certified optimum of the weighted curvature over full matrices: the value
    plus gap of ``solve_camoo_exact``, an upper bound on the true maximum.
    It then takes the weights that diagonal-mode runs would use,
    ``solve_camoo_diagonal`` on the diagonals alone, and asserts that the
    full-matrix curvature of those weights falls below that optimum by at
    most twice the largest off-diagonal spectral norm.  Returns a
    JSON-serializable report.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        mats = []
        for _ in range(m):
            B = rng.normal(size=(n, n))
            H = B @ B.T / n + np.diag(rng.uniform(0.1, 1.0, size=n))
            mats.append(H)
        exact = solve_camoo_exact(mats)
        optimum = exact.value + exact.gap
        deviation = max(spectral_norm(H - np.diag(np.diagonal(H))) for H in mats)
        w_hat = solve_camoo_diagonal(np.stack([np.diagonal(H) for H in mats])).weights
        achieved, _ = min_eigenpair(weighted_hessian(mats, w_hat))
        ok = achieved >= optimum - 2.0 * deviation - 1e-9
        if not ok:
            failures.append(
                {
                    "trial": trial,
                    "achieved": achieved,
                    "optimum": optimum,
                    "deviation": deviation,
                }
            )
    return {
        "trials": trials,
        "passes": trials - len(failures),
        "failures": failures,
        "seed": seed,
    }
