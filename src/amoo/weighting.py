"""Weight optimizers for scalarizing aligned objectives.

Three families:

* equal weights (the uniform baseline),
* curvature-adaptive weights that maximize the smallest eigenvalue of the
  weighted Hessian over a (floored) simplex.  Both modes solve max-min
  linear programs over a growing set of cuts with ``max_min_weights`` and
  return a ``CamooResult``: on full Hessians the cuts are v'H_i v at
  eigenvectors (``solve_camoo_exact``, Kelley's cutting planes to a
  certified gap), on Hessian diagonals the columns of the diagonals
  (``solve_camoo_diagonal``, column generation exact to rounding).  The
  matrix game max_w min_q w'Aq is the LP ``max_min_weights(A)``, whose
  multipliers are the column player's q,
* Polyak-style weights that maximize 2 w'gaps - w'(G + tau I)w over the
  floored orthant, exactly, over which weights sit on the floor.

Solvers are deterministic single-threaded state machines; warm starts are
passed in explicitly by the caller.  Every rule returns its weights as a
float64 array on its own set: the simplex, the floored simplex, or the
clipped orthant.
"""

import functools
import itertools
import math
from dataclasses import InitVar, dataclass

import numpy as np
from scipy import optimize

from .core import Array, NumericError, _finite, as_vector
from .linalg import (
    check_symmetric,
    hessian_stack,
    min_eigenpair_unchecked,
    spectral_norm,
)

MODE_EXACT = "exact-eigen"
MODE_DIAGONAL = "diagonal-bilinear"


@dataclass(frozen=True)
class CamooConfig:
    """Settings for the curvature-adaptive weight optimizer.

    ``w_min`` is the simplex floor (0 keeps the full simplex, the
    theory-driven value is mu_G / (8 m beta)).  Neither mode has knobs: exact
    mode solves to a certified gap and diagonal mode exactly.  The
    constructor still takes ``pu_iterations`` and ``pu_tau``, with which the
    benchmark (``perfbench``) builds its CAMOO config, and stores neither.
    """

    mode: str = MODE_EXACT
    w_min: float = 0.0
    pu_iterations: InitVar[int] = 100
    pu_tau: InitVar[float] = 0.01

    def __post_init__(self, pu_iterations, pu_tau):
        if self.mode not in (MODE_EXACT, MODE_DIAGONAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.w_min < np.inf:
            raise ValueError("w_min must be finite and nonnegative")


@dataclass(frozen=True)
class PamooConfig:
    """Settings for the Polyak-style weight optimizer, whose solve is exact.
    The constructor still takes ``iterations``, with which the benchmark
    builds its PAMOO config, and stores it nowhere."""

    iterations: InitVar[int] = 200
    clip_floor: float = 1e-6
    gram_tau: float = 1e-4

    def __post_init__(self, iterations):
        if not 0 <= self.clip_floor < np.inf:
            raise ValueError("clip_floor must be finite and nonnegative")
        if not 0 <= self.gram_tau < np.inf:
            raise ValueError("gram_tau must be finite and nonnegative")


def equal_weights(m: int) -> Array:
    """Uniform simplex weights (1/m, ..., 1/m)."""
    if m < 1:
        raise ValueError("need at least one objective")
    return np.full(m, 1.0 / m)


# ---------------------------------------------------------------------------
# Max-min bilinear game on simplices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearSolution:
    """An equilibrium of max_w min_q w'Aq with its certified gap.

    ``gap`` is max_i (Aq)_i - min_j (A'w)_j, which is zero exactly at a
    saddle point and upper-bounds the suboptimality of both players; it is
    clamped at 0, since rounding alone can make the difference negative.
    """

    w: Array
    q: Array
    gap: float
    value: float


def solve_bilinear_pu(A, cfg: CamooConfig | None = None) -> BilinearSolution:
    """Solve max_{w in simplex} min_{q in simplex} w'Aq exactly: the game is
    the LP ``max_min_weights(A)``, whose multipliers are q.

    The name and ``cfg``, which is not read, are kept only because the
    benchmark (``perfbench``) wraps and calls this function.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"payoff matrix must be 2-D, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("payoff matrix has non-finite entries")
    w, value, q = max_min_weights(A)
    gap = max(float(np.max(A @ q) - np.min(A.T @ w)), 0.0)
    return BilinearSolution(w, q, gap, value)


# ---------------------------------------------------------------------------
# Curvature-adaptive weights
# ---------------------------------------------------------------------------


# The most LPs one exact solve runs before it stops unconverged; a cold solve on
# 12 x 12 Hessians takes 11-36 at m = 3 and 67-116 at m = 8.
MAX_CUTS = 200


# The most candidate bases, C(K + m, m) for K cuts, that ``max_min_weights``
# enumerates; a larger LP goes to HiGHS.  On a 2-vCPU x86-64 machine (timeit,
# OpenBLAS) 454 bases at m = 3 took 0.43 ms and 83 bases 0.1 ms, and 494 at
# m = 8 took 1.4 ms, against 1.5-1.7 ms for one HiGHS call.
CLOSED_FORM_BASES = 500


@functools.lru_cache(maxsize=64)
def _lp_layout(n: int, m: int) -> tuple[Array, Array, Array]:
    """What a max-min LP with n cuts and m weights holds besides C, built once
    per shape: its rows over (w, t) with the C block zero; its candidate
    bases, each m-subset of the n + m inequality rows but the all-floor one
    (no row of it holds t), then the equality row n + m; and the identity
    stack whose solve inverts every basis, one system per basis as
    ``_solve_batch`` takes them.  Read-only: ``lru_cache`` hands the same
    arrays to every caller, so a write would reach every later LP of that shape.
    """
    rows = np.zeros((n + m + 1, m + 1))
    rows[:n, m] = -1.0
    rows[n:-1, :m] = np.eye(m)
    rows[-1, :m] = 1.0
    subsets = list(itertools.combinations(range(n + m), m))[:-1]
    tight = np.array([(*s, n + m) for s in subsets], dtype=np.intp).reshape(-1, m + 1)
    rows.flags.writeable = tight.flags.writeable = False
    return rows, tight, np.broadcast_to(np.eye(m + 1), (len(tight), m + 1, m + 1))


def _solve_batch(A: Array, b: Array) -> tuple[Array, Array]:
    """``np.linalg.solve(A, b)`` over a (k, n, n) batch of square systems, and
    the (k,) mask of those that are exactly singular, which are solved with
    the identity in their place.  slogdet's sign is 0 exactly at a zero pivot
    of the LU factorization, where ``solve`` fails and det may underflow.
    """
    try:
        return np.linalg.solve(A, b), np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(A)[0] == 0.0
        A = np.where(singular[:, None, None], np.eye(A.shape[-1]), A)
        return np.linalg.solve(A, b), singular


def _max_min_vertex(C: Array, w_min: float) -> tuple[Array, float, Array] | None:
    """``max_min_weights`` by enumerating the LP's vertex bases, or None if
    no basis is optimal to rounding.

    A basis makes m of the K cut and m floor inequalities tight besides
    sum w = 1: one (m + 1)-square system B (w, t) = b.  The multipliers u of
    its rows solve B'u = -e_t, and u >= 0 on the inequality rows is dual
    feasibility.  A basis that is primal and dual feasible is optimal, with
    u as its certificate (Shapley & Snow 1950 read a matrix game's optimal
    strategies off such a square submatrix).
    """
    m, n = C.shape
    scale = np.abs(C).max(initial=0.0) or 1.0
    # Rows over (w, t): C_k'w - t >= 0, w_i >= w_min, then sum w = 1.
    template, tight, eye = _lp_layout(n, m)
    rows = template.copy()
    rows[:n, :m] = C.T / scale
    rhs = np.zeros(n + m + 1)
    rhs[n:-1] = w_min
    rhs[-1] = 1.0
    # Tied or shifted cuts make some bases singular: they are set aside.
    inv, singular = _solve_batch(rows[tight], eye)
    x = (inv @ rhs[tight][:, :, None])[:, :, 0]
    u = -inv[:, m, :m]
    # The least slack of each basis's point and multipliers: >= 0 iff optimal.
    worst = np.minimum((x @ rows[:-1].T - rhs[:-1]).min(axis=1), u.min(axis=1))
    worst[singular | np.isnan(worst)] = -np.inf
    best = int(np.argmax(worst))
    if not worst[best] >= -1e-9:
        return None
    is_cut = tight[best, :m] < n
    y = np.zeros(n)
    y[tight[best, :m][is_cut]] = np.maximum(u[best][is_cut], 0.0)
    return x[best, :m], float(x[best, m] * scale), y / y.sum()


def max_min_weights(C, w_min: float = 0.0) -> tuple[Array, float, Array]:
    """Maximize min_k (C'w)_k over {w >= w_min, sum w = 1}, ``C`` of shape
    (m, K); return its weights, its value t and the K multipliers of
    (C'w)_k >= t, which are nonnegative and sum to 1.

    An LP with at most CLOSED_FORM_BASES candidate vertex bases is solved by
    enumerating them all in one batched inverse; a larger one, or one whose
    bases all miss optimality by more than rounding, by one HiGHS linear
    program.
    """
    C = np.asarray(C, dtype=np.float64)
    m, n = C.shape
    if math.comb(n + m, m) <= CLOSED_FORM_BASES:
        found = _max_min_vertex(C, w_min)
        if found is not None:
            return found
    # Variables (w, t): maximize t subject to C'w >= t, w on the floored simplex.
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-C.T, np.ones((n, 1))])
    a_eq = np.hstack([np.ones((1, m)), np.zeros((1, 1))])
    bounds = [(w_min, None)] * m + [(None, None)]
    res = optimize.linprog(c, a_ub, np.zeros(n), a_eq, [1.0], bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"max-min weights LP failed: {res.message}")
    return res.x[:m], float(res.x[m]), -res.ineqlin.marginals


@dataclass(frozen=True)
class CamooResult:
    """CAMOO weights with their certificate, from either mode.

    ``value`` is the curvature at ``weights`` and ``gap`` >= 0 bounds how far
    it lies below the maximum.  ``iterations`` counts the LPs solved.
    ``cuts`` are the cuts with a positive multiplier at the last LP (never
    empty), the warm start of a later solve: unit directions in exact mode,
    column indices of D in diagonal mode.
    """

    weights: Array
    value: float
    iterations: int
    converged: bool
    gap: float
    cuts: Array


def solve_camoo_exact(
    hessians, cfg: CamooConfig | None = None, warm: Array | None = None
) -> CamooResult:
    """Maximize lambda_min(sum_i w_i H_i) over the floored simplex by
    Kelley's cutting planes.

    Each unit v cuts lambda_min(sum_i w_i H_i) <= sum_i w_i v'H_i v.  Each
    round solves the max-min LP over the kept cuts: its multipliers bound
    the maximum from above, and the smallest eigenpair at its weights gives
    a lower bound and the next cut.  The next round keeps only the cuts with
    a positive multiplier, so for m <= 5 every LP takes ``max_min_weights``'
    closed form.  The solve stops once the gap is at most
    1e-7 max_i ||H_i||_2 (HiGHS's feasibility tolerance), or unconverged
    after MAX_CUTS LPs.  ``warm`` is an earlier result's ``cuts``; the cold
    first cut is the smallest eigenvector at equal weights.
    """
    cfg = cfg or CamooConfig()
    stack = hessian_stack(hessians)
    m, n = stack.shape[:2]
    if m * cfg.w_min > 1.0 + 1e-12:
        raise ValueError(f"floor infeasible: m*w_min = {m * cfg.w_min}")
    tol = 1e-7 * max(spectral_norm(H) for H in stack)

    if warm is None:
        centre = np.einsum("i,ijk->jk", equal_weights(m), stack)
        warm = min_eigenpair_unchecked(centre)[1][None]
    cuts = np.asarray(warm, dtype=np.float64)
    if cuts.ndim != 2 or cuts.shape[1] != n or not len(cuts):
        raise ValueError(f"warm cuts must be a (k, {n}) array, got {cuts.shape}")
    norms = np.linalg.norm(cuts, axis=1, keepdims=True)
    if not (np.isfinite(norms).all() and norms.all()):
        raise ValueError("warm cuts must be finite and nonzero")
    cuts = cuts / norms

    C = np.einsum("ijk,pj,pk->ip", stack, cuts, cuts)
    slack, best_val = 1.0 - m * cfg.w_min, -np.inf
    for lps in range(1, MAX_CUTS + 1):
        w, _, y = max_min_weights(C, cfg.w_min)
        # For multipliers y >= 0 summing to 1, min_k (C'w)_k <= w'Cy for every
        # w, and w'Cy is largest at a vertex of the floored simplex.
        y = np.maximum(y, 0.0)
        kept = y > 0
        g = C @ (y / y.sum())
        upper = cfg.w_min * g.sum() + slack * g.max()
        lam, v = min_eigenpair_unchecked(np.einsum("i,ijk->jk", w, stack))
        if lam > best_val:
            best_val, best_w = lam, w
        gap = max(float(upper - best_val), 0.0)
        if gap <= tol or lps == MAX_CUTS:
            break
        # Keep the cuts with a positive multiplier, plus the new one: the LP's
        # (w, t, y) stays optimal without the rest, so the upper bound never
        # rises.  best_val keeps the best lower bound; a stall ends at MAX_CUTS.
        # A vertex has at most m positive multipliers, so K <= m + 1.
        cut = np.einsum("ijk,j,k->i", stack, v, v)[:, None]
        cuts = np.concatenate([cuts[kept], v[None]])
        C = np.concatenate([C[:, kept], cut], axis=1)
    return CamooResult(best_w, float(best_val), lps, gap <= tol, gap, cuts[kept])


def solve_camoo_diagonal(
    D, cfg: CamooConfig | None = None, warm: Array | None = None
) -> CamooResult:
    """Maximize min_k (w'D)_k over the floored simplex, ``D`` the (m, n)
    Hessian diagonals, by column generation (Gilmore & Gomory 1961).

    Each round solves the max-min LP over a few columns of D and adds the
    most violated column.  ``gap``, the LP's value t minus min_k (w'D)_k, is
    exact to rounding; the solve stops once it is at most 1e-12 (1 + |t|),
    or unconverged when the most violated column is already in the LP.
    ``warm`` is an earlier result's ``cuts``; the cold first column is the
    least curved at equal weights.
    """
    cfg = cfg or CamooConfig()
    D = np.asarray(D, dtype=np.float64)
    m, n = D.shape
    if not _finite(D):
        raise ValueError("Hessian diagonals have non-finite entries")
    if m * cfg.w_min > 1.0 + 1e-12:
        raise ValueError(f"floor infeasible: m*w_min = {m * cfg.w_min}")
    if warm is None:
        cols = [int(np.argmin(equal_weights(m) @ D))]
    else:
        cols = np.ravel(warm).tolist()
        if not cols or min(cols) < 0 or max(cols) >= n:
            raise ValueError(f"warm columns must be indices below {n}, got {warm}")
    for lps in itertools.count(1):
        w, t, y = max_min_weights(D[:, cols], cfg.w_min)
        curv = w @ D
        j = int(np.argmin(curv))
        gap = t - curv[j]
        converged = bool(gap <= 1e-12 * (1.0 + abs(t)))
        if converged or j in cols:
            break
        cols = [*cols, j]
    cuts = np.array([k for k, yk in zip(cols, y) if yk > 0], dtype=np.intp)
    return CamooResult(w, float(curv[j]), lps, converged, max(float(gap), 0.0), cuts)


# ---------------------------------------------------------------------------
# Polyak-style weights
# ---------------------------------------------------------------------------


# The most objectives ``pamoo_weights`` solves for: a cold solve enumerates 2^m
# systems.  It took 0.035 ms at m = 3, 9.9 ms at m = 12 and 52 ms at m = 14, and
# a warm solve whose hint holds 0.020-0.026 ms (timeit, 2-vCPU x86-64, OpenBLAS
# on one thread; ``pamoo_weights``' checks add 0.02 ms at m = 3).
PAMOO_MAX_M = 12

# The KKT residual, relative to max |gaps| + max |Q| floor, plus the smallest
# normal float, that certifies a PAMOO solve.  Rounding leaves about 1e-16 |Q|
# |w| (up to 7.8e-11 in criterion 10) and, once the gaps are subnormal, up to
# 9.5e-310; an unbounded problem leaves gaps'd / sum(d) for its direction d,
# and so does the w of order 1/eps of a system singular to rounding.
PAMOO_KKT_TOL = 1e-6


def pamoo_context(fvals, J) -> tuple[Array, Array]:
    """``(gaps, gram)`` at one iterate: gaps_i = f_i(x), since every objective
    is 0 at its own minimum, and the Gram matrix J J' of the (m, n)
    gradients ``J``, exactly symmetric: numpy forms A A' by one BLAS syrk."""
    J = np.asarray(J, dtype=np.float64)
    return as_vector(fvals, name="fvals"), J @ J.T


@functools.lru_cache(maxsize=PAMOO_MAX_M)
def _held_sets(m: int) -> tuple[Array, Array]:
    """PAMOO's 2^m floor-held sets as a (2^m, m) mask, all held first, so that
    a tie goes to the weights set exactly to the floor, and the m x m identity;
    built once per m and read-only, as ``_lp_layout``'s arrays are."""
    held, eye = (np.arange(2**m)[::-1, None] >> np.arange(m) & 1).astype(bool), np.eye(m)
    held.flags.writeable = eye.flags.writeable = False
    return held, eye


def pamoo_weights(gaps, gram, cfg: PamooConfig | None = None) -> Array:
    """Maximize phi(w) = 2 w'gaps - w'Qw over w >= clip_floor, Q = G + tau I,
    where ``gaps`` and the m x m symmetric PSD ``gram`` G are what
    ``pamoo_context`` returns.  Every input is checked, a non-finite ``gram``
    raising NumericError, and ``_pamoo_solve`` solves exactly without a hint.
    """
    cfg = cfg or PamooConfig()
    gaps = as_vector(gaps, name="gaps")
    if not _finite(gaps):
        raise ValueError("gaps must be finite")
    m = len(gaps)
    if np.shape(gram) != (m, m):
        raise ValueError(f"gram shape {np.shape(gram)} does not match {m} gaps")
    if m > PAMOO_MAX_M:
        raise ValueError(f"PAMOO solves at most {PAMOO_MAX_M} objectives, got {m}")
    if not _finite(gram):  # J J' of large finite gradients overflows
        raise NumericError("PAMOO Gram matrix has non-finite entries")
    gram = check_symmetric(gram, tol=1e-8)
    evals = np.linalg.eigvalsh(gram)
    if evals[0] < -1e-10 * (1.0 + np.abs(evals).max()):
        raise ValueError(f"gram matrix is not PSD: min eigenvalue {evals[0]}")
    return _pamoo_solve(gaps, gram, cfg)[0]


def _pamoo_solve(gaps, gram, cfg: PamooConfig, held: int | None = None) -> tuple[Array, int]:
    """``pamoo_weights``' maximum and its set's index in ``_held_sets``, for
    finite gaps and a finite, exactly symmetric PSD ``gram``, unchecked.  The
    hint ``held`` is solved alone and kept under strict complementarity (free
    weights above the floor, gaps - Qw below 0 on held rows), which makes it
    the maximum.  Else each set's system, Qw = gaps on its free rows and
    w = floor on its held ones, is solved in one batch, exactly singular ones
    set aside, and the largest phi on the floored orthant wins.  Either answer
    must pass the KKT test, or the hint's falls through too; above PAMOO_KKT_TOL
    the residual means phi is unbounded, or nearly so (tau is 0 and the gaps
    grow along a nonnegative null direction of G): NumericError.
    """
    sets, eye = _held_sets(len(gaps))
    Q = gram + cfg.gram_tau * eye
    floor = cfg.clip_floor
    tol = PAMOO_KKT_TOL * (np.abs(gaps).max() + np.abs(Q).max() * floor)
    tol += np.finfo(float).tiny
    if held is not None:
        h = sets[held]
        try:
            w = np.linalg.solve(np.where(h[:, None], eye, Q), np.where(h, floor, gaps))
        except np.linalg.LinAlgError:  # exactly singular
            w = np.full(len(gaps), np.nan)
        w[h] = floor
        r = gaps - Q @ w
        strict = (np.where(h, r, floor - w) < 0.0).all()
    # Under strict complementarity the KKT residual is |gaps - Qw| on free rows.
    if held is None or not (strict and np.abs(r[~h]).max(initial=0.0) <= tol):
        A = np.where(sets[:, :, None], eye, Q)
        w, singular = _solve_batch(A, np.where(sets, floor, gaps)[:, :, None])
        w = w[:, :, 0]
        w[sets] = floor
        # phi with (Qw)_i = gaps_i on the free rows, not the rounding of w'Qw.
        phi = np.where(sets, floor * (2.0 * gaps - w @ Q), w * gaps).sum(axis=1)
        phi[singular | ~(w >= floor).all(axis=1) | np.isnan(phi)] = -np.inf
        held = int(np.argmax(phi))
        w = w[held]
        r = gaps - Q @ w
        kkt = float(np.where(w > floor, np.abs(r), np.maximum(r, 0.0)).max())
        if not kkt <= tol:
            raise NumericError(f"PAMOO inner problem is unbounded: KKT residual {kkt:.3g}")
    return w, held
