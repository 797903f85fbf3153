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
  multipliers are the column player's q; ``solve_bilinear_pu`` runs the
  game's predictive entropic primal-dual dynamics instead, to a certified
  duality gap,
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
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .core import Array, NumericError, as_vector
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
    mode solves to a certified gap and diagonal mode exactly.  The ``pu_*``
    fields configure only ``solve_bilinear_pu``, which no run calls, so a run
    config cannot set them.
    """

    mode: str = MODE_EXACT
    w_min: float = 0.0
    pu_iterations: int = 100
    pu_tau: float = 0.01

    def __post_init__(self):
        if self.mode not in (MODE_EXACT, MODE_DIAGONAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.w_min < np.inf:
            raise ValueError("w_min must be finite and nonnegative")
        if not 0 <= self.pu_tau < np.inf:
            raise ValueError("pu_tau must be finite and nonnegative")
        if self.pu_iterations < 1:
            raise ValueError("pu_iterations must be positive")


@dataclass(frozen=True)
class PamooConfig:
    """Settings for the Polyak-style weight optimizer, whose solve is exact.
    ``iterations`` is read by nothing, and a run config cannot set it."""

    iterations: int = 200
    clip_floor: float = 1e-6
    gram_tau: float = 1e-4

    def __post_init__(self):
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
    """An approximate equilibrium of max_w min_q w'Aq with a certified gap.

    ``gap`` is max_i (Aq)_i - min_j (A'w)_j, which is zero exactly at a
    saddle point and upper-bounds the suboptimality of both players.
    ``iterations`` is the number of primal-dual iterations the game ran.
    """

    w: Array
    q: Array
    gap: float
    value: float
    iterations: int


def solve_bilinear_pu(
    A, cfg: CamooConfig | None = None, gap_target: float | None = None
) -> BilinearSolution:
    """Approximately solve max_{w in simplex} min_{q in simplex} w'Aq.

    Runs predictive (extragradient) entropic primal-dual updates from
    uniform play, with step 1 / (2 max_ij |A_ij| + tau) and optional
    entropic regularization of strength tau.  Every 64 iterations, and at
    the last, the running average of the midpoint iterates, the last
    iterates and the tail average are candidate solutions; the pair with the
    smallest certified duality gap so far is returned.  ``gap_target``
    enables early exit once that gap is at or below the target.
    """
    cfg = cfg or CamooConfig()
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"payoff matrix must be 2-D, got shape {A.shape}")
    # max |A_ij| is NaN or inf exactly when A has a non-finite entry.
    amax = np.abs(A).max(initial=0.0)
    if not np.isfinite(amax):
        raise ValueError("payoff matrix has non-finite entries")
    m, n = A.shape
    w, q = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    if amax == 0.0:  # uniform play solves a zero game
        return BilinearSolution(w, q, 0.0, 0.0, 0)
    eta = 1.0 / (2.0 * amax + cfg.pu_tau)
    expo = 1.0 - eta * cfg.pu_tau
    Aeta = eta * A
    neg_AetaT = np.ascontiguousarray(-Aeta.T)
    w_acc, q_acc = np.zeros(m), np.zeros(n)
    tail_start = 0
    best = None
    for t in range(cfg.pu_iterations):
        base_w, base_q = (w, q) if expo == 1.0 else (w**expo, q**expo)
        # Half step from the current payoffs, full step from the midpoint's;
        # each is base * exp(payoffs), normalised.
        wb = np.exp(Aeta @ q)
        wb *= base_w
        wb /= wb.sum()
        qb = np.exp(neg_AetaT @ w)
        qb *= base_q
        qb /= qb.sum()
        w = np.exp(Aeta @ qb)
        w *= base_w
        w /= w.sum()
        q = np.exp(neg_AetaT @ wb)
        q *= base_q
        q /= q.sum()
        w_acc += wb
        q_acc += qb
        # Before the first restart the tail average is the running average.
        if tail_start:
            tail_w += wb
            tail_q += qb
        done = t + 1
        if done % 64 and done < cfg.pu_iterations:
            continue
        cands = [(w_acc / done, q_acc / done), (w, q)]
        if tail_start:
            span = done - tail_start
            cands.append((tail_w / span, tail_q / span))
        for wc, qc in cands:
            gap = float(np.max(A @ qc) - np.min(A.T @ wc))
            if best is None or gap < best[0]:
                best = (gap, wc, qc)
        if gap_target is not None and best[0] <= gap_target:
            break
        # Restart the tail window once it spans half the history, so the tail
        # average forgets the transient.
        if done - tail_start >= max(tail_start, 256):
            tail_w, tail_q = np.zeros(m), np.zeros(n)
            tail_start = done
    gap, w, q = best
    return BilinearSolution(w, q, gap, float(w @ A @ q), done)


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
def _bases(n: int, m: int) -> Array:
    """The candidate bases of a max-min LP with n cuts and m weights, as a
    read-only (C(n + m, m) - 1, m + 1) array of row indices: each m-subset
    of the n + m inequality rows, then the equality row n + m.  The last
    subset, all floors, is left out: no row of it holds t, so it is singular.
    """
    subsets = list(itertools.combinations(range(n + m), m))[:-1]
    out = np.array([(*s, n + m) for s in subsets], dtype=np.intp).reshape(-1, m + 1)
    out.flags.writeable = False
    return out


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
    rows = np.zeros((n + m + 1, m + 1))
    rows[:n, :m] = C.T / scale
    rows[:n, m] = -1.0
    rows[n:-1, :m] = np.eye(m)
    rows[-1, :m] = 1.0
    rhs = np.zeros(n + m + 1)
    rhs[n:] = w_min
    rhs[-1] = 1.0
    tight = _bases(n, m)
    B = rows[tight]
    try:
        inv = np.linalg.inv(B)
        singular = False
    except np.linalg.LinAlgError:
        # Tied or shifted cuts make some bases singular: set them aside.
        singular = np.linalg.det(B) == 0.0
        B[singular] = np.eye(m + 1)
        inv = np.linalg.inv(B)
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
        cuts = np.vstack([cuts[y > 0], v])
        C = np.hstack([C[:, y > 0], np.einsum("ijk,j,k->i", stack, v, v)[:, None]])
    return CamooResult(best_w, float(best_val), lps, gap <= tol, gap, cuts[y > 0])


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
    if not np.isfinite(D).all():
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


# The most objectives ``pamoo_weights`` solves for: it solves 2^m systems.  One
# solve took 0.08 ms at m = 3, 12 ms at m = 12 and 60 ms at m = 14 (timeit,
# 2-vCPU x86-64, OpenBLAS on one thread).
PAMOO_MAX_M = 12

# The KKT residual, relative to max |gaps| + max |Q| floor, that certifies a
# PAMOO solve.  Rounding leaves about 1e-16 |Q| |w| (up to 7.8e-11 in criterion
# 10); an unbounded problem leaves gaps'd / sum(d) for its direction d, and so
# does the w of order 1/eps of a system singular to rounding.
PAMOO_KKT_TOL = 1e-6


def pamoo_context(fvals, J, f_star) -> tuple[Array, Array]:
    """``(gaps, gram)`` at one iterate: gaps_i = f_i(x) - f_i(x*) from the
    values ``fvals``, and the Gram matrix J J' of the (m, n) gradients ``J``."""
    fvals = as_vector(fvals, name="fvals")
    f_star = as_vector(f_star, len(fvals), "f_star")
    J = np.asarray(J, dtype=np.float64)
    return fvals - f_star, J @ J.T


def pamoo_weights(gaps, gram, cfg: PamooConfig | None = None) -> Array:
    """Maximize phi(w) = 2 w'gaps - w'Qw over w >= clip_floor, Q = G + tau I,
    where ``gaps`` and the m x m symmetric PSD ``gram`` G are what
    ``pamoo_context`` returns.

    Exact: each of the 2^m sets of weights held at the floor (m at most
    PAMOO_MAX_M) gives the system Qw = gaps on the free rows, w = floor on the
    held ones, all solved in one batch, exactly singular ones set aside.  The
    solution on the floored orthant with the largest phi is the maximum, when
    there is one.  Its KKT residual (|gaps - Qw| where w > floor, gaps - Qw
    where w = floor) certifies it; above PAMOO_KKT_TOL, phi is unbounded, or
    nearly so (tau is 0 and the gaps grow along a nonnegative null direction
    of G), and NumericError is raised, as for a non-finite ``gram``.
    """
    cfg = cfg or PamooConfig()
    gaps = as_vector(gaps, name="gaps")
    if not np.all(np.isfinite(gaps)):
        raise ValueError("gaps must be finite")
    m = len(gaps)
    if np.shape(gram) != (m, m):
        raise ValueError(f"gram shape {np.shape(gram)} does not match {m} gaps")
    if m > PAMOO_MAX_M:
        raise ValueError(f"PAMOO solves at most {PAMOO_MAX_M} objectives, got {m}")
    if not np.isfinite(gram).all():  # J J' of large finite gradients overflows
        raise NumericError("PAMOO Gram matrix has non-finite entries")
    gram = check_symmetric(gram, tol=1e-8)
    evals = np.linalg.eigvalsh(gram)
    if evals[0] < -1e-10 * (1.0 + np.abs(evals).max()):
        raise ValueError(f"gram matrix is not PSD: min eigenvalue {evals[0]}")

    Q = gram + cfg.gram_tau * np.eye(m)
    floor = cfg.clip_floor
    # All held first: a tie goes to the weights set exactly to the floor.
    held = (np.arange(2**m)[::-1, None] >> np.arange(m) & 1).astype(bool)
    A = np.where(held[:, :, None], np.eye(m), Q)
    # slogdet's sign is 0 exactly at a zero pivot, where det may underflow.
    singular = np.linalg.slogdet(A)[0] == 0.0
    A[singular] = np.eye(m)
    w = np.linalg.solve(A, np.where(held, floor, gaps)[:, :, None])[:, :, 0]
    w[held] = floor
    # phi with (Qw)_i = gaps_i on the free rows, not the rounding of w'Qw.
    phi = np.where(held, floor * (2.0 * gaps - w @ Q), w * gaps).sum(axis=1)
    phi[singular | ~(w >= floor).all(axis=1) | np.isnan(phi)] = -np.inf
    w = w[int(np.argmax(phi))]
    r = gaps - Q @ w
    kkt = float(np.where(w > floor, np.abs(r), np.maximum(r, 0.0)).max())
    if not kkt <= PAMOO_KKT_TOL * (np.abs(gaps).max() + np.abs(Q).max() * floor):
        raise NumericError(f"PAMOO inner problem is unbounded: KKT residual {kkt:.3g}")
    return w
