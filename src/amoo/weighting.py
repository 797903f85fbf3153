"""Weight optimizers for scalarizing aligned objectives.

Three families:

* equal weights (the uniform baseline),
* curvature-adaptive weights that maximize the smallest eigenvalue of the
  weighted Hessian over a (floored) simplex.  Both modes solve max-min
  linear programs over a growing set of cuts with ``max_min_weights``: on
  full Hessians the cuts are v'H_i v at eigenvectors (Kelley's cutting
  planes, to a certified gap), on Hessian diagonals the columns of the
  diagonals (column generation in ``driver``, exact to rounding).  The
  bilinear game max_w min_q w'Aq has its own solver, predictive entropic
  primal-dual updates (``solve_bilinear_pu``),
* Polyak-style weights that maximize 2 w'gaps - w'(G + tau I)w over the
  nonnegative orthant by projected gradient ascent.

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

from .core import Array, as_vector
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
    fields configure only ``solve_bilinear_pu``, the bilinear-game solver.
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
    """Settings for the Polyak-style weight optimizer."""

    step: float = 3e-3
    iterations: int = 200
    clip_floor: float = 1e-6
    gram_tau: float = 1e-4

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ValueError("step must be finite and positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= self.clip_floor < np.inf:
            raise ValueError("clip_floor must be finite and nonnegative")
        if not 0 <= self.gram_tau < np.inf:
            raise ValueError("gram_tau must be finite and nonnegative")


def equal_weights(m: int) -> Array:
    """Uniform simplex weights (1/m, ..., 1/m)."""
    if m < 1:
        raise ValueError("need at least one objective")
    return np.full(m, 1.0 / m)


def project_simplex(y) -> Array:
    """Euclidean projection onto the probability simplex."""
    y = as_vector(y, name="y")
    s = np.sort(y)[::-1]
    css = np.cumsum(s) - 1.0
    idx = np.arange(1, len(y) + 1)
    cond = s - css / idx > 0
    cond[0] = True  # true in exact arithmetic; rounding drops it near |y| = 1e16
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def project_floored_simplex(y, w_min: float) -> Array:
    """Euclidean projection onto {w : w_i >= w_min, sum w = 1}."""
    y = as_vector(y, name="y")
    m = len(y)
    if w_min < 0:
        raise ValueError("w_min must be nonnegative")
    if m * w_min > 1.0 + 1e-12:
        raise ValueError(f"floored simplex infeasible: m*w_min = {m * w_min}")
    if w_min == 0.0:
        return project_simplex(y)
    slack = 1.0 - m * w_min
    if slack <= 0.0:
        return np.full(m, w_min)
    return w_min + slack * project_simplex((y - w_min) / slack)


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
    A,
    cfg: CamooConfig | None = None,
    warm: tuple[Array, Array] | None = None,
    gap_target: float | None = None,
) -> BilinearSolution:
    """Approximately solve max_{w in simplex} min_{q in simplex} w'Aq.

    Runs predictive (extragradient) entropic primal-dual updates with step
    1 / (2 max_ij |A_ij| + tau) and optional entropic regularization of
    strength tau.  Both the running average of the midpoint iterates and the
    last iterates are candidate solutions; the pair with the smaller
    certified duality gap is returned.  ``gap_target`` enables early exit
    once a candidate certifies at or below the target.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"payoff matrix must be 2-D, got shape {A.shape}")
    m, n = A.shape
    if warm is not None:
        w0, q0 = as_vector(warm[0], m, "warm w"), as_vector(warm[1], n, "warm q")
        warm = (w0[None], q0[None])
    return solve_bilinear_pu_stack(A[None], cfg, warm, gap_target)[0]


def solve_bilinear_pu_stack(
    A,
    cfg: CamooConfig | None = None,
    warm: tuple[Array, Array] | None = None,
    gap_target: float | None = None,
) -> list[BilinearSolution]:
    """Solve G independent games, ``A`` of shape (G, m, n), as one stack.

    Each game keeps its own step, exponent and best candidate, so it gets
    the ``solve_bilinear_pu`` answer bit for bit; the tail restarts depend
    only on the iteration count.  ``warm`` is (W, Q), shapes (G, m) and
    (G, n).  A game that meets ``gap_target`` leaves the stack at that check.
    """
    cfg = cfg or CamooConfig()
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 3:
        raise ValueError(f"payoff stack must be 3-D, got shape {A.shape}")
    # max |A_ij| is NaN or inf exactly when a game has a non-finite entry.
    amax = np.abs(A).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(amax).all():
        raise ValueError("payoff matrix has non-finite entries")
    G, m, n = A.shape
    # Players are per-game column vectors: (g, m, n) @ (g, n, 1) -> (g, m, 1).
    if warm is None:
        w, q = np.full((G, m, 1), 1.0 / m), np.full((G, n, 1), 1.0 / n)
    else:
        w, q = (np.asarray(v, dtype=np.float64) for v in warm)
        if w.shape != (G, m) or q.shape != (G, n):
            raise ValueError(f"warm shapes {w.shape}, {q.shape} do not fit {A.shape}")
        w, q = np.maximum(w, 1e-300)[:, :, None], np.maximum(q, 1e-300)[:, :, None]
    out: list = [None] * G
    games = np.arange(G)
    if not amax.all():
        # Uniform play solves a zero game; it never enters the loop.
        for k in games[amax == 0.0]:
            w0, q0 = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
            out[k] = BilinearSolution(w0, q0, 0.0, 0.0, 0)
        games = games[amax > 0.0]
        A, amax, w, q = A[games], amax[games], w[games], q[games]
    if not len(games):
        return out
    eta = 1.0 / (2.0 * amax + cfg.pu_tau)
    kappa = eta * cfg.pu_tau
    # A shared exponent stays a scalar, and a lone game (one at entry, or the
    # last one live) drops the batch axis: its players are 1-D and their sums
    # scalars.  numpy's broadcasting costs more than the arithmetic on games
    # this small.
    if len(kappa) == 1 or (kappa == kappa[0]).all():
        expo = None if kappa[0] == 0.0 else float(1.0 - kappa[0])
    else:
        expo = (1.0 - kappa)[:, None, None]
    Aeta = eta[:, None, None] * A
    neg_AetaT = np.ascontiguousarray(-Aeta.transpose(0, 2, 1))
    axis, keep = 1, True
    if len(games) == 1:
        axis, keep = None, False
        A, Aeta, neg_AetaT = A[0], Aeta[0], neg_AetaT[0]
        w, q = w[0, :, 0], q[0, :, 0]
    if warm is not None:
        w = w / np.add.reduce(w, axis, keepdims=keep)
        q = q / np.add.reduce(q, axis, keepdims=keep)
    w_acc, tail_w, q_acc, tail_q = (np.zeros(v.shape) for v in (w, w, q, q))
    tail_start = 0
    best_gap = best_w = best_q = None

    def finish(rows, done: int) -> None:
        for r in rows:
            a, wo, qo, gap = (
                x[r] if axis else x for x in (A, best_w, best_q, best_gap)
            )
            wo, qo = wo.ravel(), qo.ravel()
            value = float(wo @ a @ qo)
            out[games[r]] = BilinearSolution(wo, qo, gap.item(), value, done)

    for t in range(cfg.pu_iterations):
        base_w, base_q = (w, q) if expo is None else (w**expo, q**expo)
        # Half step from the current payoffs, full step from the midpoint's;
        # each is base * exp(payoffs), normalised per game.
        wb = Aeta @ q
        np.exp(wb, out=wb)
        wb *= base_w
        wb /= np.add.reduce(wb, axis, keepdims=keep)
        qb = neg_AetaT @ w
        np.exp(qb, out=qb)
        qb *= base_q
        qb /= np.add.reduce(qb, axis, keepdims=keep)
        w = Aeta @ qb
        np.exp(w, out=w)
        w *= base_w
        w /= np.add.reduce(w, axis, keepdims=keep)
        q = neg_AetaT @ wb
        np.exp(q, out=q)
        q *= base_q
        q /= np.add.reduce(q, axis, keepdims=keep)
        w_acc += wb
        q_acc += qb
        # The tail window opens at the first restart; before it, the tail
        # average would be the running average bit for bit.
        if tail_start > 0:
            tail_w += wb
            tail_q += qb
        done = t + 1
        if done % 64 == 0 or done == cfg.pu_iterations:
            cands = [(w_acc / done, q_acc / done), (w, q)]
            if tail_start > 0:
                span = done - tail_start
                cands.append((tail_w / span, tail_q / span))
            gaps = []
            for wc, qc in cands:
                g = (A @ qc).max(axis, keepdims=keep)
                g -= (np.swapaxes(A, -1, -2) @ wc).min(axis, keepdims=keep)
                gaps.append(g)
                # Nothing writes to a candidate once it is made, so the best is
                # kept, and returned, as a view.
                better = None if best_gap is None else g < best_gap
                if better is None or better.all():
                    best_gap, best_w, best_q = g, wc, qc
                elif better.any():
                    best_gap = np.where(better, g, best_gap)
                    best_w = np.where(better, wc, best_w)
                    best_q = np.where(better, qc, best_q)
            hit = None if gap_target is None else np.min(gaps, 0).ravel() <= gap_target
            if hit is not None and hit.any():
                finish(np.flatnonzero(hit), done)
                if hit.all():
                    return out
                live = ~hit
                games = games[live]
                mats = players = live
                if len(games) == 1:
                    k = np.flatnonzero(live)[0]
                    axis, keep, mats, players = None, False, k, (k, slice(None), 0)
                A, Aeta, neg_AetaT = A[mats], Aeta[mats], neg_AetaT[mats]
                state = (w, q, w_acc, q_acc, tail_w, tail_q, best_w, best_q, best_gap)
                w, q, w_acc, q_acc, tail_w, tail_q, best_w, best_q, best_gap = (
                    x[players] for x in state
                )
                if isinstance(expo, np.ndarray):
                    expo = expo[players]
            # Restart the tail window once it spans half the history, so the
            # tail average forgets the transient.
            if done - tail_start >= max(tail_start, 256):
                tail_w, tail_q = np.zeros(w.shape), np.zeros(q.shape)
                tail_start = done

    finish(range(len(games)), cfg.pu_iterations)
    return out


# ---------------------------------------------------------------------------
# Curvature-adaptive weights
# ---------------------------------------------------------------------------


# The most LPs one exact solve runs before it stops unconverged; a cold solve
# takes 11-29 at m <= 3 and about 100 at m = 8.
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
class CamooExactResult:
    """Exact-mode weights with their certificate.

    ``value`` is lambda_min at ``weights`` and ``gap`` >= 0 bounds how far it
    lies below the maximum.  ``iterations`` counts the LPs solved.  ``cuts``
    are the unit directions whose cuts carry a positive multiplier at the
    last LP (never empty): the warm start of a later solve.
    """

    weights: Array
    value: float
    iterations: int
    converged: bool
    gap: float
    cuts: Array


def solve_camoo_exact(
    hessians, cfg: CamooConfig | None = None, warm: Array | None = None
) -> CamooExactResult:
    """Maximize lambda_min(sum_i w_i H_i) over the floored simplex by
    Kelley's cutting planes.

    Each unit v cuts lambda_min(sum_i w_i H_i) <= sum_i w_i v'H_i v.  Each
    round solves the max-min LP over the cuts so far: its multipliers bound
    the maximum from above, and the smallest eigenpair at its weights gives
    a lower bound and the next cut.  The solve stops once the gap is at most
    1e-7 max_i ||H_i||_2 (HiGHS's feasibility tolerance), or unconverged
    after MAX_CUTS LPs.  ``warm`` is an earlier result's ``cuts``; the cold
    first cut is the smallest eigenvector at the floored simplex's centre.
    """
    cfg = cfg or CamooConfig()
    stack = hessian_stack(hessians)
    m, n = stack.shape[:2]
    if m * cfg.w_min > 1.0 + 1e-12:
        raise ValueError(f"floor infeasible: m*w_min = {m * cfg.w_min}")
    tol = 1e-7 * max(spectral_norm(H) for H in stack)

    if warm is None:
        centre = project_floored_simplex(np.full(m, 1.0 / m), cfg.w_min)
        warm = min_eigenpair_unchecked(np.einsum("i,ijk->jk", centre, stack))[1][None]
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
        # The LP's weights can sit ~1e-17 off the floored simplex.
        w = project_floored_simplex(w, cfg.w_min)
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
        cuts = np.vstack([cuts, v])
        C = np.hstack([C, np.einsum("ijk,j,k->i", stack, v, v)[:, None]])
    return CamooExactResult(best_w, float(best_val), lps, gap <= tol, gap, cuts[y > 0])


# ---------------------------------------------------------------------------
# Polyak-style weights
# ---------------------------------------------------------------------------


def pamoo_context(fvals, J, f_star) -> tuple[Array, Array]:
    """``(gaps, gram)`` from one iterate's evaluations: gaps_i = f_i(x) -
    f_i(x*) and the Gram matrix J J' of the stacked gradients.

    ``fvals`` are the objective values and ``J`` the stacked gradients,
    shape (m, n), at the same point.
    """
    fvals = as_vector(fvals, name="fvals")
    f_star = as_vector(f_star, len(fvals), "f_star")
    J = np.asarray(J, dtype=np.float64)
    return fvals - f_star, J @ J.T


def pamoo_weights(
    gaps, gram, cfg: PamooConfig | None = None, warm: Array | None = None
) -> Array:
    """Maximize 2 w'gaps - w'(G + tau I)w over w >= clip_floor, where
    ``gaps`` and the m x m symmetric PSD ``gram`` are what ``pamoo_context``
    returns.

    Projected gradient ascent with clipping to the floor after every step.
    Starts from the warm weights when given, otherwise from the decoupled
    guess gaps_i / (G_ii + tau).  The step is capped at 0.9 / lambda_max of
    the regularized Gram matrix so the ascent cannot diverge; the configured
    step applies whenever it is below that cap.
    """
    cfg = cfg or PamooConfig()
    gaps = as_vector(gaps, name="gaps")
    if not np.all(np.isfinite(gaps)):
        raise ValueError("gaps must be finite")
    m = len(gaps)
    if np.shape(gram) != (m, m):
        raise ValueError(f"gram shape {np.shape(gram)} does not match {m} gaps")
    gram = check_symmetric(gram, tol=1e-8)
    evals = np.linalg.eigvalsh(gram)
    scale = 1.0 + float(np.abs(evals).max(initial=0.0))
    if evals[0] < -1e-10 * scale:
        raise ValueError(f"gram matrix is not PSD: min eigenvalue {evals[0]}")

    Gp = gram + cfg.gram_tau * np.eye(m)
    lam_max = float(evals[-1]) + cfg.gram_tau
    eta = cfg.step if lam_max <= 0 else min(cfg.step, 0.9 / lam_max)

    if warm is not None:
        w = as_vector(warm, m, "warm").copy()
        if not np.isfinite(w).all():
            raise ValueError("warm weights must be finite")
    else:
        diag = np.diagonal(Gp)
        w = np.where(diag > 0, gaps / np.where(diag > 0, diag, 1.0), 0.0)
    floor = cfg.clip_floor
    step2 = eta * 2.0
    w = np.maximum(w, floor)
    # Python floats round like the elementwise numpy ops; the matvec stays in
    # BLAS.  The clip is np.maximum(t, floor): NaN stays NaN, and a tie
    # between signed zeros takes floor.
    g, w_now = gaps.tolist(), w.tolist()
    for _ in range(cfg.iterations):
        w_next, moved = [], 0.0
        for wi, gi, hi in zip(w_now, g, (Gp @ w).tolist()):
            t = wi + step2 * (gi - hi)
            t = floor if t <= floor else t
            d = abs(t - wi)
            moved = d if d > moved else moved
            w_next.append(t)
        w_now, w = w_next, np.array(w_next)
        # w >= floor >= 0, so its largest entry is its largest magnitude.
        if moved <= 1e-16 * (1.0 + max(w_next)):
            break
    return w
