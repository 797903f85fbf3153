"""Weight optimizers for scalarizing aligned objectives.

Three families:

* equal weights (the uniform baseline),
* curvature-adaptive weights that maximize the smallest eigenvalue of the
  weighted Hessian over a (floored) simplex, either on full Hessians by
  projected supergradient ascent or on Hessian diagonals by reduction to a
  max-min bilinear game solved with predictive entropic primal-dual updates,
* Polyak-style weights that maximize 2 w'gaps - w'(G + tau I)w over the
  nonnegative orthant by projected gradient ascent.

Solvers are deterministic single-threaded state machines; warm starts are
passed in explicitly by the caller.  Every rule returns its weights as a
float64 array on its own set: the simplex, the floored simplex, or the
clipped orthant.
"""

from dataclasses import dataclass

import numpy as np

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
    theory-driven value is mu_G / (8 m beta)).  ``pu_*`` fields control the
    bilinear-game solver used in diagonal mode, ``supergrad_*`` the
    projected supergradient ascent used in exact mode.
    """

    mode: str = MODE_EXACT
    w_min: float = 0.0
    pu_iterations: int = 100
    pu_tau: float = 0.01
    supergrad_iterations: int = 500
    supergrad_step: float = 0.1

    def __post_init__(self):
        if self.mode not in (MODE_EXACT, MODE_DIAGONAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.w_min >= 0:
            raise ValueError("w_min must be nonnegative")
        if not self.pu_tau >= 0:
            raise ValueError("pu_tau must be nonnegative")
        if self.pu_iterations < 1 or self.supergrad_iterations < 1:
            raise ValueError("iteration counts must be positive")
        if not self.supergrad_step > 0:
            raise ValueError("supergrad_step must be positive")


@dataclass(frozen=True)
class PamooConfig:
    """Settings for the Polyak-style weight optimizer."""

    step: float = 3e-3
    iterations: int = 200
    clip_floor: float = 1e-6
    gram_tau: float = 1e-4

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not self.clip_floor >= 0:
            raise ValueError("clip_floor must be nonnegative")
        if not self.gram_tau >= 0:
            raise ValueError("gram_tau must be nonnegative")


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
    # A shared exponent and a lone game's sums stay scalars: numpy's
    # broadcasting costs more than the arithmetic on games this small.
    if len(kappa) == 1 or (kappa == kappa[0]).all():
        expo = None if kappa[0] == 0.0 else float(1.0 - kappa[0])
    else:
        expo = (1.0 - kappa)[:, None, None]
    axis, keep = (None, False) if len(games) == 1 else (1, True)
    if warm is not None:
        w, q = w / w.sum(axis, keepdims=keep), q / q.sum(axis, keepdims=keep)
    Aeta = eta[:, None, None] * A
    neg_AetaT = np.ascontiguousarray(-Aeta.transpose(0, 2, 1))
    w_acc, tail_w, q_acc, tail_q = (np.zeros(v.shape) for v in (w, w, q, q))
    tail_start = 0
    best_gap = best_w = best_q = None

    def finish(rows, done: int) -> None:
        for r in rows:
            wo, qo = best_w[r].ravel(), best_q[r].ravel()
            gap, value = float(best_gap[r, 0, 0]), float(wo @ A[r] @ qo)
            out[games[r]] = BilinearSolution(wo, qo, gap, value, done)

    for t in range(cfg.pu_iterations):
        base_w, base_q = (w, q) if expo is None else (w**expo, q**expo)
        # Half step from the current payoffs, full step from the midpoint's.
        wb = np.exp(Aeta @ q)
        wb *= base_w
        wb /= wb.sum(axis, keepdims=keep)
        qb = np.exp(neg_AetaT @ w)
        qb *= base_q
        qb /= qb.sum(axis, keepdims=keep)
        w = np.exp(Aeta @ qb)
        w *= base_w
        w /= w.sum(axis, keepdims=keep)
        q = np.exp(neg_AetaT @ wb)
        q *= base_q
        q /= q.sum(axis, keepdims=keep)
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
                g = (A @ qc).max(axis=1, keepdims=True)
                g -= (A.transpose(0, 2, 1) @ wc).min(axis=1, keepdims=True)
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
                state = (games, A, Aeta, neg_AetaT, w, q, w_acc, q_acc, tail_w, tail_q)
                games, A, Aeta, neg_AetaT, w, q, w_acc, q_acc, tail_w, tail_q = (
                    x[live] for x in state
                )
                best_gap, best_w, best_q = best_gap[live], best_w[live], best_q[live]
                if isinstance(expo, np.ndarray):
                    expo = expo[live]
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


@dataclass(frozen=True)
class CamooExactResult:
    weights: Array
    value: float
    iterations: int
    converged: bool


def solve_camoo_exact(
    hessians, cfg: CamooConfig | None = None, warm: Array | None = None
) -> CamooExactResult:
    """Maximize lambda_min(sum_i w_i H_i) over the floored simplex.

    Projected supergradient ascent: at the current weights the smallest
    eigenpair (lam, v) of the weighted matrix gives the supergradient
    component v'H_i v.  The step starts at supergrad_step / max_i ||H_i||_2
    (so the trajectory is invariant to scaling all matrices) and halves
    periodically, which homes in on the optimum of this piecewise-smooth
    concave objective.  The best iterate seen, measured by its exact
    smallest eigenvalue, is returned; ``converged`` is False when the final
    phase was still improving.
    """
    cfg = cfg or CamooConfig()
    stack = hessian_stack(hessians)
    m = len(stack)
    if m * cfg.w_min > 1.0 + 1e-12:
        raise ValueError(f"floor infeasible: m*w_min = {m * cfg.w_min}")

    scale = max(spectral_norm(H) for H in stack)
    if scale == 0.0:
        w = project_floored_simplex(np.full(m, 1.0 / m), cfg.w_min)
        return CamooExactResult(w, 0.0, 0, True)

    if warm is not None:
        w = project_floored_simplex(as_vector(warm, m, "warm"), cfg.w_min)
    else:
        w = project_floored_simplex(np.full(m, 1.0 / m), cfg.w_min)

    iters = cfg.supergrad_iterations
    phase_len = max(20, iters // 12)
    base = cfg.supergrad_step / scale

    best_w = w.copy()
    best_val, _ = min_eigenpair_unchecked(np.einsum("i,ijk->jk", w, stack))
    gain_tol = 1e-12 * (1.0 + abs(best_val) + scale)
    prev_gain, gain = np.inf, 0.0
    done = 0
    for k in range(iters):
        if k % phase_len == 0 and k > 0:
            # Two consecutive phases without progress: the iterate is pinned
            # or oscillating below tolerance; smaller steps cannot help more.
            if prev_gain <= gain_tol and gain <= gain_tol:
                break
            prev_gain, gain = gain, 0.0
        lam, v = min_eigenpair_unchecked(np.einsum("i,ijk->jk", w, stack))
        if lam > best_val:
            gain += lam - best_val
            best_val, best_w = lam, w.copy()
        g = np.einsum("ijk,j,k->i", stack, v, v)
        step = base * 0.5 ** (k // phase_len)
        w_next = project_floored_simplex(w + step * g, cfg.w_min)
        moved = float(np.max(np.abs(w_next - w)))
        w = w_next
        done = k + 1
        if moved <= 1e-15:
            break
    lam, _ = min_eigenpair_unchecked(np.einsum("i,ijk->jk", w, stack))
    if lam > best_val:
        best_val, best_w = lam, w.copy()

    stalled = done == iters and gain > gain_tol
    return CamooExactResult(
        weights=best_w,
        value=float(best_val),
        iterations=done,
        converged=not stalled,
    )


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
