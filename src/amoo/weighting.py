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
passed in explicitly by the caller.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    FLOORED_SIMPLEX,
    ORTHANT,
    SIMPLEX,
    Array,
    WeightVector,
    as_vector,
)
from .linalg import check_symmetric, min_eigenpair_unchecked, spectral_norm

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
    warm_start: bool = True

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
    warm_start: bool = True

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not self.clip_floor >= 0:
            raise ValueError("clip_floor must be nonnegative")
        if not self.gram_tau >= 0:
            raise ValueError("gram_tau must be nonnegative")


def equal_weights(m: int) -> WeightVector:
    """Uniform simplex weights (1/m, ..., 1/m)."""
    if m < 1:
        raise ValueError("need at least one objective")
    return WeightVector(np.full(m, 1.0 / m), SIMPLEX)


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
    """

    w: Array
    q: Array
    gap: float
    value: float


def _game_gap(A: Array, w: Array, q: Array) -> float:
    return float(np.max(A @ q) - np.min(A.T @ w))


def _normalized(v: Array) -> Array:
    return v / v.sum()


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
    cfg = cfg or CamooConfig()
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"payoff matrix must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("payoff matrix has non-finite entries")
    m, n = A.shape
    amax = float(np.abs(A).max(initial=0.0))
    if amax == 0.0:
        w = np.full(m, 1.0 / m)
        q = np.full(n, 1.0 / n)
        return BilinearSolution(w=w, q=q, gap=0.0, value=0.0)

    tau = cfg.pu_tau
    eta = 1.0 / (2.0 * amax + tau)
    kappa = eta * tau
    if warm is not None:
        w = _normalized(np.clip(as_vector(warm[0], m, "warm w"), 1e-300, None))
        q = _normalized(np.clip(as_vector(warm[1], n, "warm q"), 1e-300, None))
    else:
        w = np.full(m, 1.0 / m)
        q = np.full(n, 1.0 / n)

    Aeta = eta * A
    neg_AetaT = np.ascontiguousarray(-Aeta.T)
    w_acc = np.zeros(m)
    q_acc = np.zeros(n)
    tail_acc_w = np.zeros(m)
    tail_acc_q = np.zeros(n)
    tail_start = 0
    best: tuple[float, Array, Array] | None = None
    check_every = 64

    def consider(wc: Array, qc: Array) -> float:
        nonlocal best
        g = _game_gap(A, wc, qc)
        if best is None or g < best[0]:
            best = (g, wc.copy(), qc.copy())
        return g

    for t in range(cfg.pu_iterations):
        if kappa == 0.0:
            base_w, base_q = w, q
        else:
            base_w = w ** (1.0 - kappa)
            base_q = q ** (1.0 - kappa)
        # Predictive half step from the current payoffs.
        wb = _normalized(base_w * np.exp(Aeta @ q))
        qb = _normalized(base_q * np.exp(neg_AetaT @ w))
        # Full step from the midpoint payoffs.
        w = _normalized(base_w * np.exp(Aeta @ qb))
        q = _normalized(base_q * np.exp(neg_AetaT @ wb))
        w_acc += wb
        q_acc += qb
        # The tail window opens at the first restart; before it, the tail
        # average would be the running average bit for bit.
        if tail_start > 0:
            tail_acc_w += wb
            tail_acc_q += qb
        done = t + 1
        if done % check_every == 0 or done == cfg.pu_iterations:
            g_best = consider(w_acc / done, q_acc / done)
            g_best = min(g_best, consider(w, q))
            if tail_start > 0:
                span = done - tail_start
                g_best = min(g_best, consider(tail_acc_w / span, tail_acc_q / span))
            if gap_target is not None and g_best <= gap_target:
                break
            # Restart the tail window once it spans half the history, so the
            # tail average forgets the transient.
            if done - tail_start >= max(tail_start, 256):
                tail_acc_w[:] = 0.0
                tail_acc_q[:] = 0.0
                tail_start = done

    assert best is not None
    gap, w_out, q_out = best
    return BilinearSolution(
        w=w_out, q=q_out, gap=gap, value=float(w_out @ A @ q_out)
    )


# ---------------------------------------------------------------------------
# Curvature-adaptive weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CamooExactResult:
    weights: WeightVector
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
    mats = [check_symmetric(H) for H in hessians]
    m = len(mats)
    if m < 1:
        raise ValueError("need at least one Hessian")
    n = mats[0].shape[0]
    for H in mats:
        if H.shape[0] != n:
            raise ValueError("Hessians disagree on size")
    if m * cfg.w_min > 1.0 + 1e-12:
        raise ValueError(f"floor infeasible: m*w_min = {m * cfg.w_min}")

    constraint = FLOORED_SIMPLEX if cfg.w_min > 0 else SIMPLEX

    scale = max(spectral_norm(H) for H in mats)
    if scale == 0.0:
        w = project_floored_simplex(np.full(m, 1.0 / m), cfg.w_min)
        return CamooExactResult(
            WeightVector(w, constraint, cfg.w_min), 0.0, 0, True
        )

    if warm is not None:
        w = project_floored_simplex(as_vector(warm, m, "warm"), cfg.w_min)
    else:
        w = project_floored_simplex(np.full(m, 1.0 / m), cfg.w_min)

    iters = cfg.supergrad_iterations
    phase_len = max(20, iters // 12)
    base = cfg.supergrad_step / scale
    stack = np.stack(mats)

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
        weights=WeightVector(best_w, constraint, cfg.w_min),
        value=float(best_val),
        iterations=done,
        converged=not stalled,
    )


# ---------------------------------------------------------------------------
# Polyak-style weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PamooContext:
    """Per-iterate inputs of the Polyak-style optimizer.

    ``gaps``  holds f_i(x) - f_i(x*), ``gram`` the Gram matrix J'J of the
    stacked objective gradients J = [grad f_1(x) ... grad f_m(x)].
    """

    gaps: Array
    gram: Array

    def __post_init__(self):
        gaps = as_vector(self.gaps, name="gaps")
        gram = np.asarray(self.gram, dtype=np.float64)
        if gram.shape != (len(gaps), len(gaps)):
            raise ValueError(
                f"gram shape {gram.shape} does not match {len(gaps)} gaps"
            )
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "gram", gram)


def pamoo_context(fvals, J, f_star) -> PamooContext:
    """Gaps and the gradient Gram matrix from one iterate's evaluations.

    ``fvals`` are the objective values and ``J`` the stacked gradients,
    shape (m, n), at the same point.
    """
    fvals = as_vector(fvals, name="fvals")
    f_star = as_vector(f_star, len(fvals), "f_star")
    J = np.asarray(J, dtype=np.float64)
    return PamooContext(gaps=fvals - f_star, gram=J @ J.T)


def pamoo_weights(
    ctx: PamooContext, cfg: PamooConfig | None = None, warm: Array | None = None
) -> WeightVector:
    """Maximize 2 w'gaps - w'(G + tau I)w over w >= clip_floor.

    Projected gradient ascent with clipping to the floor after every step.
    Starts from the warm weights when given, otherwise from the decoupled
    guess gaps_i / (G_ii + tau).  The step is capped at 0.9 / lambda_max of
    the regularized Gram matrix so the ascent cannot diverge; the configured
    step applies whenever it is below that cap.
    """
    cfg = cfg or PamooConfig()
    gaps = ctx.gaps
    if not np.all(np.isfinite(gaps)):
        raise ValueError("gaps must be finite")
    gram = check_symmetric(ctx.gram, tol=1e-8)
    m = len(gaps)
    evals = np.linalg.eigvalsh(gram)
    scale = 1.0 + float(np.abs(evals).max(initial=0.0))
    if evals[0] < -1e-10 * scale:
        raise ValueError(f"gram matrix is not PSD: min eigenvalue {evals[0]}")

    Gp = gram + cfg.gram_tau * np.eye(m)
    lam_max = float(evals[-1]) + cfg.gram_tau
    eta = cfg.step if lam_max <= 0 else min(cfg.step, 0.9 / lam_max)

    if warm is not None:
        w = as_vector(warm, m, "warm").copy()
    else:
        diag = np.diagonal(Gp)
        w = np.where(diag > 0, gaps / np.where(diag > 0, diag, 1.0), 0.0)
    floor = cfg.clip_floor
    step2 = eta * 2.0
    w = np.maximum(w, floor)
    for _ in range(cfg.iterations):
        w_next = np.maximum(w + step2 * (gaps - Gp @ w), floor)
        moved = np.abs(w_next - w).max()
        w = w_next
        # w >= floor >= 0, so its largest entry is its largest magnitude.
        if moved <= 1e-16 * (1.0 + w.max()):
            break
    return WeightVector(w, ORTHANT)
