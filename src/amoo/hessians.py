"""Second-order information without forming Hessians.

Hessian-vector products come from central differences of an objective
set's stacked gradients; the diagonals are estimated by averaging z * (Hz)
over Rademacher probes z, which is exact in a single sample when H is
diagonal.  One probe per sample serves every objective, so row i of the
estimate is objective i's and w' times it is the estimate of
diag(sum_i w_i H_i), for every w at once.  Every probe draws from its own
counter-split RNG stream, so results do not depend on evaluation order.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import Array, ObjectiveSet, as_vector


@dataclass(frozen=True)
class HutchinsonConfig:
    """Probe count and seed for diagonal estimation."""

    num_samples: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


# Relative step of the central differences in ``hvp_fd``.
FD_STEP = 1e-4


def hvp_fd(objectives: ObjectiveSet, x, v) -> Array:
    """The m Hessian-vector products H_i v, shape (m, n), by central
    differences of the stacked gradients.

    Uses h = FD_STEP * (1 + ||x||) along the unit direction of v, then
    rescales by ||v||.  Exact up to O(h^2) truncation; for quadratics the
    truncation vanishes and the result is exact to rounding.
    """
    x = as_vector(x, objectives.dim)
    v = as_vector(v, objectives.dim, name="v")
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        raise ValueError("direction v must be nonzero")
    unit = v / norm_v
    h = FD_STEP * (1.0 + np.linalg.norm(x))
    gp = objectives.evaluate(x + h * unit)[1]
    gm = objectives.evaluate(x - h * unit)[1]
    return (gp - gm) / (2.0 * h) * norm_v


def _rademacher(seq: np.random.SeedSequence, n: int) -> Array:
    rng = np.random.default_rng(seq)
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0


def diag_hessian_matrix(
    objectives: ObjectiveSet, x, cfg: HutchinsonConfig, hessians=None
) -> Array:
    """Hutchinson estimates of the m Hessian diagonals as an (m, n) matrix:
    the average of z * (H_i z) over Rademacher z, one z per sample of
    ``cfg.rng_seed`` shared by every objective.

    Uses the set's analytic Hessians when it has them, from ``hessians``, the
    callable of the caller's ``evaluate(x)`` pass, or else from a pass of its
    own; the finite-difference products of ``hvp_fd`` otherwise.  Deterministic
    given ``cfg.rng_seed``; the expectation over z equals the true diagonals.  A
    non-finite estimate raises ValueError.  Analytic diagonals are ``evaluate(x)[2]()``.
    """
    x = as_vector(x, objectives.dim)
    n = objectives.dim
    if hessians is None and objectives.has_hessians:
        hessians = objectives.evaluate(x)[3]
    H = None if hessians is None else hessians()
    acc = np.zeros((objectives.m, n))
    for seq in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.num_samples):
        z = _rademacher(seq, n)
        hz = hvp_fd(objectives, x, z) if H is None else np.matvec(H, z)
        acc += z * hz
    est = acc / cfg.num_samples
    if not np.isfinite(est).all():
        raise ValueError("diagonal estimate has non-finite entries")
    return est


class DiagHessianTracker:
    """Diagonal estimates along a run: call k seeds its probes with
    ``cfg.rng_seed + k``, so the estimates are deterministic per call."""

    def __init__(self, cfg: HutchinsonConfig):
        self.cfg = cfg
        self._calls = 0

    def update(self, objectives: ObjectiveSet, x, hessians=None) -> Array:
        call_cfg = replace(self.cfg, rng_seed=self.cfg.rng_seed + self._calls)
        self._calls += 1
        return diag_hessian_matrix(objectives, x, call_cfg, hessians)
