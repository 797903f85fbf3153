"""Second-order information without forming Hessians.

Hessian-vector products come from central differences of the analytic
gradient; the diagonal is estimated by averaging z * (Hz) over Rademacher
probes z, which is exact in a single sample when H is diagonal.  Every
probe draws from its own counter-split RNG stream, so results do not depend
on evaluation order.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import Array, ObjectiveOracle, ObjectiveSet, as_vector


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


def hvp_fd(oracle: ObjectiveOracle, x, v) -> Array:
    """Hessian-vector product by central differences of the gradient.

    Uses h = FD_STEP * (1 + ||x||) along the unit direction of v, then
    rescales by ||v||.  Exact up to O(h^2) truncation; for quadratics the
    truncation vanishes and the result is exact to rounding.
    """
    x = as_vector(x, oracle.dim)
    v = as_vector(v, oracle.dim, name="v")
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        raise ValueError("direction v must be nonzero")
    unit = v / norm_v
    h = FD_STEP * (1.0 + np.linalg.norm(x))
    gp = oracle.gradient_at(x + h * unit)
    gm = oracle.gradient_at(x - h * unit)
    return (gp - gm) / (2.0 * h) * norm_v


def _rademacher(seq: np.random.SeedSequence, n: int) -> Array:
    rng = np.random.default_rng(seq)
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0


def hutchinson_diag(oracle: ObjectiveOracle, x, cfg: HutchinsonConfig) -> Array:
    """Estimate diag(H) at x as the average of z * (Hz) over Rademacher z.

    Uses the analytic Hessian when the oracle carries one, a
    finite-difference Hessian-vector product (``hvp_fd``, relative step
    FD_STEP) otherwise.  Deterministic given ``cfg.rng_seed``; the
    expectation over z equals the true diagonal.  A non-finite estimate
    raises ValueError.
    """
    x = as_vector(x, oracle.dim)
    n = oracle.dim
    H = oracle.hessian_at(x) if oracle.hessian is not None else None
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.num_samples)
    acc = np.zeros(n)
    for seq in streams:
        z = _rademacher(seq, n)
        hz = H @ z if H is not None else hvp_fd(oracle, x, z)
        acc += z * hz
    est = acc / cfg.num_samples
    if not np.isfinite(est).all():
        raise ValueError("diagonal estimate has non-finite entries")
    return est


def diag_hessian_matrix(objectives: ObjectiveSet, x, cfg: HutchinsonConfig) -> Array:
    """Hutchinson estimates of the m Hessian diagonals as an (m, n) matrix,
    row i from the i-th substream of ``cfg.rng_seed``.  Analytic diagonals
    come from ``ObjectiveSet.evaluate(x)[2]()`` instead."""
    x = as_vector(x, objectives.dim)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(objectives.m)
    return np.stack(
        [
            hutchinson_diag(o, x, replace(cfg, rng_seed=s.generate_state(1)[0]))
            for o, s in zip(objectives.objectives, seeds)
        ]
    )


class DiagHessianTracker:
    """Diagonal estimates along a run: call k seeds its probes with
    ``cfg.rng_seed + k``, so the estimates are deterministic per call."""

    def __init__(self, cfg: HutchinsonConfig):
        self.cfg = cfg
        self._calls = 0

    def update(self, objectives: ObjectiveSet, x) -> Array:
        call_cfg = replace(self.cfg, rng_seed=self.cfg.rng_seed + self._calls)
        self._calls += 1
        return diag_hessian_matrix(objectives, x, call_cfg)
