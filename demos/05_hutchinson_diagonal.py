"""Estimating Hessian diagonals with random sign probes.

E[z * (Hz)] = diag(H) for Rademacher z, so averaging a handful of
Hessian-vector products recovers the diagonal without ever forming H.  The
products themselves come from central differences of the gradient, so only
first-order access is required; ``hvp_fd`` and ``diag_hessian_matrix`` take
an objective set and give one row per objective, so each quadratic here is
a set of one objective.  A single probe is already exact when H is
diagonal; off-diagonal mass turns into zero-mean noise that averages out.
"""

import numpy as np

from amoo.core import ObjectiveSet
from amoo.hessians import HutchinsonConfig, diag_hessian_matrix, hvp_fd


def quadratic(M):
    """0.5 x'Mx as a one-objective set without Hessians (its pass gives None
    for them): the estimates below use its gradients M x only."""
    def evaluate(x):
        return np.array([0.5 * x @ M @ x]), (M @ x)[None], lambda: np.diagonal(M)[None], None

    return ObjectiveSet(1, len(M), evaluate)


# --- a single probe is exact on diagonal curvature ---------------------------

H = np.diag([2.0, 0.4, 1.3])
(est,) = diag_hessian_matrix(
    quadratic(H), [0.3, -1.0, 2.0], HutchinsonConfig(num_samples=1)
)
print("diagonal H:", np.diagonal(H))
print("one probe :", np.round(est, 10))
print()

# --- off-diagonal mass averages out ------------------------------------------

rng = np.random.default_rng(0)
B = rng.normal(size=(12, 12))
M = B + B.T + 8.0 * np.eye(12)
dense = quadratic(M)
print(f"{'probes':>8} {'max |err|':>12} {'max rel err':>12}")
for n in (1, 10, 100, 1000, 10000):
    (est,) = diag_hessian_matrix(
        dense, np.zeros(12), HutchinsonConfig(num_samples=n, rng_seed=42)
    )
    err = np.abs(est - np.diagonal(M))
    print(f"{n:>8} {err.max():>12.4f} {(err / np.abs(np.diagonal(M))).max():>12.4f}")
print()

# --- the building block: finite-difference Hessian-vector products -----------

(hv,) = hvp_fd(dense, x=np.ones(12), v=np.eye(12)[0])
print("HVP against column 0 of M, max abs error:",
      float(np.abs(hv - M[:, 0]).max()))
