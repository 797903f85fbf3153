"""Estimating Hessian diagonals with random sign probes.

E[z * (Hz)] = diag(H) for Rademacher z, so averaging a handful of
Hessian-vector products recovers the diagonal without ever forming H.  The
products themselves come from central differences of the gradient, so only
first-order access is required; ``hvp_fd`` takes an objective set and gives
one product per objective.  A single probe is already exact when H is
diagonal; off-diagonal mass turns into zero-mean noise that averages out.
"""

import numpy as np

from amoo.core import ObjectiveOracle, ObjectiveSet
from amoo.hessians import HutchinsonConfig, hutchinson_diag, hvp_fd

# --- a single probe is exact on diagonal curvature ---------------------------

H = np.diag([2.0, 0.4, 1.3])
oracle = ObjectiveOracle(
    dim=3, value=lambda x: float(0.5 * x @ H @ x), gradient=lambda x: H @ x
)
est = hutchinson_diag(oracle, [0.3, -1.0, 2.0], HutchinsonConfig(num_samples=1))
print("diagonal H:", np.diagonal(H))
print("one probe :", np.round(est, 10))
print()

# --- off-diagonal mass averages out ------------------------------------------

rng = np.random.default_rng(0)
B = rng.normal(size=(12, 12))
M = B + B.T + 8.0 * np.eye(12)
dense = ObjectiveOracle(
    dim=12, value=lambda x: float(0.5 * x @ M @ x), gradient=lambda x: M @ x
)
print(f"{'probes':>8} {'max |err|':>12} {'max rel err':>12}")
for n in (1, 10, 100, 1000, 10000):
    est = hutchinson_diag(
        dense, np.zeros(12), HutchinsonConfig(num_samples=n, rng_seed=42)
    )
    err = np.abs(est - np.diagonal(M))
    print(f"{n:>8} {err.max():>12.4f} {(err / np.abs(np.diagonal(M))).max():>12.4f}")
print()

# --- the building block: finite-difference Hessian-vector products -----------

(hv,) = hvp_fd(ObjectiveSet((dense,)), x=np.ones(12), v=np.eye(12)[0])
print("HVP against column 0 of M, max abs error:",
      float(np.abs(hv - M[:, 0]).max()))
