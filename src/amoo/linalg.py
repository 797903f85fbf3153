"""Dense symmetric eigen-routines for desk-scale matrices.

Every routine validates its input with ``check_symmetric`` and hands the
decomposition to LAPACK (``numpy.linalg``); 1x1 and 2x2 smallest eigenpairs
use the closed form.  The contracts are on the results: ``eigh`` returns
ascending eigenvalues with orthonormal eigenvectors, ``min_eigenpair`` a
certified eigenpair, ``spectral_norm`` the largest absolute eigenvalue.
"""

import numpy as np

from .core import Array

SYMMETRY_TOL = 1e-12


def check_symmetric(A, tol: float = SYMMETRY_TOL) -> Array:
    """Validate symmetry to within ``tol`` (scaled) and return a symmetrized copy."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    scale = 1.0 + np.abs(A).max(initial=0.0)
    if np.abs(A - A.T).max(initial=0.0) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (A + A.T)


def weighted_hessian(hessians, w) -> Array:
    """Entrywise sum_i w_i H_i of symmetric matrices sharing one size."""
    from .core import WeightVector

    wa = w.as_array() if isinstance(w, WeightVector) else np.asarray(w, np.float64)
    if len(hessians) != len(wa):
        raise ValueError(f"{len(hessians)} matrices for {len(wa)} weights")
    mats = [check_symmetric(H) for H in hessians]
    n = mats[0].shape[0]
    for H in mats:
        if H.shape[0] != n:
            raise ValueError("matrices disagree on size")
    return np.einsum("i,ijk->jk", wa, np.stack(mats))


def eigh(A):
    """Full eigendecomposition: (eigenvalues ascending, eigenvectors as columns)."""
    return np.linalg.eigh(check_symmetric(A))


# ``perfbench/layers.py`` binds this name; remove the alias with that binding.
jacobi_eigh = eigh


def min_eigenpair_unchecked(M: Array):
    """Smallest eigenpair of an already validated symmetric matrix.

    Closed form for n <= 2, LAPACK above; the eigenvector has unit norm.
    """
    n = M.shape[0]
    if n == 1:
        return float(M[0, 0]), np.ones(1)
    if n == 2:
        a, b, c = M[0, 0], M[0, 1], M[1, 1]
        half_gap = 0.5 * (a - c)
        root = np.hypot(half_gap, b)
        lam = 0.5 * (a + c) - root
        if root == 0.0:
            return float(lam), np.array([1.0, 0.0])
        # Eigenvector from the better-conditioned row of (M - lam I).
        v = np.array([-b, a - lam]) if abs(a - lam) > abs(c - lam) else np.array(
            [c - lam, -b]
        )
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return float(lam), np.array([1.0, 0.0])
        return float(lam), v / norm
    evals, evecs = np.linalg.eigh(M)
    return float(evals[0]), evecs[:, 0]


def min_eigenpair(A):
    """Smallest eigenvalue and a unit eigenvector of a symmetric matrix.

    The eigenvector is defined up to sign, and arbitrary within the
    eigenspace when the smallest eigenvalue is repeated.
    """
    return min_eigenpair_unchecked(check_symmetric(A))


def spectral_norm(A) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    evals = np.linalg.eigvalsh(check_symmetric(A))
    return float(np.max(np.abs(evals), initial=0.0))
