"""Dense symmetric matrices for desk-scale problems: validation and eigen-routines.

This is the package's one home for symmetric-matrix work.  Every routine
but ``min_eigenpair_unchecked``, whose caller has validated the matrix,
validates its input with ``check_symmetric`` (``hessian_stack`` does so for
a list of equal-sized matrices), and each decomposition goes to LAPACK
(``numpy.linalg``), at every size.  The contracts are on the results:
``eigh`` returns ascending eigenvalues with orthonormal eigenvectors,
``min_eigenpair`` a certified eigenpair, ``spectral_norm`` the largest
absolute eigenvalue.
"""

import numpy as np

from .core import Array, _finite

SYMMETRY_TOL = 1e-12


def check_symmetric(A, tol: float = SYMMETRY_TOL) -> Array:
    """Validate symmetry to within ``tol`` (scaled) and return a symmetrized copy."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not _finite(A):
        raise ValueError("matrix has non-finite entries")
    scale = 1.0 + np.abs(A).max(initial=0.0)
    if np.abs(A - A.T).max(initial=0.0) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (A + A.T)


def hessian_stack(hessians) -> Array:
    """Validate one or more symmetric matrices of one size; return their
    symmetrized (m, n, n) stack."""
    mats = [check_symmetric(H) for H in hessians]
    if not mats:
        raise ValueError("need at least one Hessian")
    if any(H.shape != mats[0].shape for H in mats):
        raise ValueError("Hessians disagree on size")
    return np.stack(mats)


def weighted_hessian(hessians, w) -> Array:
    """Entrywise sum_i w_i H_i of symmetric matrices sharing one size."""
    wa = np.asarray(w, np.float64)
    if len(hessians) != len(wa):
        raise ValueError(f"{len(hessians)} matrices for {len(wa)} weights")
    return np.einsum("i,ijk->jk", wa, hessian_stack(hessians))


def eigh(A):
    """Full eigendecomposition: (eigenvalues ascending, eigenvectors as columns)."""
    return np.linalg.eigh(check_symmetric(A))


# ``perfbench/layers.py`` binds this name; remove the alias with that binding.
jacobi_eigh = eigh


def min_eigenpair_unchecked(M: Array):
    """Smallest eigenpair of an already validated symmetric matrix, from
    LAPACK; the eigenvector has unit norm."""
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
