"""Hand-built one-objective sets for tests of the routines that take a set."""

import numpy as np

from amoo.core import ObjectiveSet, UnsupportedQueryError


def one_objective(dim, value, gradient, hessian=None):
    """The set of one objective given by its value and gradient callables and,
    if given, its Hessian callable; without one, asking for the diagonals
    raises UnsupportedQueryError."""

    def no_diagonals():
        raise UnsupportedQueryError("this objective has no Hessian")

    def evaluate(x):
        values = np.array([value(x)], dtype=np.float64)
        J = np.asarray(gradient(x), dtype=np.float64).reshape(1, dim)
        if hessian is None:
            return values, J, no_diagonals, None
        H = lambda: np.asarray(hessian(x), dtype=np.float64).reshape(1, dim, dim)  # noqa: E731
        return values, J, lambda: np.array([np.diagonal(hessian(x))]), H

    return ObjectiveSet(1, dim, evaluate, hessian is not None)


def quadratic(M, with_hessian=False):
    """0.5 x'Mx with gradient M x and, if asked, its Hessian M."""
    M = np.asarray(M, dtype=np.float64)
    hessian = (lambda x: M) if with_hessian else None
    return one_objective(len(M), lambda x: 0.5 * x @ M @ x, lambda x: M @ x, hessian)


def stack(*sets):
    """The set whose objectives are those of ``sets``, in order; it has
    Hessians if each of them has."""
    exact = all(s.has_hessians for s in sets)

    def evaluate(x):
        parts = [s.evaluate(x) for s in sets]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            lambda: np.concatenate([p[2]() for p in parts]),
            (lambda: np.concatenate([p[3]() for p in parts])) if exact else None,
        )

    return ObjectiveSet(sum(s.m for s in sets), sets[0].dim, evaluate, exact)


def row(objectives, i):
    """Objective i of ``objectives`` alone, read from the whole set's pass."""

    def evaluate(x):
        values, J, diag, hessians = objectives.evaluate(x)
        rows = None if hessians is None else (lambda: hessians()[i : i + 1])
        return values[i : i + 1], J[i : i + 1], lambda: diag()[i : i + 1], rows

    return ObjectiveSet(1, objectives.dim, evaluate, objectives.has_hessians)
