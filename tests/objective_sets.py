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
        J = np.asarray(gradient(x), dtype=np.float64).reshape(1, dim)
        diag = no_diagonals if hessian is None else (lambda: np.array([np.diagonal(hessian(x))]))
        return np.array([value(x)], dtype=np.float64), J, diag

    def hessians(x):
        return np.asarray(hessian(x), dtype=np.float64).reshape(1, dim, dim)

    return ObjectiveSet(1, dim, evaluate, None if hessian is None else hessians)


def quadratic(M, with_hessian=False):
    """0.5 x'Mx with gradient M x and, if asked, its Hessian M."""
    M = np.asarray(M, dtype=np.float64)
    hessian = (lambda x: M) if with_hessian else None
    return one_objective(len(M), lambda x: 0.5 * x @ M @ x, lambda x: M @ x, hessian)


def stack(*sets):
    """The set whose objectives are those of ``sets``, in order; it has
    Hessians if each of them has."""

    def evaluate(x):
        parts = [s.evaluate(x) for s in sets]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            lambda: np.concatenate([p[2]() for p in parts]),
        )

    def hessians(x):
        return np.concatenate([s.hessians(x) for s in sets])

    exact = all(s.hessian_stack is not None for s in sets)
    return ObjectiveSet(sum(s.m for s in sets), sets[0].dim, evaluate, hessians if exact else None)


def row(objectives, i):
    """Objective i of ``objectives`` alone, read from the whole set's pass."""

    def evaluate(x):
        values, J, diag = objectives.evaluate(x)
        return values[i : i + 1], J[i : i + 1], lambda: diag()[i : i + 1]

    def hessians(x):
        return objectives.hessians(x)[i : i + 1]

    exact = objectives.hessian_stack is not None
    return ObjectiveSet(1, objectives.dim, evaluate, hessians if exact else None)
