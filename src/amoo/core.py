"""Objective oracles, objective sets, and weighted evaluation.

An objective set bundles m scalar objectives over a shared parameter space
R^n; a weight vector, a plain float64 array of length m, scalarizes them
into a single function f_w(x) = sum_i w_i f_i(x).  Everything here is
immutable after construction and deterministic, so these objects are safe
to share across threads.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


class UnsupportedQueryError(RuntimeError):
    """Asked an oracle for information it does not carry (a Hessian)."""


class NumericError(RuntimeError):
    """Numeric failure (non-convergence, NaN/Inf); carries the best estimate.

    ``payload`` holds whatever partial result was available at the point of
    failure (e.g. the best eigenpair estimate or a partial run trace).
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


def as_vector(x, dim: int | None = None, name: str = "x") -> Array:
    """Coerce to a 1-D float64 array, optionally checking its length."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {dim}")
    return arr


def _frozen(arr: Array) -> Array:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ObjectiveOracle:
    """A single scalar objective with first-order (and optional second-order) access.

    ``value`` and ``gradient`` are required; ``hessian`` is an optional
    callable returning the full symmetric Hessian.  All callables must be
    pure functions of x.  Hessian diagonals come from
    ``ObjectiveSet.evaluate``, not from an oracle.
    """

    dim: int
    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array] | None = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"oracle dim must be positive, got {self.dim}")

    def value_at(self, x) -> float:
        return float(self.value(as_vector(x, self.dim)))

    def gradient_at(self, x) -> Array:
        return self._checked_gradient(as_vector(x, self.dim))

    def _checked_gradient(self, x: Array) -> Array:
        return np.asarray(self.gradient(x), dtype=np.float64).reshape(self.dim)

    def hessian_at(self, x) -> Array:
        if self.hessian is None:
            raise UnsupportedQueryError(f"oracle {self.name!r} has no Hessian")
        H = np.asarray(self.hessian(as_vector(x, self.dim)), dtype=np.float64)
        return H.reshape(self.dim, self.dim)


@dataclass(frozen=True)
class ObjectiveSet:
    """m objectives sharing one parameter space.

    ``stacked``, when given, replaces the per-oracle loops: its one method,
    ``evaluate(x)``, returns what ``ObjectiveSet.evaluate`` does, bitwise
    equal to stacking the oracles' own values and gradients.
    """

    objectives: tuple[ObjectiveOracle, ...]
    stacked: object = None

    def __post_init__(self):
        if len(self.objectives) < 1:
            raise ValueError("an objective set needs at least one objective")
        object.__setattr__(self, "objectives", tuple(self.objectives))
        dims = {o.dim for o in self.objectives}
        if len(dims) != 1:
            raise ValueError(f"objectives disagree on dim: {sorted(dims)}")

    @property
    def m(self) -> int:
        return len(self.objectives)

    @property
    def dim(self) -> int:
        return self.objectives[0].dim

    def values(self, x) -> Array:
        return self.evaluate(as_vector(x, self.dim))[0]

    def gradients(self, x) -> Array:
        """Stacked gradients, shape (m, n); with ``values``, a view of ``evaluate``."""
        return self.evaluate(as_vector(x, self.dim))[1]

    def evaluate(self, x: Array) -> tuple[Array, Array, Callable[[], Array]]:
        """Values (m,), stacked gradients J (m, n) and a zero-argument callable
        giving the (m, n) Hessian diagonals, all at x, which must already be a
        float64 vector of length ``dim``: unlike ``values``, it is not checked.
        J and the diagonals are fresh arrays that the caller owns.  A stacked
        evaluator's callable reuses the pass that gave the values; without
        one, the diagonals are those of ``hessians(x)``, which raises
        UnsupportedQueryError if an oracle has no Hessian."""
        if self.stacked is not None:
            return self.stacked.evaluate(x)
        fvals = np.array([o.value(x) for o in self.objectives], dtype=np.float64)
        J = np.stack([o._checked_gradient(x) for o in self.objectives])
        return fvals, J, lambda: np.stack([np.diagonal(H) for H in self.hessians(x)])

    def hessians(self, x) -> list[Array]:
        x = as_vector(x, self.dim)
        return [o.hessian_at(x) for o in self.objectives]


@dataclass(frozen=True)
class OptimalInfo:
    """The shared optimum of an objective set: every problem records one.

    ``f_star`` holds each objective's own minimum, f_i* = min f_i.
    ``alignment_eps`` is 0 for exactly aligned instances, where every f_i
    attains f_i* at ``x_star``; otherwise it is the smallest e such that
    some point (``misalign`` certifies ``x_star`` as one) is within e
    objective gap of every f_i*.
    """

    x_star: Array
    f_star: Array
    alignment_eps: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x_star", _frozen(as_vector(self.x_star)))
        object.__setattr__(self, "f_star", _frozen(as_vector(self.f_star)))
        if self.alignment_eps < 0:
            raise ValueError("alignment_eps must be nonnegative")


def weighted_gradient(J: Array, w: Array) -> Array:
    """Gradient of the scalarized objective, sum_i w_i grad f_i(x).

    ``J`` holds the stacked objective gradients at x, shape (m, n), as
    returned by ``ObjectiveSet.gradients`` or ``ObjectiveSet.evaluate``, and
    ``w`` the m weights.
    """
    if len(w) != len(J):
        raise ValueError(f"weight vector has {len(w)} entries for {len(J)} objectives")
    return w @ J

