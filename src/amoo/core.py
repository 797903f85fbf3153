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
    """Asked an oracle or optimum record for information it does not carry."""


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

    ``value`` and ``gradient`` are required; ``hessian`` and ``diag_hessian``
    are optional callables returning the full symmetric Hessian and its
    diagonal.  All callables must be pure functions of x.
    """

    dim: int
    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array] | None = None
    diag_hessian: Callable[[Array], Array] | None = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"oracle dim must be positive, got {self.dim}")

    @property
    def has_hessian(self) -> bool:
        return self.hessian is not None

    @property
    def has_diag_hessian(self) -> bool:
        return self.diag_hessian is not None

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

    def diag_hessian_at(self, x) -> Array:
        if self.diag_hessian is not None:
            d = self.diag_hessian(as_vector(x, self.dim))
            return np.asarray(d, dtype=np.float64).reshape(self.dim)
        if self.hessian is not None:
            return np.diag(self.hessian_at(x)).copy()
        raise UnsupportedQueryError(
            f"oracle {self.name!r} has neither diag_hessian nor hessian"
        )


@dataclass(frozen=True)
class ObjectiveSet:
    """m objectives sharing one parameter space.

    ``stacked``, when given, replaces the per-oracle loops: its one method,
    ``evaluate(x)``, returns what ``ObjectiveSet.evaluate`` does, bitwise
    equal to stacking the oracles' own results.
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
        x = as_vector(x, self.dim)
        if self.stacked is not None:
            return self.stacked.evaluate(x)[0]
        return np.array([o.value(x) for o in self.objectives], dtype=np.float64)

    def gradients(self, x) -> Array:
        """Stacked gradients, shape (m, n)."""
        x = as_vector(x, self.dim)
        if self.stacked is not None:
            return self.stacked.evaluate(x)[1]
        return np.stack([o._checked_gradient(x) for o in self.objectives])

    def evaluate(self, x: Array) -> tuple[Array, Array, Callable[[], Array]]:
        """Values (m,), stacked gradients (m, n) and a zero-argument callable
        giving the (m, n) Hessian diagonals, all at x, which must already be a
        float64 vector of length ``dim``: unlike ``values``, it is not checked.
        A stacked evaluator's callable reuses the pass that gave the values."""
        if self.stacked is not None:
            return self.stacked.evaluate(x)
        fvals = np.array([o.value(x) for o in self.objectives], dtype=np.float64)
        J = np.stack([o._checked_gradient(x) for o in self.objectives])
        return fvals, J, lambda: np.stack([o.diag_hessian_at(x) for o in self.objectives])

    def hessians(self, x) -> list[Array]:
        x = as_vector(x, self.dim)
        return [o.hessian_at(x) for o in self.objectives]


@dataclass(frozen=True)
class OptimalInfo:
    """What is known about the shared optimum of an objective set.

    ``alignment_eps`` is 0 for exactly aligned instances and otherwise the
    smallest e such that some point is within e objective gap of every
    objective's own minimum.
    """

    x_star: Array | None = None
    f_star: Array | None = None
    alignment_eps: float = 0.0

    def __post_init__(self):
        if self.x_star is not None:
            object.__setattr__(self, "x_star", _frozen(as_vector(self.x_star)))
        if self.f_star is not None:
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

