"""Objective sets and weighted evaluation.

An objective set bundles m scalar objectives over a shared parameter space
R^n; a weight vector, a plain float64 array of length m, scalarizes them
into a single function f_w(x) = sum_i w_i f_i(x).  Everything here is
immutable after construction and deterministic, so these objects are safe
to share across threads.
"""

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

Array = np.ndarray


class UnsupportedQueryError(RuntimeError):
    """Asked an objective set for information it does not carry (Hessians)."""


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


def _finite(v: Array) -> bool:
    """``np.isfinite(v).all()``, tested on v·v first: its terms are >= 0."""
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _frozen(arr: Array) -> Array:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ObjectiveSet:
    """m objectives over R^dim, evaluated together.

    ``evaluator(x)`` returns what ``evaluate`` does; ``hessian_stack(x)``,
    for kinds that have Hessians, returns the (m, dim, dim) stack of them.
    Both must be pure functions of x.
    """

    m: int
    dim: int
    evaluator: Callable[[Array], tuple[Array, Array, Callable[[], Array]]]
    hessian_stack: Callable[[Array], Array] | None = None

    def __post_init__(self):
        if self.m < 1 or self.dim < 1:
            raise ValueError(
                f"need m >= 1 objectives of dim >= 1, got m={self.m}, dim={self.dim}"
            )

    def values(self, x) -> Array:
        return self.evaluate(as_vector(x, self.dim))[0]

    def gradients(self, x) -> Array:
        """Stacked gradients, shape (m, n); with ``values``, a view of ``evaluate``."""
        return self.evaluate(as_vector(x, self.dim))[1]

    def evaluate(self, x: Array) -> tuple[Array, Array, Callable[[], Array]]:
        """Values (m,), stacked gradients J (m, n) and a zero-argument callable
        giving the (m, n) Hessian diagonals, all at x, which must already be a
        float64 vector of length ``dim``: unlike ``values``, it is not checked.
        J and the diagonals are fresh arrays that the caller owns; the
        diagonals are formed only when the callable is called."""
        return self.evaluator(x)

    def hessians(self, x) -> Array:
        """The (m, n, n) Hessian stack; UnsupportedQueryError if the set has none."""
        if self.hessian_stack is None:
            raise UnsupportedQueryError("this objective set has no Hessians")
        return self.hessian_stack(as_vector(x, self.dim))


@dataclass(frozen=True)
class OptimalInfo:
    """The shared optimum of an objective set: every problem records one.

    Every objective is 0 at its own minimum: ``f_star``, each minimum, is
    the class constant 0.  ``alignment_eps`` is 0 for exactly aligned
    instances, where every f_i is 0 at ``x_star``; otherwise it is the
    smallest e such that some point (``misalign`` certifies ``x_star`` as
    one) has every f_i <= e.
    """

    f_star: ClassVar[float] = 0.0
    x_star: Array
    alignment_eps: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x_star", _frozen(as_vector(self.x_star)))
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

