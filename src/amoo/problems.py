"""Benchmark problem factory.

Analytic families with a shared minimizer at the origin:

* ``specification(delta)``   two 2-D quadratics, each barely curved on its
  own axis; equal weighting restores unit curvature.
* ``selection(delta, m, n)`` m-1 copies of a weakly curved quadratic plus
  one well-conditioned objective worth selecting.
* ``local_curvature(n)``     coordinatewise exp(x)-x against its mirror
  image, where the better-curved objective depends on the sign of x.
* ``quad_family(h_list, alpha_list)`` generalized quadratics
  (x'Hx)^alpha.

``mlp_matching`` trains one two-layer network to match a fixed one under
several output-weighted losses, and ``misalign`` shifts each objective of a
base problem to produce approximately aligned instances.
"""

from copy import copy
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
from scipy import optimize

from .core import (
    Array,
    ObjectiveOracle,
    ObjectiveSet,
    OptimalInfo,
)


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of a buildable benchmark problem; see ``build``.  Each kind
    reads only the fields that its ``KINDS`` entry lists."""

    kind: str
    delta: float = 0.1
    m: int = 2
    n: int = 2
    h_list: tuple[tuple[tuple[float, ...], ...], ...] = ()
    alpha_list: tuple[float, ...] = ()
    variant: str = "selection"
    input_dim: int = 20
    hidden: int = 32
    output_dim: int = 7
    dataset_size: int = 50
    seed: int = 0
    activation: str = "relu"
    target_offset: float = 10.0
    base: "ProblemSpec | None" = None
    shifts: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "misaligned" and self.base is None:
            raise ValueError("misaligned spec needs a base spec")


@dataclass(frozen=True)
class ProblemMeta:
    """Curvature constants of a problem, when known analytically.

    ``beta`` bounds the largest Hessian eigenvalue, ``mu_g``/``mu_l`` are
    the best weighted curvatures globally / at the optimum, ``m_self`` the
    self-concordance constant (0 for quadratics).  None means unknown.
    """

    beta: float | None
    mu_g: float | None
    mu_l: float | None
    m_self: float | None


@dataclass(frozen=True)
class Problem:
    """A built benchmark: objectives, optimum knowledge, constants, and for
    the network-matching problem ``mismatch(theta) -> (msq, mnorm)``."""

    objectives: ObjectiveSet
    optimum: OptimalInfo
    meta: ProblemMeta
    x0: Array
    spec: ProblemSpec
    mismatch: object = None


# ---------------------------------------------------------------------------
# Analytic quadratic families
# ---------------------------------------------------------------------------


def _quadratic_oracle(H: Array, name: str) -> ObjectiveOracle:
    H = np.asarray(H, dtype=np.float64)
    n = H.shape[0]
    return ObjectiveOracle(
        dim=n,
        value=lambda x: float(x @ H @ x),
        gradient=lambda x: 2.0 * (H @ x),
        hessian=lambda x: 2.0 * H,
        diag_hessian=lambda x: 2.0 * np.diagonal(H).copy(),
        name=name,
    )


class _QuadraticStack:
    """x'H_i x for H of shape (m, n, n), one matmul per call.  Each matrix
    gets the same BLAS product and 1-D dot as its ``_quadratic_oracle``, so
    rows are bitwise equal; a matvec ``(x @ H) @ x`` would round differently."""

    def __init__(self, mats):
        self.H = np.stack(mats)

    def evaluate(self, x: Array):
        values = np.array([r.dot(x) for r in x @ self.H])
        return values, 2.0 * (self.H @ x), self._diagonals

    def _diagonals(self) -> Array:
        return 2.0 * np.diagonal(self.H, axis1=1, axis2=2)


def _specification_curvatures(delta: float):
    A1 = np.diag([1.0 - delta, delta])
    A2 = np.diag([delta, 1.0 - delta])
    return [A1, A2]


def _selection_curvatures(delta: float, m: int, n: int):
    weak = np.full(n, delta)
    weak[0] = 1.0 - delta
    mats = [np.diag(weak) for _ in range(m - 1)]
    mats.append(np.eye(n))
    return mats


def _build_specification(spec: ProblemSpec) -> Problem:
    delta = spec.delta
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
    mats = _specification_curvatures(delta)
    objectives = ObjectiveSet(
        tuple(_quadratic_oracle(A, f"spec_f{i + 1}") for i, A in enumerate(mats)),
        stacked=_QuadraticStack(mats),
    )
    optimum = OptimalInfo(x_star=np.zeros(2), f_star=np.zeros(2))
    meta = ProblemMeta(beta=2.0 * (1.0 - delta), mu_g=1.0, mu_l=1.0, m_self=0.0)
    return Problem(objectives, optimum, meta, x0=np.ones(2), spec=spec)


def _build_selection(spec: ProblemSpec) -> Problem:
    delta, m, n = spec.delta, spec.m, spec.n
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
    if m < 2 or n < 1:
        raise ValueError("selection needs m >= 2 objectives and n >= 1 dims")
    mats = _selection_curvatures(delta, m, n)
    objectives = ObjectiveSet(
        tuple(_quadratic_oracle(A, f"sel_f{i + 1}") for i, A in enumerate(mats)),
        stacked=_QuadraticStack(mats),
    )
    optimum = OptimalInfo(x_star=np.zeros(n), f_star=np.zeros(m))
    meta = ProblemMeta(beta=2.0, mu_g=2.0, mu_l=2.0, m_self=0.0)
    return Problem(objectives, optimum, meta, x0=np.ones(n), spec=spec)


def _build_local_curvature(spec: ProblemSpec) -> Problem:
    n = spec.n
    if n < 1:
        raise ValueError("local_curvature needs n >= 1")

    def make(sign: float, name: str) -> ObjectiveOracle:
        return ObjectiveOracle(
            dim=n,
            value=lambda x: float(np.sum(np.exp(sign * x) - sign * x)),
            gradient=lambda x: sign * (np.exp(sign * x) - 1.0),
            hessian=lambda x: np.diag(np.exp(sign * x)),
            diag_hessian=lambda x: np.exp(sign * x),
            name=name,
        )

    objectives = ObjectiveSet((make(1.0, "lc_f1"), make(-1.0, "lc_f2")))
    optimum = OptimalInfo(x_star=np.zeros(n), f_star=np.full(2, float(n)))
    # beta and m_self hold on the |x_j| <= 2 region that the bundled runs use.
    meta = ProblemMeta(beta=float(np.exp(2.0)), mu_g=1.0, mu_l=1.0, m_self=1.0)
    return Problem(objectives, optimum, meta, x0=np.ones(n), spec=spec)


def _power_quad_oracle(H: Array, alpha: float, name: str) -> ObjectiveOracle:
    H = np.asarray(H, dtype=np.float64)
    n = H.shape[0]
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if alpha == 1.0:
        return _quadratic_oracle(H, name)

    def value(x):
        return float((x @ H @ x) ** alpha)

    def gradient(x):
        q = float(x @ H @ x)
        return alpha * q ** (alpha - 1.0) * 2.0 * (H @ x)

    def hessian(x):
        q = float(x @ H @ x)
        hx = H @ x
        c1 = 2.0 * alpha * q ** (alpha - 1.0)
        if q > 0.0:
            c2 = 4.0 * alpha * (alpha - 1.0) * q ** (alpha - 2.0)
        else:
            c2 = 8.0 if alpha == 2.0 else 0.0
        return c1 * H + c2 * np.outer(hx, hx)

    return ObjectiveOracle(
        dim=n,
        value=value,
        gradient=gradient,
        hessian=hessian,
        name=name,
    )


def _build_quad_family(spec: ProblemSpec) -> Problem:
    if not spec.h_list:
        raise ValueError("quad_family needs a nonempty h_list")
    mats = [np.atleast_2d(np.asarray(H, dtype=np.float64)) for H in spec.h_list]
    alphas = tuple(spec.alpha_list) or (1.0,) * len(mats)
    if len(alphas) != len(mats):
        raise ValueError("h_list and alpha_list lengths differ")
    n = mats[0].shape[0]
    oracles = tuple(
        _power_quad_oracle(H, a, f"quad_f{i + 1}")
        for i, (H, a) in enumerate(zip(mats, alphas))
    )
    objectives = ObjectiveSet(oracles)
    optimum = OptimalInfo(x_star=np.zeros(n), f_star=np.zeros(len(mats)))
    pure_quad = all(a == 1.0 for a in alphas)
    if pure_quad:  # stacked once the set has checked the shared dimension
        objectives = replace(objectives, stacked=_QuadraticStack(mats))
    beta = 2.0 * max(np.linalg.eigvalsh(H)[-1] for H in mats) if pure_quad else None
    meta = ProblemMeta(
        beta=beta, mu_g=None, mu_l=None, m_self=0.0 if pure_quad else None
    )
    return Problem(objectives, optimum, meta, x0=np.ones(n), spec=spec)


# ---------------------------------------------------------------------------
# Two-layer network matching
# ---------------------------------------------------------------------------


class _TwoLayerMatching:
    """Shared forward machinery for the network-matching objectives.

    A student network h(x) = W2 act(W1 x + b1) + b2 must reproduce targets
    t(x) generated by a fixed teacher of the same architecture (plus a
    constant output offset, folded into the effective teacher's b2 so the
    targets stay exactly representable).  Objective i averages
    (r' H_i r)^alpha_i over the dataset, r = h(x) - t(x).

    ``evaluate`` is the stacked evaluator of ``ObjectiveSet``: one forward
    pass gives the values, the gradients and, on demand, the Hessian
    diagonals of all objectives, with products batched over the stacked H_i.
    Each oracle runs the same pass for its objective alone, so a query of one
    objective does one objective's backward work, not m.  The powers q^alpha
    (numpy's scalar-exponent fast paths) and p1 @ A^2 stay per objective
    because their batched forms round differently.  Every H_i is diagonal,
    and the Hessian diagonal uses only the diagonals.

    The Hessian diagonal skips exactly-zero terms: the C2 = 4 alpha (alpha-1)
    q^(alpha-2) terms of the objectives with alpha = 1 (all but ``bent``),
    and for relu the act'' = 0 term, with act' (0 or 1) for act'^2.  A skipped
    +0.0 only ever turned -0.0 into +0.0, which the + 0.0 on g2 keeps, so the
    bits equal the full form's wherever it is finite (it gave NaN for
    alpha = 1 at a subnormal q).
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        d_i, h, d_o = spec.input_dim, spec.hidden, spec.output_dim
        if min(d_i, h, d_o, spec.dataset_size) < 1:
            raise ValueError("network and dataset sizes must be positive")
        if spec.activation not in ("relu", "softplus"):
            raise ValueError(f"unknown activation {spec.activation!r}")
        self.sizes = (d_i, h, d_o)
        self.n_params = d_i * h + h + h * d_o + d_o

        teacher_seq, data_seq, student_seq = np.random.SeedSequence(
            spec.seed
        ).spawn(3)
        t_rng = np.random.default_rng(teacher_seq)
        tw1 = t_rng.normal(scale=np.sqrt(2.0 / d_i), size=(h, d_i))
        tb1 = t_rng.normal(scale=0.1, size=h)
        tw2 = t_rng.normal(scale=np.sqrt(2.0 / h), size=(d_o, h))
        tb2 = t_rng.normal(scale=0.1, size=d_o)

        d_rng = np.random.default_rng(data_seq)
        self.X = d_rng.uniform(-1.0, 1.0, size=(spec.dataset_size, d_i))
        self.X2 = self.X**2
        # The constant target offset is folded into the effective teacher's
        # output bias, so theta_star reproduces the targets bitwise and every
        # objective attains exactly zero there.
        eff_b2 = tb2 + spec.target_offset
        self.targets = self._act(self.X @ tw1.T + tb1) @ tw2.T + eff_b2
        self.theta_star = self.pack(tw1, tb1, tw2, eff_b2)

        s_rng = np.random.default_rng(student_seq)
        self.theta0 = self.pack(
            s_rng.normal(scale=np.sqrt(2.0 / d_i), size=(h, d_i)),
            np.zeros(h),
            s_rng.normal(scale=np.sqrt(2.0 / h), size=(d_o, h)),
            np.zeros(d_o),
        )

        if spec.variant == "selection":
            h_mats = [np.diag(np.r_[1.0, np.full(d_o - 1, 0.01**i)]) for i in range(3)]
            alphas = (1.0, 1.0, 1.0)
        elif spec.variant == "local_curvature":
            h_mats = [np.eye(d_o) for _ in range(3)]
            alphas = (1.0, 1.5, 2.0)
        else:
            raise ValueError(f"unknown mlp variant {spec.variant!r}")
        self._set_objectives(h_mats, alphas)

    def _set_objectives(self, h_mats, alphas) -> None:
        """Objective i weights the residual by h_mats[i] with power alphas[i];
        ``bent`` is the slice of the objectives with alpha != 1."""
        self.h_stack = np.stack(h_mats)
        self.hdiag = np.diagonal(self.h_stack, axis1=1, axis2=2).copy()
        d_o = self.h_stack.shape[-1]
        if not np.array_equal(self.h_stack, self.hdiag[:, :, None] * np.eye(d_o)):
            raise ValueError("every output weighting H_i must be diagonal")
        self.alphas = tuple(alphas)
        self.m = len(self.alphas)
        bent = [k for k, a in enumerate(self.alphas) if a != 1.0]
        self.bent = slice(bent[0], bent[-1] + 1) if bent else slice(0)
        if len(self.alphas[self.bent]) != len(bent):
            raise ValueError("the objectives with alpha != 1 must be adjacent")

    def _objective(self, i: int) -> "_TwoLayerMatching":
        """This network with objective i alone, for that objective's oracle:
        a shallow copy that shares the data and has its own objective rows."""
        one = copy(self)
        one._set_objectives(self.h_stack[i : i + 1], self.alphas[i : i + 1])
        return one

    def pack(self, w1, b1, w2, b2) -> Array:
        lead = b1.shape[:-1]  # (k,) when packing k stacked parameter sets
        return np.concatenate(
            [w1.reshape(*lead, -1), b1, w2.reshape(*lead, -1), b2], axis=-1
        )

    def unpack(self, theta: Array):
        d_i, h, d_o = self.sizes
        i0 = h * d_i
        w1 = theta[:i0].reshape(h, d_i)
        b1 = theta[i0 : i0 + h]
        i1 = i0 + h
        w2 = theta[i1 : i1 + d_o * h].reshape(d_o, h)
        b2 = theta[i1 + d_o * h :]
        return w1, b1, w2, b2

    def _act(self, z):
        if self.spec.activation == "relu":
            return np.maximum(z, 0.0)
        return np.logaddexp(0.0, z)

    def _act_prime(self, z):
        if self.spec.activation == "relu":
            return (z > 0.0).astype(np.float64)
        return 1.0 / (1.0 + np.exp(-z))

    def _act_second(self, z):
        if self.spec.activation == "relu":
            return np.zeros_like(z)
        s = 1.0 / (1.0 + np.exp(-z))
        return s * (1.0 - s)

    def _forward(self, theta: Array):
        w1, b1, w2, b2 = self.unpack(np.ascontiguousarray(theta, np.float64))
        Z = self.X @ w1.T + b1
        A = self._act(Z)
        R = A @ w2.T + b2 - self.targets
        return w2, Z, A, R

    def _per_sample(self, R: Array):
        """Per-sample losses q = r'H r and the products H r, one row per objective."""
        V = np.matmul(R, self.h_stack)
        return np.einsum("nd,knd->kn", R, V), V

    @staticmethod
    def _curvature(q: Array, alpha: float) -> Array:
        """4 alpha (alpha-1) q^(alpha-2), with its limit where q = 0."""
        if alpha == 2.0:
            return np.full_like(q, 8.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            c2 = 4.0 * alpha * (alpha - 1.0) * q ** (alpha - 2.0)
        return np.where(q > 0.0, c2, 0.0) if alpha < 2.0 else c2

    def evaluate(self, theta: Array):
        """(values, gradients, diagonals) of every objective from one forward
        pass; ``diagonals()`` forms the Hessian diagonals from that pass."""
        w2, Z, A, R = self._forward(theta)
        q, V = self._per_sample(R)
        fvals = np.stack([qk**a for a, qk in zip(self.alphas, q)]).mean(axis=1)
        N = R.shape[0]
        # Per-sample weights 2 alpha q^(alpha-1), one row per objective.
        p1 = np.stack([2 * a * qk ** (a - 1) for a, qk in zip(self.alphas, q)])
        U = p1[:, :, None] * V
        gw2 = np.matmul(U.transpose(0, 2, 1), A) / N
        gb2 = U.sum(axis=1) / N
        S = np.matmul(U, w2) * self._act_prime(Z)
        gw1 = np.matmul(S.transpose(0, 2, 1), self.X) / N
        gb1 = S.sum(axis=1) / N
        grads = self.pack(gw1, gb1, gw2, gb2)
        return fvals, grads, partial(self._diag_hessians, w2, Z, A, q, V, p1)

    def _diag_hessians(self, w2, Z, A, q, V, p1) -> Array:
        """Exact parameterwise second derivatives (almost everywhere for relu).

        Each single parameter enters the network output linearly except
        through the activation, so the only network-curvature term is the
        activation's second derivative; the rest is the output-space loss
        curvature pushed through squared per-parameter sensitivities.
        """
        hdiag, N, bent = self.hdiag, Z.shape[0], self.bent
        relu = self.spec.activation == "relu"

        A2 = A**2
        dw2 = hdiag[:, :, None] * np.stack([pk @ A2 for pk in p1])[:, None, :] / N
        db2 = hdiag * np.mean(p1, axis=1)[:, None]
        # + 0.0 turns a -0.0 into +0.0, as the skipped + C2 S^2 did.
        g2 = np.einsum("oj,ko,oj->kj", w2, hdiag, w2) + 0.0
        coeff = p1[:, :, None] * g2[:, None, :]
        S = None if relu else np.matmul(V, w2)
        if self.alphas[bent]:  # C2 = 0 for every other objective
            c2 = np.stack(
                [self._curvature(qk, a) for qk, a in zip(q[bent], self.alphas[bent])]
            )[:, :, None]
            CV2 = c2 * V[bent] ** 2
            dw2[bent] += np.einsum("kno,nj->koj", CV2, A2) / N
            db2[bent] += CV2.sum(axis=1) / N
            coeff[bent] += c2 * (np.matmul(V[bent], w2) if relu else S[bent]) ** 2
        d1 = self._act_prime(Z)
        if relu:
            coeff *= d1
        else:
            coeff = coeff * d1**2 + (p1[:, :, None] * S) * self._act_second(Z)
        dw1 = np.matmul(coeff.transpose(0, 2, 1), self.X2) / N
        db1 = coeff.sum(axis=1) / N
        return self.pack(dw1, db1, dw2, db2)

    def mismatch(self, theta: Array) -> tuple[float, float]:
        """(msq, mnorm): the mean squared and the mean Euclidean norm of the
        output mismatch with the teacher, from one forward pass."""
        *_, R = self._forward(theta)
        msq = float(np.mean(np.einsum("nd,nd->n", R, R)))
        return msq, float(np.mean(np.linalg.norm(R, axis=1)))

    def oracles(self) -> tuple[ObjectiveOracle, ...]:
        def make(i: int) -> ObjectiveOracle:
            one = self._objective(i)
            return ObjectiveOracle(
                dim=self.n_params,
                value=lambda th: float(one.evaluate(th)[0][0]),
                gradient=lambda th: one.evaluate(th)[1][0],
                diag_hessian=lambda th: one.evaluate(th)[2]()[0],
                name=f"match_f{i + 1}",
            )

        return tuple(make(i) for i in range(self.m))


def build_mlp_matching(spec: ProblemSpec) -> Problem:
    """Construct the network-matching problem for the given spec."""
    model = _TwoLayerMatching(spec)
    objectives = ObjectiveSet(model.oracles(), stacked=model)
    optimum = OptimalInfo(x_star=model.theta_star, f_star=np.zeros(model.m))
    meta = ProblemMeta(beta=None, mu_g=None, mu_l=None, m_self=None)
    return Problem(
        objectives,
        optimum,
        meta,
        x0=model.theta0,
        spec=spec,
        mismatch=model.mismatch,
    )


# ---------------------------------------------------------------------------
# Misalignment
# ---------------------------------------------------------------------------


def _shifted_oracle(oracle: ObjectiveOracle, shift: Array) -> ObjectiveOracle:
    s = np.array(shift, dtype=np.float64)
    return ObjectiveOracle(
        dim=oracle.dim,
        value=lambda x: oracle.value(x - s),
        gradient=lambda x: oracle.gradient(x - s),
        hessian=(
            None if oracle.hessian is None else (lambda x: oracle.hessian(x - s))
        ),
        diag_hessian=(
            None
            if oracle.diag_hessian is None
            else (lambda x: oracle.diag_hessian(x - s))
        ),
        name=f"{oracle.name}_shifted",
    )


def misalign(base: Problem, shifts) -> Problem:
    """Shift objective i by s_i, producing an approximately aligned instance.

    The reported optimum is the point minimizing the worst objective gap
    (found numerically), and ``alignment_eps`` is that minimax gap, so the
    set of alignment_eps-approximate solutions is nonempty by construction.
    Curvature constants are inherited from the base problem.
    """
    if base.optimum.x_star is None or base.optimum.f_star is None:
        raise ValueError("misalign needs a base problem with a known optimum")
    shifts = np.asarray(shifts, dtype=np.float64)
    m, n = base.objectives.m, base.objectives.dim
    if shifts.shape != (m, n):
        raise ValueError(f"shifts must have shape ({m}, {n}), got {shifts.shape}")
    if not np.all(np.isfinite(shifts)):
        raise ValueError("shifts must be finite")

    oracles = tuple(
        _shifted_oracle(o, shifts[i])
        for i, o in enumerate(base.objectives.objectives)
    )
    objectives = ObjectiveSet(oracles)
    f_min = np.array(base.optimum.f_star)

    def worst_gap(x: Array) -> float:
        return float(np.max(objectives.values(x) - f_min))

    if np.allclose(shifts, 0.0):
        x_ref = np.array(base.optimum.x_star)
        eps = 0.0
    else:
        x_init = base.optimum.x_star + shifts.mean(axis=0)
        res = optimize.minimize(
            worst_gap,
            x_init,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000,
                     "maxfev": 20000},
        )
        x_ref = res.x
        eps = max(worst_gap(x_ref), 0.0)

    optimum = OptimalInfo(x_star=x_ref, f_star=f_min, alignment_eps=eps)
    spec = ProblemSpec(
        kind="misaligned", base=base.spec, shifts=tuple(map(tuple, shifts))
    )
    return Problem(objectives, optimum, base.meta, x0=np.array(base.x0), spec=spec)


def _build_misaligned(spec: ProblemSpec) -> Problem:
    return misalign(build(spec.base), np.asarray(spec.shifts))


@dataclass(frozen=True)
class ProblemKind:
    """A buildable problem kind: its builder, the ``ProblemSpec`` fields it
    reads besides ``kind``, and a one-line description."""

    build: Callable[[ProblemSpec], Problem]
    params: tuple[str, ...]
    summary: str


KINDS = {
    "specification": ProblemKind(
        _build_specification, ("delta",), "two 2-D quadratics, weakly curved alone"
    ),
    "selection": ProblemKind(
        _build_selection,
        ("delta", "m", "n"),
        "m-1 weak quadratics plus one well-conditioned",
    ),
    "local_curvature": ProblemKind(
        _build_local_curvature, ("n",), "exp(x)-x against its mirror image"
    ),
    "quad_family": ProblemKind(
        _build_quad_family,
        ("h_list", "alpha_list"),
        "generalized quadratics (x'Hx)^alpha",
    ),
    "mlp_matching": ProblemKind(
        build_mlp_matching,
        (
            "variant",
            "input_dim",
            "hidden",
            "output_dim",
            "dataset_size",
            "seed",
            "activation",
            "target_offset",
        ),
        "two-layer network matches a fixed teacher",
    ),
    "misaligned": ProblemKind(
        _build_misaligned, ("base", "shifts"), "per-objective shifts of a base problem"
    ),
}


def build(spec: ProblemSpec) -> Problem:
    """Build the problem described by ``spec``."""
    return KINDS[spec.kind].build(spec)
