"""Benchmark problem factory.

Analytic families with a shared minimizer at the origin:

* ``specification(delta)``   two 2-D quadratics, each barely curved on its
  own axis; equal weighting restores unit curvature.
* ``selection(delta, m, n)`` m-1 copies of a weakly curved quadratic plus
  one well-conditioned objective worth selecting.
* ``local_curvature(n)``     coordinatewise exp(x)-1-x against its mirror
  image, where the better-curved objective depends on the sign of x.
* ``quad_family(h_list, alpha_list)`` generalized quadratics
  (x'Hx)^alpha.

``mlp_matching`` trains one two-layer network to match a fixed one under
several output-weighted losses, and ``misalign`` shifts each objective of a
base problem to produce approximately aligned instances.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy import optimize

from .core import Array, NumericError, ObjectiveSet, OptimalInfo
from .linalg import SYMMETRY_TOL, check_symmetric


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


class _QuadraticStack:
    """(x'H_i x)^alpha_i for H of shape (m, n, n), at one point x (n,) or one
    per objective (m, n), objective i at row i, by one code path: row i of
    ``vecdot(vecmat(x, H), x)`` and ``matvec(H, x)`` has the bits of the
    one-objective ``(x_i @ H_i).dot(x_i)`` and ``H_i @ x_i``, which a matvec
    ``(x @ H) @ x`` would not.  The rows with alpha != 1 (``bent``) apply
    the power formulas to their own q_i and H_i x_i; without them, every
    pass returns the same callables ``_flat``, as nothing they give depends on x.
    """

    def __init__(self, mats, alphas):
        self.H = np.stack(mats)
        self.bent = [(k, a) for k, a in enumerate(alphas) if a != 1.0]
        self._flat = partial(self._diagonals, [], None), partial(self._hessians, [], None)

    def objectives(self) -> ObjectiveSet:
        m, n = self.H.shape[:2]
        return ObjectiveSet(m, n, self.evaluate, True)

    def _products(self, x: Array):
        return np.vecdot(np.vecmat(x, self.H), x), np.matvec(self.H, x)

    def _bends(self, q: Array):
        """(k, c1, c2) per bent row k: its Hessian is c1 H_k + c2 (H_k x)(H_k x)'."""
        for k, a in self.bent:
            qk, c2 = float(q[k]), 8.0 if a == 2.0 else 0.0  # c2's limit at q = 0
            c2 = 4.0 * a * (a - 1.0) * qk ** (a - 2.0) if qk > 0.0 else c2
            yield k, 2.0 * a * qk ** (a - 1.0), c2

    def evaluate(self, x: Array):
        q, hx = self._products(x)
        if not self.bent:
            return q, 2.0 * hx, *self._flat
        J, bends = 2.0 * hx, list(self._bends(q))
        for k, a in self.bent:
            J[k] = a * float(q[k]) ** (a - 1.0) * 2.0 * hx[k]
            q[k] = q[k] ** a
        return q, J, partial(self._diagonals, bends, hx), partial(self._hessians, bends, hx)

    def _diagonals(self, bends, hx: Array) -> Array:
        D = 2.0 * np.diagonal(self.H, axis1=1, axis2=2)
        for k, c1, c2 in bends:
            D[k] = c1 * np.diagonal(self.H[k]) + c2 * (hx[k] * hx[k])
        return D

    def _hessians(self, bends, hx: Array) -> Array:
        out = 2.0 * self.H
        for k, c1, c2 in bends:
            out[k] = c1 * self.H[k] + c2 * np.outer(hx[k], hx[k])
        return out


def _at_origin(spec: ProblemSpec, objectives: ObjectiveSet, meta: ProblemMeta) -> Problem:
    """A problem minimized at the origin, started from the all-ones point."""
    n = objectives.dim
    return Problem(objectives, OptimalInfo(x_star=np.zeros(n)), meta, np.ones(n), spec)


def _build_specification(spec: ProblemSpec) -> Problem:
    delta = spec.delta
    mats = [np.diag([1.0 - delta, delta]), np.diag([delta, 1.0 - delta])]
    meta = ProblemMeta(beta=2.0 * (1.0 - delta), mu_g=1.0, mu_l=1.0, m_self=0.0)
    return _at_origin(spec, _QuadraticStack(mats, (1.0, 1.0)).objectives(), meta)


def _build_selection(spec: ProblemSpec) -> Problem:
    delta, m, n = spec.delta, spec.m, spec.n
    if m < 2 or n < 1:
        raise ValueError("selection needs m >= 2 objectives and n >= 1 dims")
    weak = np.diag(np.r_[1.0 - delta, np.full(n - 1, delta)])
    mats = [weak] * (m - 1) + [np.eye(n)]
    meta = ProblemMeta(beta=2.0, mu_g=2.0, mu_l=2.0, m_self=0.0)
    return _at_origin(spec, _QuadraticStack(mats, (1.0,) * m).objectives(), meta)


def _build_local_curvature(spec: ProblemSpec) -> Problem:
    n = spec.n
    if n < 1:
        raise ValueError("local_curvature needs n >= 1")

    signs, eye = np.array([[1.0], [-1.0]]), np.eye(n, dtype=bool)

    def evaluate(x):
        # expm1, not exp - 1: near the minimum 0 the values do not cancel against 1.
        sx = signs * x
        e = np.expm1(sx)
        hessians = lambda: np.where(eye, np.exp(sx)[:, :, None], 0.0)  # noqa: E731
        return np.sum(e - sx, axis=1), signs * e, lambda: np.exp(sx), hessians

    # On |x_j| <= 2, the region the bundled runs use, beta = e^2 holds, and so
    # does the suite's inequality with M = 1.  But |f'''| / f''^1.5 = e^(-+x/2),
    # so |f'''| <= 2M f''^1.5 (Nesterov 2018, 5.1) holds at M = 1 only on |x_j| <= 2 ln 2.
    meta = ProblemMeta(beta=float(np.exp(2.0)), mu_g=1.0, mu_l=1.0, m_self=1.0)
    return _at_origin(spec, ObjectiveSet(2, n, evaluate, True), meta)


def _build_quad_family(spec: ProblemSpec) -> Problem:
    if not spec.h_list:
        raise ValueError("quad_family needs a nonempty h_list")
    mats = [np.atleast_2d(np.asarray(H, dtype=np.float64)) for H in spec.h_list]
    alphas = tuple(spec.alpha_list) or (1.0,) * len(mats)
    if len(alphas) != len(mats):
        raise ValueError("h_list and alpha_list lengths differ")
    # 2Hx is the gradient of x'Hx only for a symmetric H, and the origin
    # (f* = 0) its minimizer only for a positive semidefinite one.
    tops = []
    for i, H in enumerate(mats):
        try:
            symmetric = check_symmetric(H)
        except ValueError as exc:
            raise ValueError(f"h_list[{i}]: {exc}") from None
        evals = np.linalg.eigvalsh(symmetric)
        if evals[0] < -SYMMETRY_TOL * (1.0 + np.abs(H).max()):
            raise ValueError(
                f"h_list[{i}] is not positive semidefinite (eigenvalue {evals[0]:.3g})"
            )
        tops.append(evals[-1])
    n = mats[0].shape[0]
    if any(H.shape != (n, n) for H in mats):
        raise ValueError("h_list matrices disagree on size")
    if min(alphas) < 1.0:
        raise ValueError(f"alpha must be >= 1, got {min(alphas)}")
    pure_quad = all(a == 1.0 for a in alphas)
    beta = 2.0 * max(tops) if pure_quad else None
    meta = ProblemMeta(
        beta=beta, mu_g=None, mu_l=None, m_self=0.0 if pure_quad else None
    )
    return _at_origin(spec, _QuadraticStack(mats, alphas).objectives(), meta)


# ---------------------------------------------------------------------------
# Two-layer network matching
# ---------------------------------------------------------------------------

TARGET_OFFSET = 10.0  # on every target: the student (output bias 0) starts far off


class _TwoLayerMatching:
    """Shared forward machinery for the network-matching objectives.

    A student network h(x) = W2 act(W1 x + b1) + b2 must reproduce targets
    t(x) generated by a fixed teacher of the same architecture (plus a
    constant output offset, folded into the effective teacher's b2 so the
    targets stay exactly representable).  Objective i averages
    (r' H_i r)^alpha_i over the dataset, r = h(x) - t(x).

    ``evaluate`` is the evaluator of its ``ObjectiveSet``: one forward pass
    gives the values, the gradients and, on demand, the Hessian diagonals of
    all objectives, with products batched over the diagonals ``hdiag`` of
    the H_i (each H_i is diagonal) and written in place into one (m, n)
    array each.  An objective with alpha = 1 takes q for q^alpha and 2 for
    2 alpha q^(alpha-1), both exact, so only the ``bent`` rows compute
    powers (numpy's scalar-exponent fast paths, per objective because their
    batched forms round differently).  The rows p1 @ A^2 stay per objective
    for the same reason; the alpha = 1 rows of p1 are all 2.0 and share one.

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
        eff_b2 = tb2 + TARGET_OFFSET
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
            hdiag = [np.r_[1.0, np.full(d_o - 1, 0.01**i)] for i in range(3)]
            alphas = (1.0, 1.0, 1.0)
        elif spec.variant == "local_curvature":
            hdiag = np.ones((3, d_o))
            alphas = (1.0, 1.5, 2.0)
        else:
            raise ValueError(f"unknown mlp variant {spec.variant!r}")
        self._set_objectives(hdiag, alphas)

    def _set_objectives(self, hdiag, alphas) -> None:
        """Objective i weights the residual by diag(hdiag[i]) with power
        alphas[i]; ``bent`` is the slice of the objectives with alpha != 1."""
        self.hdiag = np.array(hdiag, dtype=np.float64)
        self.alphas = tuple(alphas)
        self.m = len(self.alphas)
        bent = [k for k, a in enumerate(self.alphas) if a != 1.0]
        self.bent = slice(bent[0], bent[-1] + 1) if bent else slice(0)
        if len(self.alphas[self.bent]) != len(bent):
            raise ValueError("the objectives with alpha != 1 must be adjacent")

    def pack(self, w1, b1, w2, b2) -> Array:
        return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])

    def unpack(self, theta: Array):
        """Views of the blocks (w1, b1, w2, b2) of theta.  Leading axes carry
        over, so the rows of an (m, n) array unpack to (m, ...) blocks."""
        d_i, h, d_o = self.sizes
        lead = theta.shape[:-1]
        i0 = h * d_i
        i1 = i0 + h
        i2 = i1 + d_o * h
        w1 = theta[..., :i0].reshape(*lead, h, d_i)
        w2 = theta[..., i1:i2].reshape(*lead, d_o, h)
        return w1, theta[..., i0:i1], w2, theta[..., i2:]

    def _act(self, z):
        if self.spec.activation == "relu":
            return np.maximum(z, 0.0)
        return np.logaddexp(0.0, z)

    def _act_prime(self, z):
        if self.spec.activation == "relu":
            return (z > 0.0).astype(np.float64)
        return 1.0 / (1.0 + np.exp(-z))

    def _forward(self, theta: Array):
        w1, b1, w2, b2 = self.unpack(np.ascontiguousarray(theta, np.float64))
        Z = self.X @ w1.T + b1
        A = self._act(Z)
        R = A @ w2.T + b2 - self.targets
        return w2, Z, A, R

    def _per_sample(self, R: Array):
        """Per-sample losses q = r'H r and the products H r, one row per objective."""
        V = R * self.hdiag[:, None, :]
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
        """(values, gradients, diagonals, None: no Hessians) of every objective
        from one forward pass; ``diagonals()`` forms the diagonals from it."""
        if theta.ndim == 2:  # one point per objective: row i of the pass at row i
            rows = [(i, self.evaluate(t)) for i, t in enumerate(theta)]
            values, J = (np.stack([p[k][i] for i, p in rows]) for k in (0, 1))
            return values, J, lambda: np.stack([p[2]()[i] for i, p in rows]), None
        w2, Z, A, R = self._forward(theta)
        q, V = self._per_sample(R)
        N = R.shape[0]
        # q^alpha, and the per-sample weights 2 alpha q^(alpha-1), one row per
        # objective; the alpha = 1 rows are q and 2.0 exactly.
        powers = range(self.m)[self.bent]
        qa, p1 = (q.copy() if powers else q), np.full(q.shape, 2.0)
        for k in powers:
            a = self.alphas[k]
            qa[k] = q[k] ** a
            p1[k] = 2 * a * q[k] ** (a - 1)
        fvals = np.add.reduce(qa, axis=1) / N
        U = p1[:, :, None] * V
        J = np.empty((self.m, self.n_params))
        gw1, gb1, gw2, gb2 = self.unpack(J)
        np.matmul(U.transpose(0, 2, 1), A, out=gw2)
        np.add.reduce(U, axis=1, out=gb2)
        d1 = self._act_prime(Z)
        S = np.matmul(U, w2)
        S *= d1
        np.matmul(S.transpose(0, 2, 1), self.X, out=gw1)
        np.add.reduce(S, axis=1, out=gb1)
        J /= N
        return fvals, J, partial(self._diag_hessians, w2, d1, A, q, V, p1), None

    def _diag_hessians(self, w2, d1, A, q, V, p1) -> Array:
        """Exact parameterwise second derivatives (almost everywhere for relu),
        with ``d1`` the act' of the pass.

        Each single parameter enters the network output linearly except
        through the activation, so the only network-curvature term is the
        activation's second derivative; the rest is the output-space loss
        curvature pushed through squared per-parameter sensitivities.
        """
        hdiag, N, bent = self.hdiag, A.shape[0], self.bent
        relu = self.spec.activation == "relu"
        D = np.empty((self.m, self.n_params))
        dw1, db1, dw2, db2 = self.unpack(D)

        A2 = A**2
        # Every alpha = 1 row of p1 is 2.0, so those rows share one dot.
        flat = next((pk @ A2 for a, pk in zip(self.alphas, p1) if a == 1.0), None)
        P = np.stack([flat if a == 1.0 else pk @ A2 for a, pk in zip(self.alphas, p1)])
        np.divide(hdiag[:, :, None] * P[:, None, :], N, out=dw2)
        np.multiply(hdiag, (np.add.reduce(p1, axis=1) / N)[:, None], out=db2)
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
            db2[bent] += np.add.reduce(CV2, axis=1) / N
            coeff[bent] += c2 * (np.matmul(V[bent], w2) if relu else S[bent]) ** 2
        if relu:
            coeff *= d1
        else:  # softplus: act'' = s (1 - s) with s = act'
            coeff = coeff * d1**2 + (p1[:, :, None] * S) * (d1 * (1.0 - d1))
        np.divide(np.matmul(coeff.transpose(0, 2, 1), self.X2), N, out=dw1)
        np.divide(np.add.reduce(coeff, axis=1), N, out=db1)
        return D

    def mismatch(self, theta: Array) -> tuple[float, float]:
        """(msq, mnorm): the mean squared and the mean Euclidean norm of the
        output mismatch with the teacher, from one forward pass."""
        *_, R = self._forward(theta)
        msq = float(np.mean(np.einsum("nd,nd->n", R, R)))
        return msq, float(np.mean(np.linalg.norm(R, axis=1)))


def build_mlp_matching(spec: ProblemSpec) -> Problem:
    """Construct the network-matching problem for the given spec."""
    model = _TwoLayerMatching(spec)
    objectives = ObjectiveSet(model.m, model.n_params, model.evaluate)
    optimum = OptimalInfo(x_star=model.theta_star)
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


def _shifted(base: ObjectiveSet, shifts: Array) -> ObjectiveSet:
    """Objective i of the result is objective i of ``base`` at x - s_i: one
    base pass at the (m, n) points x - shifts gives every value, gradient,
    diagonal and Hessian, each objective evaluated once."""
    shifts = np.array(shifts, dtype=np.float64)
    return ObjectiveSet(base.m, base.dim, lambda x: base.evaluate(x - shifts), base.has_hessians)


# SLSQP's stopping tolerance and iteration cap, and the certificate's tolerance.
_MINIMAX_FTOL, _MINIMAX_MAXITER, _KKT_TOL = 1e-12, 200, 1e-6


def _minimax_point(objectives: ObjectiveSet, x0: Array):
    """(x, eps): a minimizer of max_i f_i(x), the worst gap of objectives that
    are 0 at their own minima, and that value clipped at 0, by SLSQP on the
    epigraph form min t s.t. f_i(x) <= t.  It is judged by its KKT
    certificate, not by SLSQP's status: NNLS seeks simplex weights on the
    objectives within tol (1 + |worst|) of the worst value that cancel their
    gradients (scaled by 1 + max_i |grad f_i|), and a residual above tol =
    ``_KKT_TOL`` raises NumericError.  For convex objectives, as in every
    analytic kind, such a point is the global minimax up to that band and
    residual.
    """
    n, e_n = objectives.dim, np.eye(objectives.dim + 1)[-1]
    res = optimize.minimize(
        lambda z: z[n],
        np.append(x0, np.max(objectives.evaluate(x0)[0])),
        jac=lambda z: e_n,
        method="SLSQP",
        constraints={
            "type": "ineq",
            "fun": lambda z: z[n] - objectives.evaluate(z[:n])[0],
            "jac": lambda z: np.c_[-objectives.evaluate(z[:n])[1], np.ones(objectives.m)],
        },
        options={"ftol": _MINIMAX_FTOL, "maxiter": _MINIMAX_MAXITER},
    )
    x = np.array(res.x[:n])
    fvals, J = objectives.evaluate(x)[:2]
    worst = float(np.max(fvals))
    active = J[fvals >= worst - _KKT_TOL * (1.0 + abs(worst))]
    scale = 1.0 + np.linalg.norm(J, axis=1).max()
    kkt = np.r_[active.T / scale, [np.ones(len(active))]]
    finite = np.isfinite(worst) and np.isfinite(J).all()  # else kkt is empty or fake
    residual = optimize.nnls(kkt, e_n)[1] if finite else np.inf
    if not residual <= _KKT_TOL:
        raise NumericError(
            f"misalign: minimax point not certified, KKT residual {residual:.3g} "
            f"after {res.nit} SLSQP iterations ({res.message})"
        )
    return x, max(worst, 0.0)


def misalign(base: Problem, shifts) -> Problem:
    """Shift objective i by s_i, producing an approximately aligned instance.

    The reported optimum is the minimax point of the objectives, each still 0
    at its own minimum, which ``_minimax_point`` certifies or raises
    NumericError; alignment_eps is that minimax value, so
    alignment_eps-approximate solutions exist.
    Curvature constants are inherited from the base problem.
    """
    shifts = np.asarray(shifts, dtype=np.float64)
    m, n = base.objectives.m, base.objectives.dim
    if shifts.shape != (m, n):
        raise ValueError(f"shifts must have shape ({m}, {n}), got {shifts.shape}")
    if not np.all(np.isfinite(shifts)):
        raise ValueError("shifts must be finite")

    objectives = _shifted(base.objectives, shifts)
    x_ref, eps = np.array(base.optimum.x_star), 0.0
    if shifts.any():
        x_ref, eps = _minimax_point(objectives, x_ref + shifts.mean(axis=0))

    optimum = OptimalInfo(x_star=x_ref, alignment_eps=eps)
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
        _build_local_curvature, ("n",), "exp(x)-1-x against its mirror image"
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
        ),
        "two-layer network matches a fixed teacher",
    ),
    "misaligned": ProblemKind(
        _build_misaligned, ("base", "shifts"), "per-objective shifts of a base problem"
    ),
}


def build(spec: ProblemSpec) -> Problem:
    """Build the problem described by ``spec``."""
    if "delta" in KINDS[spec.kind].params and not 0.0 <= spec.delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {spec.delta}")
    return KINDS[spec.kind].build(spec)
