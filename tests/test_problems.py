"""Benchmark factory: analytic constants, network matching, misalignment."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from amoo import problems
from amoo.core import NumericError
from amoo.linalg import min_eigenpair, weighted_hessian
from amoo.problems import (
    KINDS,
    ProblemSpec,
    _QuadraticStack,
    _TwoLayerMatching,
    build,
    build_mlp_matching,
    misalign,
)


def fd_gradient(value, x, rel_step=1e-6):
    """Central differences of ``value`` at x, one column per coordinate; the
    last axis of the result runs over the coordinates of x."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for j in range(len(x)):
        h = rel_step * max(abs(x[j]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((value(xp) - value(xm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def model_of(objectives):
    """The network behind a network-matching set."""
    return objectives.evaluator.__self__


class TestAnalyticKinds:
    def test_specification_hessians_constant(self):
        problem = build(ProblemSpec(kind="specification", delta=0.1))
        rng = np.random.default_rng(40)
        for _ in range(3):
            x = rng.normal(size=2)
            H1 = problem.objectives.hessians(x)[0]
            np.testing.assert_allclose(H1, np.diag([1.8, 0.2]), atol=1e-14)
        meta = problem.meta
        assert meta.beta == pytest.approx(1.8)
        assert meta.mu_g == 1.0 and meta.m_self == 0.0

    def test_local_curvature_unit_curvature_at_origin(self):
        problem = build(ProblemSpec(kind="local_curvature", n=1))
        H1, H2 = problem.objectives.hessians([0.0])
        assert H1[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert H2[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert problem.meta.mu_g == 1.0
        # Away from the origin the better-curved objective flips with the sign.
        H1, H2 = problem.objectives.hessians([1.0])
        assert H1[0, 0] > 1.0 and H2[0, 0] < 1.0

    def test_selection_uniform_weight_curvature(self):
        # With m-1 identical weak objectives plus one strong one, uniform
        # weights give the weighted Hessian diag entries
        # 2((m-1)(1-d)+1)/m on x1 and 2((m-1)d+1)/m elsewhere; the smallest
        # is the latter (0.8 here), far below the one-hot optimum of 2.
        problem = build(ProblemSpec(kind="selection", delta=0.1, m=3, n=4))
        mats = problem.objectives.hessians(np.zeros(4))
        lam, _ = min_eigenpair(weighted_hessian(mats, np.array([1 / 3] * 3)))
        expected = 2.0 * ((3 - 1) * 0.1 + 1.0) / 3
        assert lam == pytest.approx(expected, abs=1e-12)
        assert lam == pytest.approx(0.8, abs=1e-12)
        lam_hot, _ = min_eigenpair(
            weighted_hessian(mats, np.array([0.0, 0.0, 1.0]))
        )
        assert lam_hot == pytest.approx(2.0, abs=1e-12)
        assert lam < lam_hot

    def test_selection_uniform_curvature_shrinks_with_m(self):
        values = []
        for m in (2, 4, 8):
            problem = build(ProblemSpec(kind="selection", delta=0.0, m=m, n=3))
            mats = problem.objectives.hessians(np.zeros(3))
            lam, _ = min_eigenpair(
                weighted_hessian(mats, np.array([1.0 / m] * m))
            )
            values.append(lam)
            assert lam == pytest.approx(2.0 / m, abs=1e-12)
        assert values[0] > values[1] > values[2]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build(ProblemSpec(kind="specification", delta=0.7))
        with pytest.raises(ValueError):
            build(ProblemSpec(kind="selection", m=1))
        with pytest.raises(ValueError):
            ProblemSpec(kind="nonsense")
        with pytest.raises(ValueError):
            build(ProblemSpec(kind="quad_family"))

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(41)
        specs = [
            ProblemSpec(kind="specification", delta=0.2),
            ProblemSpec(kind="selection", delta=0.1, m=3, n=3),
            ProblemSpec(kind="local_curvature", n=2),
            ProblemSpec(
                kind="quad_family",
                h_list=(((1.0, 0.2), (0.2, 2.0)),),
                alpha_list=(1.5,),
            ),
        ]
        for spec in specs:
            objs = build(spec).objectives
            for _ in range(100):
                x = rng.normal(size=objs.dim)
                y = rng.normal(size=objs.dim)
                mid = objs.values(0.5 * (x + y))
                assert (mid <= 0.5 * (objs.values(x) + objs.values(y)) + 1e-10).all()

    def test_quad_family_power_gradient(self):
        problem = build(
            ProblemSpec(
                kind="quad_family",
                h_list=(((2.0, 0.5), (0.5, 1.0)),),
                alpha_list=(2.0,),
            )
        )
        objs = problem.objectives
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.normal(size=2)
            np.testing.assert_allclose(
                objs.gradients(x),
                fd_gradient(objs.values, x),
                rtol=1e-4,
                atol=1e-8,
            )
        # Gradient and Hessian stay finite at the optimum.
        assert np.all(np.isfinite(objs.gradients(np.zeros(2))))
        assert np.all(np.isfinite(objs.hessians(np.zeros(2))))


def mlp_objective_reference(model, theta, i):
    """Value, gradient and Hessian diagonal of network-matching objective i,
    computed one objective at a time as first written; the stacked
    evaluation must match it bit for bit."""
    w1, b1, w2, b2 = model.unpack(np.ascontiguousarray(theta))
    Z = model.X @ w1.T + b1
    A = model._act(Z)
    R = A @ w2.T + b2 - model.targets
    H, alpha = np.diag(model.hdiag[i]), model.alphas[i]
    N = R.shape[0]
    V = R @ H
    q = np.einsum("nd,nd->n", R, V)
    p1 = 2.0 * alpha * q ** (alpha - 1.0)
    value = float(np.mean(q**alpha))

    U = p1[:, None] * V
    S = (U @ w2) * model._act_prime(Z)
    grad = model.pack(
        S.T @ model.X / N, S.sum(axis=0) / N, U.T @ A / N, U.sum(axis=0) / N
    )

    with np.errstate(divide="ignore", invalid="ignore"):
        c2 = 4.0 * alpha * (alpha - 1.0) * q ** (alpha - 2.0)
    if alpha == 2.0:
        c2 = np.full_like(q, 8.0)
    elif alpha < 2.0:
        c2 = np.where(q > 0.0, c2, 0.0)
    hdiag = np.diagonal(H)
    g2 = np.einsum("oj,op,pj->j", w2, H, w2)
    S = V @ w2
    X2, A2 = model.X**2, A**2
    dw2 = np.outer(hdiag, p1 @ A2) / N + np.einsum("n,no,nj->oj", c2, V**2, A2) / N
    db2 = hdiag * np.mean(p1) + (c2[:, None] * V**2).sum(axis=0) / N
    d1 = model._act_prime(Z)
    d2 = d1 * (1.0 - d1) if model.spec.activation == "softplus" else np.zeros_like(Z)
    coeff = (p1[:, None] * g2 + c2[:, None] * S**2) * d1**2
    coeff = coeff + (p1[:, None] * S) * d2
    diag = model.pack(coeff.T @ X2 / N, coeff.sum(axis=0) / N, dw2, db2)
    return value, grad, diag


def quad_objective_reference(H, alpha, x):
    """Value, gradient and Hessian of (x'Hx)^alpha, one objective at a time
    as first written; the stacked evaluation must match it bit for bit."""
    if alpha == 1.0:
        return float(x @ H @ x), 2.0 * (H @ x), 2.0 * H
    q = float(x @ H @ x)
    hx = H @ x
    c1 = 2.0 * alpha * q ** (alpha - 1.0)
    if q > 0.0:
        c2 = 4.0 * alpha * (alpha - 1.0) * q ** (alpha - 2.0)
    else:
        c2 = 8.0 if alpha == 2.0 else 0.0
    gradient = alpha * q ** (alpha - 1.0) * 2.0 * hx
    return float((x @ H @ x) ** alpha), gradient, c1 * H + c2 * np.outer(hx, hx)


class TestQuadraticStack:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        n=st.integers(1, 40),
        diagonal=st.booleans(),
        log_scale=st.floats(-10.0, 10.0),
        powers=st.booleans(),
    )
    def test_bitwise_equal_to_each_oracle(self, seed, m, n, diagonal, log_scale, powers):
        rng = np.random.default_rng(seed)
        if diagonal:
            mats = [np.diag(rng.uniform(0.0, 2.0, size=n)) for _ in range(m)]
        else:  # symmetric positive semidefinite, as quad_family requires
            mats = [B @ B.T for B in rng.normal(size=(m, n, n))]
        alphas = tuple(float(a) for a in rng.choice([1.0, 1.5, 2.0, 3.0], size=m))
        problem = build(
            ProblemSpec(
                kind="quad_family",
                h_list=tuple(H.tolist() for H in mats),
                alpha_list=alphas if powers else (),
            )
        )
        objs = problem.objectives
        x = 10.0**log_scale * rng.normal(size=n)
        ref = [
            quad_objective_reference(H, a if powers else 1.0, x)
            for H, a in zip(mats, alphas)
        ]
        values, grads, diags = objs.evaluate(x)
        # tobytes() tells -0.0 from +0.0, which np.array_equal does not.
        assert values.tobytes() == np.array([r[0] for r in ref]).tobytes()
        assert objs.values(x).tobytes() == values.tobytes()
        assert grads.tobytes() == np.stack([r[1] for r in ref]).tobytes()
        assert objs.gradients(x).tobytes() == grads.tobytes()
        hessians = np.stack([r[2] for r in ref])
        assert objs.hessians(x).tobytes() == hessians.tobytes()
        want_diags = np.stack([np.diagonal(H) for H in hessians])
        assert diags().tobytes() == want_diags.tobytes()

    @pytest.mark.parametrize(
        "spec, stacked",
        [
            (ProblemSpec(kind="specification"), True),
            (ProblemSpec(kind="selection", m=3, n=4), True),
            (ProblemSpec(kind="quad_family", h_list=([[1.0]], [[2.0]])), True),
            # Rows with alpha != 1 share the stack and take the power formulas.
            (
                ProblemSpec(
                    kind="quad_family", h_list=([[1.0]], [[2.0]]), alpha_list=(1.0, 2.0)
                ),
                True,
            ),
            (ProblemSpec(kind="local_curvature"), False),
        ],
    )
    def test_pure_quadratic_kinds_are_stacked(self, spec, stacked):
        evaluator = build(spec).objectives.evaluator
        assert isinstance(getattr(evaluator, "__self__", None), _QuadraticStack) == stacked


EVALUATE_CASES = {
    "specification": ProblemSpec(kind="specification", delta=0.2),
    "selection": ProblemSpec(kind="selection", delta=0.1, m=3, n=4),
    "local_curvature": ProblemSpec(kind="local_curvature", n=3),
    "quad_family": ProblemSpec(
        kind="quad_family", h_list=(((2.0, 0.5), (0.5, 1.0)), ((1.0, 0.0), (0.0, 3.0)))
    ),
    "quad_family-alpha": ProblemSpec(
        kind="quad_family",
        h_list=(((2.0, 0.5), (0.5, 1.0)), ((1.0, -0.3), (-0.3, 3.0))),
        alpha_list=(1.0, 1.5),
    ),
    "mlp_matching-selection": ProblemSpec(kind="mlp_matching", variant="selection"),
    "mlp_matching-local_curvature": ProblemSpec(
        kind="mlp_matching", variant="local_curvature", activation="softplus"
    ),
    "misaligned": ProblemSpec(
        kind="misaligned",
        base=ProblemSpec(kind="specification"),
        shifts=((0.1, 0.2), (-0.1, 0.05)),
    ),
}


def test_evaluate_cases_cover_every_kind():
    assert {spec.kind for spec in EVALUATE_CASES.values()} == set(KINDS)


@pytest.mark.parametrize("case", list(EVALUATE_CASES))
def test_recorded_optimum_is_what_its_name_says(case):
    # The driver measures residuals from x_star, and PAMOO takes the values
    # as its gaps, with no check of its own.
    problem = build(EVALUATE_CASES[case])
    objs, opt = problem.objectives, problem.optimum
    assert opt.x_star.shape == (objs.dim,)
    assert np.isfinite(opt.x_star).all()
    assert opt.f_star == 0.0
    # x_star is within alignment_eps of every objective's minimum 0: at that
    # value exactly for a misaligned problem's minimax point, else at 0.
    assert np.max(objs.values(opt.x_star)) == opt.alignment_eps
    # 0 is a lower bound on each objective, at x0 and at random points.
    scales = np.repeat([0.3, 1.0], 10)[:, None]
    points = problem.x0 + scales * np.random.default_rng(5).normal(size=(20, objs.dim))
    for x in (problem.x0, evaluate_point(problem, "random"), *points):
        assert (objs.values(x) >= 0.0).all()


def evaluate_point(problem, point):
    rng = np.random.default_rng(3)
    x = {
        "x0": problem.x0,
        "x_star": problem.optimum.x_star,
        "random": problem.x0 + 0.3 * rng.normal(size=problem.objectives.dim),
    }[point]
    return np.array(x, dtype=np.float64)


@pytest.mark.parametrize("point", ["x0", "x_star", "random"])
@pytest.mark.parametrize("case", list(EVALUATE_CASES))
def test_evaluate_is_values_and_gradients(case, point):
    problem = build(EVALUATE_CASES[case])
    objs = problem.objectives
    x = evaluate_point(problem, point)
    fvals, J, _ = objs.evaluate(x)
    assert fvals.tobytes() == objs.values(x).tobytes()
    assert J.tobytes() == objs.gradients(x).tobytes()


@pytest.mark.parametrize("point", ["x0", "x_star", "random"])
@pytest.mark.parametrize("case", list(EVALUATE_CASES))
def test_evaluate_diagonals_match_reference(case, point):
    problem = build(EVALUATE_CASES[case])
    objs = problem.objectives
    x = evaluate_point(problem, point)
    if objs.hessian_stack is None:
        model = model_of(objs)
        want = [mlp_objective_reference(model, x, i)[2] for i in range(objs.m)]
    else:
        want = [np.diagonal(H) for H in objs.hessians(x)]
    assert objs.evaluate(x)[2]().tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("case", list(EVALUATE_CASES))
def test_derivatives_match_finite_differences(case):
    # Gradients against central differences of the values; where a kind has
    # Hessians, they are symmetric, match central differences of the
    # gradients, and hold the diagonals that ``evaluate`` gives.
    problem = build(EVALUATE_CASES[case])
    objs = problem.objectives
    x = evaluate_point(problem, "random")
    fvals, J, diag = objs.evaluate(x)
    scale = 1.0 + np.abs(J).max()
    np.testing.assert_allclose(J, fd_gradient(objs.values, x), rtol=1e-5, atol=1e-6 * scale)
    if objs.hessian_stack is None:
        return
    H = objs.hessians(x)
    assert H.shape == (objs.m, objs.dim, objs.dim)
    assert np.abs(H - H.transpose(0, 2, 1)).max() <= 1e-12 * (1.0 + np.abs(H).max())
    fd = fd_gradient(objs.gradients, x)
    np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-6 * (1.0 + np.abs(H).max()))
    assert diag().tobytes() == np.diagonal(H, axis1=1, axis2=2).tobytes()


class TestMlpMatching:
    SMALL = dict(
        kind="mlp_matching",
        input_dim=5,
        hidden=6,
        output_dim=4,
        dataset_size=8,
        seed=7,
    )

    @pytest.mark.parametrize("variant", ["selection", "local_curvature"])
    def test_bent_is_derived_from_the_powers(self, variant):
        model = model_of(build(ProblemSpec(variant=variant, **self.SMALL)).objectives)
        bent = [k for k, a in enumerate(model.alphas) if a != 1.0]
        assert list(range(model.m))[model.bent] == bent
        model._set_objectives(model.hdiag, (1.0, 2.0, 1.5))
        assert model.bent == slice(1, 3)
        with pytest.raises(ValueError, match="adjacent"):
            model._set_objectives(model.hdiag, (1.5, 1.0, 2.0))

    def test_teacher_parameters_attain_zero(self):
        problem = build(ProblemSpec(variant="selection", **self.SMALL))
        theta_star = problem.optimum.x_star
        values = problem.objectives.values(theta_star)
        np.testing.assert_array_equal(values, np.zeros(3))
        assert not problem.objectives.gradients(theta_star).any()
        assert problem.mismatch(theta_star) == (0.0, 0.0)

    def test_msq_positive_away_from_teacher(self):
        problem = build(ProblemSpec(variant="selection", **self.SMALL))
        rng = np.random.default_rng(1)
        for _ in range(5):
            theta = problem.optimum.x_star + 0.1 * rng.normal(
                size=problem.x0.shape
            )
            msq, mnorm = problem.mismatch(theta)
            assert msq > 0.0 and mnorm > 0.0

    def test_deterministic_given_seed(self):
        a = build(ProblemSpec(variant="local_curvature", **self.SMALL))
        b = build(ProblemSpec(variant="local_curvature", **self.SMALL))
        np.testing.assert_array_equal(a.x0, b.x0)
        theta = a.x0
        np.testing.assert_array_equal(
            a.objectives.values(theta), b.objectives.values(theta)
        )
        np.testing.assert_array_equal(
            a.objectives.gradients(theta), b.objectives.gradients(theta)
        )

    def test_gradients_match_fd_smooth_mode(self):
        spec = ProblemSpec(variant="local_curvature", activation="softplus",
                           **self.SMALL)
        problem = build(spec)
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = problem.x0 + 0.2 * rng.normal(size=problem.x0.shape)
            J = problem.objectives.gradients(theta)
            ref = fd_gradient(problem.objectives.values, theta)
            np.testing.assert_allclose(J, ref, rtol=1e-3, atol=1e-6)

    def test_selection_output_weights(self):
        problem = build_mlp_matching(ProblemSpec(variant="selection", **self.SMALL))
        assert problem.objectives.m == 3
        rng = np.random.default_rng(3)
        theta = problem.x0 + 0.1 * rng.normal(size=problem.x0.shape)
        f = problem.objectives.values(theta)
        # Later objectives weigh the non-first outputs down by 0.01 powers.
        assert f[0] > f[1] > f[2] > 0

    def test_relu_diag_hessian_close_to_fd(self):
        # Almost-everywhere second derivatives; 20% tolerance on kinked nets.
        problem = build(ProblemSpec(variant="selection", **self.SMALL))
        rng = np.random.default_rng(4)
        theta = problem.x0 + 0.3 * rng.normal(size=problem.x0.shape)
        gradient = lambda t: problem.objectives.gradients(t)[0]  # noqa: E731
        d = problem.objectives.evaluate(theta)[2]()[0]
        idx = rng.choice(len(theta), size=24, replace=False)
        scale = np.abs(d).max()
        for j in idx:
            h = 1e-5 * (1.0 + abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (gradient(tp)[j] - gradient(tm)[j]) / (2 * h)
            assert abs(fd - d[j]) <= 0.2 * scale + 1e-8

    @pytest.mark.parametrize("variant", ["selection", "local_curvature"])
    @pytest.mark.parametrize("activation", ["relu", "softplus"])
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        near_star=st.booleans(),
        log_scale=st.one_of(st.none(), st.floats(-12.0, 0.5)),
    )
    @example(seed=0, near_star=True, log_scale=None)  # theta_star itself, q = 0
    def test_stacked_evaluation_matches_each_oracle(
        self, variant, activation, seed, near_star, log_scale
    ):
        problem = build(
            ProblemSpec(kind="mlp_matching", variant=variant, activation=activation)
        )
        objs = problem.objectives
        theta = np.array(problem.optimum.x_star if near_star else problem.x0)
        if log_scale is not None:
            rng = np.random.default_rng(seed)
            theta += 10.0**log_scale * rng.normal(size=theta.shape)
        values = objs.values(theta)
        J = objs.gradients(theta)
        D = objs.evaluate(theta)[2]()
        # Each objective computed alone; tobytes() tells -0.0 from +0.0,
        # which np.array_equal does not.
        ref = [mlp_objective_reference(model_of(objs), theta, i) for i in range(objs.m)]
        assert values.tobytes() == np.array([r[0] for r in ref]).tobytes()
        assert J.tobytes() == np.stack([r[1] for r in ref]).tobytes()
        assert D.tobytes() == np.stack([r[2] for r in ref]).tobytes()

    def test_evaluated_problem_is_garbage_collected(self):
        # Nothing may keep the network alive once its problem is dropped,
        # such as a cache keyed on its bound methods.
        problem = build(ProblemSpec(variant="selection", **self.SMALL))
        theta = problem.x0
        problem.objectives.values(theta)
        problem.objectives.gradients(theta)
        problem.objectives.evaluate(theta)[2]()
        problem.mismatch(theta)
        model = weakref.ref(problem.mismatch.__self__)
        del problem
        gc.collect()
        assert model() is None

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            build(ProblemSpec(kind="mlp_matching", hidden=0))
        with pytest.raises(ValueError):
            build(ProblemSpec(kind="mlp_matching", variant="mystery"))


class TestMisalign:
    def quad_1d_pair(self):
        return build(
            ProblemSpec(
                kind="quad_family",
                h_list=(((1.0,),), ((1.0,),)),
                alpha_list=(1.0, 1.0),
            )
        )

    def test_zero_shifts(self):
        base = build(ProblemSpec(kind="specification", delta=0.1))
        shifted = misalign(base, np.zeros((2, 2)))
        assert shifted.optimum.alignment_eps == 0.0
        np.testing.assert_array_equal(shifted.optimum.x_star, base.optimum.x_star)

    def test_tiny_shift_is_solved(self):
        # One 1e-8 shift moves the minimax point by ~3e-9: its worst gap is
        # positive, and reached at the reported x_star.
        base = build(ProblemSpec(kind="selection", delta=0.1, m=3, n=4))
        shifts = np.zeros((3, 4))
        shifts[0, 0] = 1e-8
        shifted = misalign(base, shifts)
        opt = shifted.optimum
        gaps = shifted.objectives.values(opt.x_star) - opt.f_star
        assert opt.alignment_eps > 0.0
        assert opt.alignment_eps == gaps.max()

    def test_symmetric_quadratic_midpoint(self):
        base = self.quad_1d_pair()
        shifted = misalign(base, np.array([[0.0], [0.2]]))
        assert shifted.optimum.x_star[0] == pytest.approx(0.1, abs=1e-6)
        assert shifted.optimum.alignment_eps == pytest.approx(0.01, abs=1e-8)

    def test_specification_shift_matches_grid_minimax(self):
        base = build(ProblemSpec(kind="specification", delta=0.1))
        shifted = misalign(base, np.array([[0.0, 0.0], [0.1, 0.0]]))
        eps = shifted.optimum.alignment_eps
        assert eps > 0
        # Grid minimax oracle over a box around both optima.
        xs = np.linspace(-0.05, 0.15, 401)
        ys = np.linspace(-0.05, 0.05, 101)
        best = np.inf
        for x1 in xs:
            gaps = np.max([shifted.objectives.values([x1, y]) for y in ys], axis=1)
            best = min(best, gaps.min())
        assert eps == pytest.approx(best, abs=1e-5)

    def test_shifted_objectives_keep_own_minima(self):
        base = self.quad_1d_pair()
        shifted = misalign(base, np.array([[0.0], [0.3]]))
        assert shifted.objectives.values([0.0])[0] == 0.0
        assert shifted.objectives.values([0.3])[1] == pytest.approx(0.0, abs=1e-15)

    def test_eps_solution_set_nonempty(self):
        base = build(ProblemSpec(kind="specification", delta=0.1))
        shifted = misalign(base, np.array([[0.0, 0.0], [0.4, 0.1]]))
        x_ref = shifted.optimum.x_star
        eps = shifted.optimum.alignment_eps
        gaps = shifted.objectives.values(x_ref) - shifted.optimum.f_star
        assert (gaps <= eps + 1e-10).all()

    def test_bad_shift_shape(self):
        base = self.quad_1d_pair()
        with pytest.raises(ValueError):
            misalign(base, np.zeros((3, 1)))

    @pytest.mark.parametrize("case", ["run_c", "local_curvature", "network"])
    def test_rows_are_the_base_rows_at_the_shifted_points(self, case):
        # Objective i of a misaligned problem is row i of its base's pass at
        # x - s_i: values, gradients, Hessian diagonals and Hessians alike.
        # The local_curvature base's Hessians, unlike run (c)'s, vary with x.
        spec = {
            "run_c": run_c_problem,
            "local_curvature": misaligned_local_curvature,
            "network": misaligned_network,
        }[case]()
        shifted, base = build(spec), build(spec.base)
        shifts = np.array(spec.shifts)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = shifted.x0 + rng.normal(size=shifts.shape[1])
            fvals, J, diag = shifted.objectives.evaluate(x)
            D = diag()
            for i, s in enumerate(shifts):
                bf, bJ, bdiag = base.objectives.evaluate(x - s)
                assert fvals[i].tobytes() == bf[i].tobytes()
                assert J[i].tobytes() == bJ[i].tobytes()
                assert D[i].tobytes() == bdiag()[i].tobytes()
                if case != "network":
                    want = base.objectives.hessians(x - s)[i]
                    assert shifted.objectives.hessians(x)[i].tobytes() == want.tobytes()
        assert (shifted.objectives.hessian_stack is None) == (case == "network")

    def test_network_evaluate_takes_m_base_passes(self, monkeypatch):
        passes = []
        evaluate = _TwoLayerMatching.evaluate

        def counted(self, theta):
            passes.append(theta)
            return evaluate(self, theta)

        monkeypatch.setattr(_TwoLayerMatching, "evaluate", counted)
        problem = build(misaligned_network())
        passes.clear()  # the minimax solve's
        fvals, J, diag = problem.objectives.evaluate(problem.x0)
        diag()
        assert len(passes) == problem.objectives.m == 3

    def test_spec_roundtrip_through_build(self):
        spec = ProblemSpec(
            kind="misaligned",
            base=ProblemSpec(kind="specification", delta=0.1),
            shifts=((0.0, 0.0), (0.2, 0.0)),
        )
        problem = build(spec)
        assert problem.optimum.alignment_eps > 0


def _power_family(n: int) -> ProblemSpec:
    rng = np.random.default_rng([n, 5])
    mats = []
    for _ in range(3):
        B = rng.normal(size=(n, n))
        mats.append(tuple(map(tuple, B @ B.T + 0.1 * np.eye(n))))
    return ProblemSpec(
        kind="quad_family", h_list=tuple(mats), alpha_list=(1.0, 1.5, 2.0)
    )


# Convex bases: for each, a KKT point of the worst gap is its global minimax.
CONVEX_BASES = {"specification": ProblemSpec(kind="specification", delta=0.01)}
for _n in (2, 6, 12):
    CONVEX_BASES[f"selection_{_n}"] = ProblemSpec(kind="selection", m=3, n=_n)
    CONVEX_BASES[f"local_curvature_{_n}"] = ProblemSpec(kind="local_curvature", n=_n)
    CONVEX_BASES[f"power_{_n}"] = _power_family(_n)


def misaligned_network():
    """The 43-parameter network with 1e-4 shifts, small enough for the
    minimax point to be certified."""
    shifts = np.random.default_rng(0).normal(scale=1e-4, size=(3, 43))
    return ProblemSpec(
        kind="misaligned",
        base=ProblemSpec(
            kind="mlp_matching", input_dim=4, hidden=5, output_dim=3,
            dataset_size=6, seed=2,
        ),
        shifts=tuple(map(tuple, shifts)),
    )


def misaligned_local_curvature():
    shifts = np.random.default_rng(1).normal(scale=0.3, size=(2, 3))
    return ProblemSpec(
        kind="misaligned",
        base=ProblemSpec(kind="local_curvature", n=3),
        shifts=tuple(map(tuple, shifts)),
    )


def run_c_problem():
    """The misaligned problem of the analytic CLI benchmark's run (c)."""
    shifts = np.random.default_rng([0, 2]).normal(scale=0.5, size=(3, 12))
    return ProblemSpec(
        kind="misaligned",
        base=ProblemSpec(kind="selection", delta=0.1, m=3, n=12),
        shifts=tuple(map(tuple, shifts)),
    )


class TestMinimaxPoint:
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(sorted(CONVEX_BASES)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.05, 0.5, 2.0]),
    )
    def test_certified_minimax(self, key, seed, scale):
        base = build(CONVEX_BASES[key])
        m, n = base.objectives.m, base.objectives.dim
        rng = np.random.default_rng(seed)
        shifted = misalign(base, rng.normal(scale=scale, size=(m, n)))
        opt = shifted.optimum
        f, J, _ = shifted.objectives.evaluate(opt.x_star)
        gaps = f - opt.f_star
        assert opt.alignment_eps == max(np.max(gaps), 0.0)
        # Simplex weights on the worst objectives cancel their gradients.
        tol = 1e-6 * (1.0 + opt.alignment_eps)
        active = gaps >= np.max(gaps) - tol
        scale_J = 1.0 + np.linalg.norm(J, axis=1).max()
        A = np.vstack([J[active].T / scale_J, np.ones(active.sum())])
        assert optimize.nnls(A, np.r_[np.zeros(n), 1.0])[1] <= 1e-6
        # No probe point, far or near, has a smaller worst gap.
        probes = opt.x_star + rng.normal(scale=scale, size=(50, n))
        for x in np.vstack([probes, opt.x_star + 1e-3 * rng.normal(size=(50, n))]):
            worst = np.max(shifted.objectives.values(x) - opt.f_star)
            assert opt.alignment_eps <= worst + tol

    def test_run_c_eps_pinned(self):
        # The minimax gap of run (c), well inside the certificate's accuracy.
        problem = build(run_c_problem())
        assert problem.optimum.alignment_eps == pytest.approx(0.49347454, abs=1e-7)

    def test_uncertified_solve_raises(self, monkeypatch):
        # A solve that stops where it started leaves a nonzero KKT residual.
        monkeypatch.setattr(
            problems.optimize,
            "minimize",
            lambda fun, z0, **kw: optimize.OptimizeResult(x=z0, nit=0, message="stub"),
        )
        with pytest.raises(NumericError, match="not certified"):
            build(run_c_problem())
