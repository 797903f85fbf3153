"""Benchmark factory: analytic constants, network matching, misalignment."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amoo.linalg import min_eigenpair, weighted_hessian
from amoo.problems import (
    KINDS,
    ProblemSpec,
    _TwoLayerMatching,
    build,
    build_mlp_matching,
    misalign,
)


def fd_gradient(value, x, rel_step=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(len(x)):
        h = rel_step * max(abs(x[j]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (value(xp) - value(xm)) / (2.0 * h)
    return g


class TestAnalyticKinds:
    def test_specification_hessians_constant(self):
        problem = build(ProblemSpec(kind="specification", delta=0.1))
        rng = np.random.default_rng(40)
        for _ in range(3):
            x = rng.normal(size=2)
            H1 = problem.objectives.objectives[0].hessian_at(x)
            np.testing.assert_allclose(H1, np.diag([1.8, 0.2]), atol=1e-14)
        meta = problem.meta
        assert meta.beta == pytest.approx(1.8)
        assert meta.mu_g == 1.0 and meta.m_self == 0.0

    def test_local_curvature_unit_curvature_at_origin(self):
        problem = build(ProblemSpec(kind="local_curvature", n=1))
        H1 = problem.objectives.objectives[0].hessian_at([0.0])
        H2 = problem.objectives.objectives[1].hessian_at([0.0])
        assert H1[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert H2[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert problem.meta.mu_g == 1.0
        # Away from the origin the better-curved objective flips with the sign.
        assert problem.objectives.objectives[0].hessian_at([1.0])[0, 0] > 1.0
        assert problem.objectives.objectives[1].hessian_at([1.0])[0, 0] < 1.0

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
            problem = build(spec)
            for oracle in problem.objectives.objectives:
                for _ in range(100):
                    x = rng.normal(size=oracle.dim)
                    y = rng.normal(size=oracle.dim)
                    mid = oracle.value_at(0.5 * (x + y))
                    assert (
                        mid
                        <= 0.5 * (oracle.value_at(x) + oracle.value_at(y)) + 1e-10
                    )

    def test_quad_family_power_gradient(self):
        problem = build(
            ProblemSpec(
                kind="quad_family",
                h_list=(((2.0, 0.5), (0.5, 1.0)),),
                alpha_list=(2.0,),
            )
        )
        oracle = problem.objectives.objectives[0]
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.normal(size=2)
            np.testing.assert_allclose(
                oracle.gradient_at(x),
                fd_gradient(oracle.value_at, x),
                rtol=1e-4,
                atol=1e-8,
            )
        # Gradient and Hessian stay finite at the optimum.
        assert np.all(np.isfinite(oracle.gradient_at(np.zeros(2))))
        assert np.all(np.isfinite(oracle.hessian_at(np.zeros(2))))


def mlp_objective_reference(model, theta, i):
    """Value, gradient and Hessian diagonal of network-matching objective i,
    computed one objective at a time as first written; the stacked
    evaluation must match it bit for bit."""
    w1, b1, w2, b2 = model.unpack(np.ascontiguousarray(theta))
    Z = model.X @ w1.T + b1
    A = model._act(Z)
    R = A @ w2.T + b2 - model.targets
    H, alpha = model.h_stack[i], model.alphas[i]
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
    coeff = (p1[:, None] * g2 + c2[:, None] * S**2) * model._act_prime(Z) ** 2
    coeff = coeff + (p1[:, None] * S) * model._act_second(Z)
    diag = model.pack(coeff.T @ X2 / N, coeff.sum(axis=0) / N, dw2, db2)
    return value, grad, diag


class TestQuadraticStack:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        n=st.integers(1, 40),
        diagonal=st.booleans(),
        log_scale=st.floats(-10.0, 10.0),
    )
    def test_bitwise_equal_to_each_oracle(self, seed, m, n, diagonal, log_scale):
        rng = np.random.default_rng(seed)
        if diagonal:
            mats = [np.diag(rng.uniform(0.0, 2.0, size=n)) for _ in range(m)]
        else:
            mats = [rng.normal(size=(n, n)) for _ in range(m)]
        problem = build(
            ProblemSpec(kind="quad_family", h_list=tuple(H.tolist() for H in mats))
        )
        objs = problem.objectives
        stack = objs.stacked
        assert stack is not None
        x = 10.0**log_scale * rng.normal(size=n)
        oracles = objs.objectives
        values, grads, diags = stack.evaluate(x)
        want_values = np.array([o.value(x) for o in oracles], dtype=np.float64)
        assert values.tobytes() == want_values.tobytes()
        assert objs.values(x).tobytes() == want_values.tobytes()
        want_grads = np.stack([o.gradient_at(x) for o in oracles])
        assert grads.tobytes() == want_grads.tobytes()
        assert objs.gradients(x).tobytes() == want_grads.tobytes()
        want_diags = np.stack([o.diag_hessian_at(x) for o in oracles])
        assert diags().tobytes() == want_diags.tobytes()

    @pytest.mark.parametrize(
        "spec, stacked",
        [
            (ProblemSpec(kind="specification"), True),
            (ProblemSpec(kind="selection", m=3, n=4), True),
            (ProblemSpec(kind="quad_family", h_list=([[1.0]], [[2.0]])), True),
            (
                ProblemSpec(
                    kind="quad_family", h_list=([[1.0]], [[2.0]]), alpha_list=(1.0, 2.0)
                ),
                False,
            ),
            (ProblemSpec(kind="local_curvature"), False),
        ],
    )
    def test_pure_quadratic_kinds_are_stacked(self, spec, stacked):
        assert (build(spec).objectives.stacked is not None) == stacked


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
    if isinstance(objs.stacked, _TwoLayerMatching):
        want = [mlp_objective_reference(objs.stacked, x, i)[2] for i in range(objs.m)]
    else:
        want = [o.diag_hessian_at(x) for o in objs.objectives]
    assert objs.evaluate(x)[2]().tobytes() == np.stack(want).tobytes()


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
        model = build(ProblemSpec(variant=variant, **self.SMALL)).objectives.stacked
        bent = [k for k, a in enumerate(model.alphas) if a != 1.0]
        assert list(range(model.m))[model.bent] == bent
        model._set_objectives(model.h_stack, (1.0, 2.0, 1.5))
        assert model.bent == slice(1, 3)
        with pytest.raises(ValueError, match="adjacent"):
            model._set_objectives(model.h_stack, (1.5, 1.0, 2.0))

    def test_teacher_parameters_attain_zero(self):
        problem = build(ProblemSpec(variant="selection", **self.SMALL))
        theta_star = problem.optimum.x_star
        values = problem.objectives.values(theta_star)
        np.testing.assert_array_equal(values, np.zeros(3))
        for oracle in problem.objectives.objectives:
            assert np.linalg.norm(oracle.gradient_at(theta_star)) == 0.0
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
            for oracle in problem.objectives.objectives:
                g = oracle.gradient_at(theta)
                ref = fd_gradient(oracle.value_at, theta)
                np.testing.assert_allclose(g, ref, rtol=1e-3, atol=1e-6)

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
        oracle = problem.objectives.objectives[0]
        d = oracle.diag_hessian_at(theta)
        idx = rng.choice(len(theta), size=24, replace=False)
        scale = np.abs(d).max()
        for j in idx:
            h = 1e-5 * (1.0 + abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (oracle.gradient_at(tp)[j] - oracle.gradient_at(tm)[j]) / (2 * h)
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
        # tobytes() tells -0.0 from +0.0, which np.array_equal does not.
        oracles = objs.objectives
        assert values.tobytes() == np.array([o.value_at(theta) for o in oracles]).tobytes()
        assert J.tobytes() == np.stack([o.gradient_at(theta) for o in oracles]).tobytes()
        assert D.tobytes() == np.stack([o.diag_hessian_at(theta) for o in oracles]).tobytes()
        ref = [mlp_objective_reference(objs.stacked, theta, i) for i in range(objs.m)]
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
        for oracle in problem.objectives.objectives:
            oracle.value_at(theta)
            oracle.gradient_at(theta)
            oracle.diag_hessian_at(theta)
        problem.mismatch(theta)
        model = weakref.ref(problem.mismatch.__self__)
        del problem, oracle
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
        np.testing.assert_allclose(shifted.optimum.x_star, [0.0, 0.0])

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
            gaps = np.max(
                [
                    [o.value_at([x1, y]) for y in ys]
                    for o in shifted.objectives.objectives
                ],
                axis=0,
            )
            best = min(best, gaps.min())
        assert eps == pytest.approx(best, abs=1e-5)

    def test_shifted_objectives_keep_own_minima(self):
        base = self.quad_1d_pair()
        shifted = misalign(base, np.array([[0.0], [0.3]]))
        o2 = shifted.objectives.objectives[1]
        assert o2.value_at([0.3]) == pytest.approx(0.0, abs=1e-15)
        assert shifted.optimum.f_star[1] == 0.0

    def test_eps_solution_set_nonempty(self):
        base = build(ProblemSpec(kind="specification", delta=0.1))
        shifted = misalign(base, np.array([[0.0, 0.0], [0.4, 0.1]]))
        x_ref = shifted.optimum.x_star
        eps = shifted.optimum.alignment_eps
        for i, oracle in enumerate(shifted.objectives.objectives):
            gap = oracle.value_at(x_ref) - shifted.optimum.f_star[i]
            assert gap <= eps + 1e-10

    def test_bad_shift_shape(self):
        base = self.quad_1d_pair()
        with pytest.raises(ValueError):
            misalign(base, np.zeros((3, 1)))

    def test_spec_roundtrip_through_build(self):
        spec = ProblemSpec(
            kind="misaligned",
            base=ProblemSpec(kind="specification", delta=0.1),
            shifts=((0.0, 0.0), (0.2, 0.0)),
        )
        problem = build(spec)
        assert problem.optimum.alignment_eps > 0
