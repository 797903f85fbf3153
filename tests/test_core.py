"""Objective sets and weighted evaluation."""

import numpy as np
import pytest

from amoo.core import (
    ObjectiveOracle,
    ObjectiveSet,
    OptimalInfo,
    UnsupportedQueryError,
    weighted_gradient,
)
from amoo.problems import ProblemSpec, build
from amoo.weighting import CamooConfig, project_floored_simplex, solve_camoo_exact


def fd_gradient(value, x, rel_step=1e-6):
    """Central-difference gradient, the reference for analytic gradients."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(len(x)):
        h = rel_step * max(abs(x[j]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (value(xp) - value(xm)) / (2.0 * h)
    return g


def weighted_value(objectives: ObjectiveSet, w, x) -> float:
    """Scalarized objective sum_i w_i f_i(x); linear in w."""
    w = np.asarray(w, dtype=np.float64)
    if len(w) != objectives.m:
        raise ValueError(f"{len(w)} weights for {objectives.m} objectives")
    return float(w @ objectives.values(x))


@pytest.fixture(scope="module")
def spec_problem():
    return build(ProblemSpec(kind="specification", delta=0.1))


@pytest.fixture(scope="module")
def selection_problem():
    return build(ProblemSpec(kind="selection", delta=0.1, m=3, n=2))


class TestWeightedValue:
    def test_specification_example(self, spec_problem):
        w = np.array([0.5, 0.5])
        assert weighted_value(spec_problem.objectives, w, [1.0, 1.0]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_weights(self, spec_problem):
        w = np.array([0.0, 0.0])
        assert weighted_value(spec_problem.objectives, w, [0.3, -2.0]) == 0.0

    def test_selection_one_hot(self, selection_problem):
        w = np.array([0.0, 0.0, 1.0])
        assert weighted_value(
            selection_problem.objectives, w, [1.0, 1.0]
        ) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self, spec_problem):
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            weighted_value(spec_problem.objectives, w, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_value(spec_problem.objectives, np.array([1.0]), [1.0, 1.0])

    def test_linearity_in_weights(self, spec_problem):
        rng = np.random.default_rng(0)
        for _ in range(25):
            w1 = rng.uniform(0, 2, size=2)
            w2 = rng.uniform(0, 2, size=2)
            a, b = rng.uniform(0, 3, size=2)
            x = rng.normal(size=2)
            lhs = weighted_value(
                spec_problem.objectives, a * w1 + b * w2, x
            )
            rhs = a * weighted_value(
                spec_problem.objectives, w1, x
            ) + b * weighted_value(spec_problem.objectives, w2, x)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestWeightedGradient:
    def test_specification_example(self, spec_problem):
        w = np.array([0.5, 0.5])
        J = spec_problem.objectives.gradients([1.0, 1.0])
        g = weighted_gradient(J, w)
        np.testing.assert_allclose(g, [1.0, 1.0], atol=1e-12)

    def test_zero_at_shared_optimum(self, spec_problem, selection_problem):
        rng = np.random.default_rng(1)
        for problem in (spec_problem, selection_problem):
            x_star = problem.optimum.x_star
            for _ in range(5):
                w = rng.uniform(0, 1, size=problem.objectives.m)
                w = w / w.sum()
                g = weighted_gradient(problem.objectives.gradients(x_star), w)
                assert np.linalg.norm(g) <= 1e-8

    def test_local_curvature_at_origin(self):
        problem = build(ProblemSpec(kind="local_curvature", n=1))
        g = weighted_gradient(
            problem.objectives.gradients([0.0]), np.array([1.0, 0.0])
        )
        np.testing.assert_allclose(g, [0.0], atol=1e-12)

    def test_weight_count_checked(self, spec_problem):
        J = spec_problem.objectives.gradients([1.0, 1.0])
        with pytest.raises(ValueError, match="1 entries for 2 objectives"):
            weighted_gradient(J, np.array([1.0]))

    def test_matches_finite_differences(self, spec_problem, selection_problem):
        rng = np.random.default_rng(2)
        for problem in (spec_problem, selection_problem):
            objs = problem.objectives
            for _ in range(50):
                x = rng.normal(size=objs.dim)
                w = rng.uniform(0, 1, size=objs.m)
                wv = w
                g = weighted_gradient(objs.gradients(x), wv)
                ref = fd_gradient(lambda y: weighted_value(objs, wv, y), x)
                np.testing.assert_allclose(g, ref, rtol=1e-4, atol=1e-8)


class TestSuboptimalityNonnegative:
    def test_aligned_instances(self, spec_problem, selection_problem):
        rng = np.random.default_rng(3)
        for problem in (spec_problem, selection_problem):
            objs = problem.objectives
            f_star = problem.optimum.f_star
            for _ in range(50):
                x = rng.normal(scale=2.0, size=objs.dim)
                w = rng.uniform(0, 1, size=objs.m)
                wv = w / w.sum()
                gap = weighted_value(objs, wv, x) - float(
                    wv @ f_star
                )
                assert gap >= -1e-12


class TestWeightVector:
    """Weights are plain arrays; the floored simplex they live on is built
    by the projection and by the exact CAMOO solve."""

    def test_infeasible_floor(self):
        # Two weights cannot each be at least 0.6 and sum to 1.
        with pytest.raises(ValueError):
            project_floored_simplex([0.5, 0.5], 0.6)
        with pytest.raises(ValueError):
            solve_camoo_exact([np.eye(2)] * 2, CamooConfig(w_min=0.6))


class TestObjectiveOracle:
    def test_gradient_matches_fd_on_smooth_problems(self):
        rng = np.random.default_rng(4)
        for kind, kwargs in [
            ("specification", {"delta": 0.3}),
            ("selection", {"delta": 0.2, "m": 3, "n": 3}),
            ("local_curvature", {"n": 2}),
        ]:
            problem = build(ProblemSpec(kind=kind, **kwargs))
            for oracle in problem.objectives.objectives:
                for _ in range(5):
                    x = rng.normal(size=oracle.dim)
                    g = oracle.gradient_at(x)
                    ref = fd_gradient(oracle.value_at, x)
                    np.testing.assert_allclose(g, ref, rtol=1e-4, atol=1e-8)

    def test_hessian_symmetry(self):
        rng = np.random.default_rng(5)
        problem = build(
            ProblemSpec(
                kind="quad_family",
                h_list=(((2.0, 0.5), (0.5, 1.0)),),
                alpha_list=(1.5,),
            )
        )
        for _ in range(10):
            x = rng.normal(size=2)
            H = problem.objectives.objectives[0].hessian_at(x)
            assert np.abs(H - H.T).max() <= 1e-12

    def test_mismatched_dims_rejected(self):
        o1 = ObjectiveOracle(dim=2, value=lambda x: 0.0, gradient=lambda x: x)
        o2 = ObjectiveOracle(dim=3, value=lambda x: 0.0, gradient=lambda x: x)
        with pytest.raises(ValueError):
            ObjectiveSet((o1, o2))

    def test_missing_hessian_raises(self):
        o = ObjectiveOracle(dim=1, value=lambda x: 0.0, gradient=lambda x: x)
        with pytest.raises(UnsupportedQueryError):
            o.hessian_at([1.0])


class TestOptimalInfo:
    def test_exactly_aligned_gradients_vanish(self):
        for kind, kwargs in [
            ("specification", {"delta": 0.05}),
            ("selection", {"delta": 0.1, "m": 4, "n": 3}),
            ("local_curvature", {"n": 1}),
        ]:
            problem = build(ProblemSpec(kind=kind, **kwargs))
            assert problem.optimum.alignment_eps == 0.0
            for oracle in problem.objectives.objectives:
                g = oracle.gradient_at(problem.optimum.x_star)
                assert np.linalg.norm(g) <= 1e-8

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            OptimalInfo(x_star=[0.0], alignment_eps=-1.0)
