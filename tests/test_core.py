"""Objective sets and weighted evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoo.core import (
    ObjectiveSet,
    OptimalInfo,
    UnsupportedQueryError,
    _finite,
    weighted_gradient,
)
from amoo.problems import ProblemSpec, build
from amoo.weighting import CamooConfig, solve_camoo_diagonal, solve_camoo_exact


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
            for _ in range(50):
                x = rng.normal(scale=2.0, size=objs.dim)
                w = rng.uniform(0, 1, size=objs.m)
                # Every minimum is 0, so the weighted value is the gap.
                assert weighted_value(objs, w / w.sum(), x) >= -1e-12


class TestWeightVector:
    """Weights are plain arrays; the floored simplex they live on is built
    by both CAMOO solves."""

    def test_infeasible_floor(self):
        # Two weights cannot each be at least 0.6 and sum to 1.
        with pytest.raises(ValueError):
            solve_camoo_diagonal(np.eye(2), CamooConfig(w_min=0.6))
        with pytest.raises(ValueError):
            solve_camoo_exact([np.eye(2)] * 2, CamooConfig(w_min=0.6))


class TestObjectiveSet:
    def test_sizes_must_be_positive(self):
        def evaluate(x):
            raise AssertionError("not called")

        for m, dim in [(0, 2), (2, 0)]:
            with pytest.raises(ValueError, match="m >= 1 objectives of dim >= 1"):
                ObjectiveSet(m, dim, evaluate)

    def test_missing_hessian_raises(self):
        problem = build(ProblemSpec(kind="mlp_matching", hidden=2, dataset_size=3))
        with pytest.raises(UnsupportedQueryError):
            problem.objectives.hessians(problem.x0)


class TestOptimalInfo:
    def test_exactly_aligned_gradients_vanish(self):
        for kind, kwargs in [
            ("specification", {"delta": 0.05}),
            ("selection", {"delta": 0.1, "m": 4, "n": 3}),
            ("local_curvature", {"n": 1}),
        ]:
            problem = build(ProblemSpec(kind=kind, **kwargs))
            assert problem.optimum.alignment_eps == 0.0
            J = problem.objectives.gradients(problem.optimum.x_star)
            assert np.linalg.norm(J, axis=1).max() <= 1e-8

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            OptimalInfo(x_star=[0.0], alignment_eps=-1.0)


# Entries that make v·v NaN, infinite, subnormal or overflowing (1e200 squared
# is inf although 1e200 is finite), mixed with ordinary finite floats.
EDGE_ENTRIES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1e200, -1.5e200, 1.7e308, 0.0, -0.0]
)


class TestFinite:
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(EDGE_ENTRIES, st.floats(allow_nan=False, allow_infinity=False)),
            max_size=40,
        ),
        st.sampled_from([(-1,), (-1, 2)]),
    )
    def test_is_numpy_isfinite_all(self, entries, shape):
        if shape == (-1, 2):
            entries = entries[: len(entries) // 2 * 2]
        v = np.array(entries, dtype=np.float64).reshape(shape)
        with np.errstate(over="ignore"):
            assert _finite(v) is bool(np.isfinite(v).all())

    def test_overflowing_square_is_still_finite(self):
        v = np.full(3, 1e200)
        with np.errstate(over="ignore"):
            assert v.dot(v) == math.inf
            assert _finite(v) and _finite(np.full((2, 2), 1e160))
            assert not _finite(np.array([1e200, math.nan]))
