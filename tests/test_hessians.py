"""Hessian-vector products and the Rademacher diagonal estimator."""

import numpy as np
import pytest

from amoo.core import ObjectiveOracle, ObjectiveSet
from amoo.hessians import (
    DiagHessianTracker,
    HutchinsonConfig,
    diag_hessian_matrix,
    hutchinson_diag,
    hvp_fd,
)
from amoo.problems import ProblemSpec, build


def quadratic_oracle(H, with_hessian=False):
    H = np.asarray(H, dtype=np.float64)
    return ObjectiveOracle(
        dim=H.shape[0],
        value=lambda x: float(0.5 * x @ H @ x),
        gradient=lambda x: H @ x,
        hessian=(lambda x: H) if with_hessian else None,
    )


class TestHvpFd:
    def test_sum_of_squares(self):
        # f(x) = x'x has Hessian 2I.
        o = ObjectiveOracle(
            dim=2, value=lambda x: float(x @ x), gradient=lambda x: 2.0 * x
        )
        hv = hvp_fd(o, [1.0, 2.0], [1.0, 0.0])
        np.testing.assert_allclose(hv, [2.0, 0.0], atol=1e-6)

    def test_linear_objective(self):
        o = ObjectiveOracle(
            dim=3,
            value=lambda x: float(x.sum()),
            gradient=lambda x: np.ones(3),
        )
        hv = hvp_fd(o, [0.5, -1.0, 2.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(hv, 0.0, atol=1e-6)

    def test_specification_first_objective(self):
        # grad f1 = (1.8 x1, 0.2 x2), so the Hessian column for e2 is (0, 0.2).
        problem = build(ProblemSpec(kind="specification", delta=0.1))
        o = problem.objectives.objectives[0]
        hv = hvp_fd(o, [1.0, 1.0], [0.0, 1.0])
        np.testing.assert_allclose(hv, [0.0, 0.2], atol=1e-6)

    def test_zero_direction_rejected(self):
        o = quadratic_oracle(np.eye(2))
        with pytest.raises(ValueError):
            hvp_fd(o, [1.0, 1.0], [0.0, 0.0])

    def test_linear_in_direction(self):
        rng = np.random.default_rng(20)
        H = np.array([[3.0, 0.7], [0.7, 1.2]])
        o = quadratic_oracle(H)
        for _ in range(20):
            u = rng.normal(size=2)
            v = rng.normal(size=2)
            a, b = rng.uniform(-2, 2, size=2)
            if np.linalg.norm(a * u + b * v) < 1e-6:
                continue
            x = rng.normal(size=2)
            lhs = hvp_fd(o, x, a * u + b * v)
            rhs = a * hvp_fd(o, x, u) + b * hvp_fd(o, x, v)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)

    def test_scales_with_magnitude(self):
        H = np.diag([2.0, 0.5])
        o = quadratic_oracle(H)
        hv = hvp_fd(o, [0.0, 0.0], [10.0, 0.0])
        np.testing.assert_allclose(hv, [20.0, 0.0], rtol=1e-6)


class TestHutchinsonDiag:
    def test_single_sample_exact_on_diagonal(self):
        # Rademacher probes square to 1, so one sample recovers a diagonal
        # Hessian exactly (up to the HVP tolerance).
        o = quadratic_oracle(np.diag([2.0, 0.4]))
        est = hutchinson_diag(
            o, [0.7, -0.3], HutchinsonConfig(num_samples=1, rng_seed=9)
        )
        np.testing.assert_allclose(est, [2.0, 0.4], atol=1e-6)

    def test_off_diagonal_concentrates(self):
        o = quadratic_oracle(np.array([[2.0, 1.0], [1.0, 2.0]]), with_hessian=True)
        est = hutchinson_diag(
            o, [0.0, 0.0], HutchinsonConfig(num_samples=10_000, rng_seed=3)
        )
        np.testing.assert_allclose(est, [2.0, 2.0], rtol=0.05)

    def test_linear_objective_estimates_zero(self):
        o = ObjectiveOracle(
            dim=4,
            value=lambda x: float(x.sum()),
            gradient=lambda x: np.ones(4),
        )
        est = hutchinson_diag(o, np.zeros(4), HutchinsonConfig(num_samples=5))
        np.testing.assert_allclose(est, 0.0, atol=1e-6)

    def test_unbiased_on_random_symmetric(self):
        rng = np.random.default_rng(123)
        B = rng.uniform(-1.0, 1.0, size=(20, 20))
        H = B + B.T + 10.0 * np.eye(20)
        o = quadratic_oracle(H, with_hessian=True)
        est = hutchinson_diag(
            o, np.zeros(20), HutchinsonConfig(num_samples=10_000, rng_seed=77)
        )
        rel = np.abs(est - np.diagonal(H)) / np.abs(np.diagonal(H))
        assert rel.max() <= 0.05

    def test_non_finite_estimate_raises(self):
        o = ObjectiveOracle(
            dim=2, value=lambda x: 0.0, gradient=lambda x: np.full(2, np.nan)
        )
        with pytest.raises(ValueError, match="non-finite"):
            hutchinson_diag(o, np.zeros(2), HutchinsonConfig(num_samples=1))

    def test_deterministic_given_seed(self):
        o = quadratic_oracle(np.diag([1.0, 3.0, 0.2]))
        cfg = HutchinsonConfig(num_samples=7, rng_seed=42)
        a = hutchinson_diag(o, [1.0, 0.0, -1.0], cfg)
        b = hutchinson_diag(o, [1.0, 0.0, -1.0], cfg)
        np.testing.assert_array_equal(a, b)


def diag_hessian_matrix_reference(objectives, x, cfg):
    """``diag_hessian_matrix`` as a loop over the objectives."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.empty((objectives.m, objectives.dim))
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(objectives.m)
    for i, oracle in enumerate(objectives.objectives):
        sub = HutchinsonConfig(
            num_samples=cfg.num_samples, rng_seed=seeds[i].generate_state(1)[0]
        )
        rows[i] = hutchinson_diag(oracle, x, sub)
    return rows


def analytic_diagonals(objectives, x):
    """The (m, n) Hessian diagonals that ``ObjectiveSet.evaluate`` gives."""
    return objectives.evaluate(np.asarray(x, dtype=np.float64))[2]()


class TestDiagHessianMatrix:
    def test_selection_example(self):
        problem = build(ProblemSpec(kind="selection", delta=0.1, m=3, n=2))
        rows = analytic_diagonals(problem.objectives, [0.4, -1.0])
        np.testing.assert_allclose(
            rows, [[1.8, 0.2], [1.8, 0.2], [2.0, 2.0]], atol=1e-12
        )
        # One probe recovers a diagonal Hessian exactly.
        est = diag_hessian_matrix(
            problem.objectives, [0.4, -1.0], HutchinsonConfig(num_samples=1)
        )
        np.testing.assert_allclose(est, rows, atol=1e-12)

    def test_single_quadratic(self):
        problem = build(
            ProblemSpec(kind="quad_family", h_list=(((1.0, 0.0), (0.0, 1.0)),))
        )
        rows = analytic_diagonals(problem.objectives, [1.0, 1.0])
        np.testing.assert_allclose(rows, [[2.0, 2.0]], atol=1e-12)

    def test_mlp_deterministic_across_calls(self):
        spec = ProblemSpec(
            kind="mlp_matching",
            variant="selection",
            input_dim=4,
            hidden=5,
            output_dim=3,
            dataset_size=6,
            seed=2,
        )
        problem = build(spec)
        rng = np.random.default_rng(0)
        theta = problem.x0 + 0.1 * rng.normal(size=problem.x0.shape)
        cfg = HutchinsonConfig(num_samples=3, rng_seed=5)
        a = diag_hessian_matrix(problem.objectives, theta, cfg)
        b = diag_hessian_matrix(problem.objectives, theta, cfg)
        np.testing.assert_array_equal(a, b)

    def test_estimate_tracks_analytic_on_mlp(self):
        # Smooth activation so the finite-difference products are reliable;
        # estimator error on network problems is allowed up to 20%.
        spec = ProblemSpec(
            kind="mlp_matching",
            variant="selection",
            input_dim=4,
            hidden=6,
            output_dim=3,
            dataset_size=8,
            seed=3,
            activation="softplus",
        )
        problem = build(spec)
        rng = np.random.default_rng(1)
        theta = problem.x0 + 0.1 * rng.normal(size=problem.x0.shape)
        analytic = analytic_diagonals(problem.objectives, theta)
        est = diag_hessian_matrix(
            problem.objectives, theta, HutchinsonConfig(num_samples=3000, rng_seed=11)
        )
        scale = np.abs(analytic).max(axis=1, keepdims=True)
        assert (np.abs(est - analytic) / scale).max() <= 0.20

    def test_no_seeds_spawned_when_every_row_is_analytic(self, monkeypatch):
        problem = build(ProblemSpec(kind="selection", delta=0.1, m=3, n=4))

        def refuse(*args, **kwargs):
            raise AssertionError("Hutchinson seeds spawned for analytic rows")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        rows = analytic_diagonals(problem.objectives, problem.x0)
        assert rows.shape == (3, 4)

    def test_full_hessian_rows_are_exact(self):
        # A power objective (x'Hx)^1.5 carries a Hessian but no separate
        # diagonal; its row is that Hessian's diagonal, not an estimate.
        rng = np.random.default_rng(3)
        B = rng.normal(size=(5, 5))
        H = B @ B.T + np.eye(5)
        problem = build(
            ProblemSpec(
                kind="quad_family",
                h_list=(tuple(map(tuple, np.eye(5))), tuple(map(tuple, H))),
                alpha_list=(1.0, 1.5),
            )
        )
        oracle = problem.objectives.objectives[1]
        assert oracle.hessian is not None and oracle.diag_hessian is None
        for _ in range(3):
            x = rng.normal(size=5)
            rows = analytic_diagonals(problem.objectives, x)
            np.testing.assert_array_equal(rows[0], np.full(5, 2.0))
            np.testing.assert_array_equal(rows[1], oracle.diag_hessian_at(x))

    @pytest.mark.parametrize("with_hessian", [False, True])
    def test_bitwise_equal_to_reference(self, with_hessian):
        # With a Hessian the probes use H z, without one finite differences;
        # the network oracles never carry one.
        rng = np.random.default_rng(12)
        H = np.diag([3.0, 1.0, 0.5]) + 0.2
        quadratics = ObjectiveSet(
            (
                quadratic_oracle(H, with_hessian),
                quadratic_oracle(2.0 * H, with_hessian),
                quadratic_oracle(H + np.eye(3), with_hessian),
            )
        )
        small_mlp = build(
            ProblemSpec(
                kind="mlp_matching", input_dim=4, hidden=5, output_dim=3,
                dataset_size=6, seed=2, activation="softplus",
            )
        )
        for objectives in (quadratics, small_mlp.objectives):
            for rng_seed in (0, 5, 2**40 + 3):
                x = rng.normal(size=objectives.dim)
                cfg = HutchinsonConfig(num_samples=4, rng_seed=rng_seed)
                got = diag_hessian_matrix(objectives, x, cfg)
                want = diag_hessian_matrix_reference(objectives, x, cfg)
                assert np.array_equal(got, want)


class TestTracker:
    def test_pass_through_without_ema(self):
        problem = build(ProblemSpec(kind="specification", delta=0.2))
        tracker = DiagHessianTracker(HutchinsonConfig())
        a = tracker.update(problem.objectives, [1.0, 1.0])
        b = diag_hessian_matrix(problem.objectives, [1.0, 1.0], HutchinsonConfig())
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_call_k_seeds_with_rng_seed_plus_k(self):
        problem = build(
            ProblemSpec(
                kind="mlp_matching", input_dim=4, hidden=5, output_dim=3,
                dataset_size=6, seed=2, activation="softplus",
            )
        )
        tracker = DiagHessianTracker(HutchinsonConfig(num_samples=2, rng_seed=7))
        x = problem.x0
        for k in range(3):
            got = tracker.update(problem.objectives, x)
            want = diag_hessian_matrix(
                problem.objectives, x, HutchinsonConfig(2, rng_seed=7 + k)
            )
            assert np.array_equal(got, want)
        # The seeds matter: a different seed gives a different estimate.
        other = diag_hessian_matrix(
            problem.objectives, x, HutchinsonConfig(2, rng_seed=7)
        )
        assert not np.array_equal(got, other)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HutchinsonConfig(num_samples=0)
