"""Hessian-vector products and the Rademacher diagonal estimator."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from amoo.hessians import (
    DiagHessianTracker,
    HutchinsonConfig,
    diag_hessian_matrix,
    hvp_fd,
)
from amoo.problems import ProblemSpec, _TwoLayerMatching, build
from objective_sets import one_objective, quadratic, row, stack


def hvp_one(objectives, x, v):
    """``hvp_fd`` of a one-objective set, as a vector."""
    (hv,) = hvp_fd(objectives, x, v)
    return hv


def hutchinson_one(objectives, x, cfg):
    """``diag_hessian_matrix`` of a one-objective set, as a vector."""
    (est,) = diag_hessian_matrix(objectives, x, cfg)
    return est


SMALL_SOFTPLUS = ProblemSpec(
    kind="mlp_matching", input_dim=4, hidden=5, output_dim=3,
    dataset_size=6, seed=2, activation="softplus",
)


def hutchinson_cases():
    """(objectives, x, i) by name, for row i of the estimate: a dense
    quadratic with and without its Hessian, and each objective of the default
    network and of a small softplus one with powered objectives."""
    rng = np.random.default_rng(0)
    B = rng.normal(size=(6, 6))
    M = B + B.T + 8.0 * np.eye(6)
    cases = {
        "dense_hessian": (quadratic(M, with_hessian=True), rng.normal(size=6), 0),
        "dense_fd": (quadratic(M), rng.normal(size=6), 0),
    }
    networks = {
        "default": ProblemSpec(kind="mlp_matching"),
        "small_softplus_lc": replace(SMALL_SOFTPLUS, variant="local_curvature"),
    }
    for name, spec in networks.items():
        problem = build(spec)
        noise = np.random.default_rng(1).normal(size=problem.x0.shape)
        theta = problem.x0 + 0.1 * noise
        for i in range(problem.objectives.m):
            cases[f"{name}:match_f{i + 1}"] = (problem.objectives, theta, i)
    return cases


# sha256 of row i of ``diag_hessian_matrix`` at seeds 0, 5 and 2**40 + 3 with
# 4 probes, for each of ``hutchinson_cases``, taken while every objective
# still drew its own probes and was estimated alone, each network objective
# by a pass of its objective alone.
HUTCHINSON_SHA256 = {
    "dense_hessian": "a4a4ba9da98041f5eac85e37d998e516271bee13607c8b3405beb6a5fd2e6d78",
    "dense_fd": "7c7d317c9bee19485674c14d4de9ba2322c48c72d6dc7eda80b64958bf1a1d3d",
    "default:match_f1": "c6fcd8e1c9094085731ac1255ce6049981bcafe12af259fe2067fda1efe7db28",
    "default:match_f2": "2094f9f7c2be04bf39960bf294bd7c5804ffe9dc23432bed1e25065d7578af21",
    "default:match_f3": "65f7d73fdb8bcd03f3eb5ef728e04fd542ae568241dab59f0f4a9ee75ce09ccd",
    "small_softplus_lc:match_f1": "59a900bdf78262d5a8a9a71849af674c1505dfb18e1da671196b6482de2d7b12",
    "small_softplus_lc:match_f2": "618488f5a8c7b917720192ea5a99c6090051bf03cc85c23a03b5d3cf3ff90735",
    "small_softplus_lc:match_f3": "6e7f573b7b4c4ba65cc540e1d3a95e0accf8a6bd86fd728bbf5a907424920f91",
}


class TestHvpFd:
    def test_sum_of_squares(self):
        # f(x) = x'x has Hessian 2I.
        o = one_objective(2, lambda x: float(x @ x), lambda x: 2.0 * x)
        hv = hvp_one(o, [1.0, 2.0], [1.0, 0.0])
        np.testing.assert_allclose(hv, [2.0, 0.0], atol=1e-6)

    def test_linear_objective(self):
        o = one_objective(3, lambda x: float(x.sum()), lambda x: np.ones(3))
        hv = hvp_one(o, [0.5, -1.0, 2.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(hv, 0.0, atol=1e-6)

    def test_specification_first_objective(self):
        # grad f1 = (1.8 x1, 0.2 x2), so the Hessian column for e2 is (0, 0.2).
        problem = build(ProblemSpec(kind="specification", delta=0.1))
        hv = hvp_fd(problem.objectives, [1.0, 1.0], [0.0, 1.0])[0]
        np.testing.assert_allclose(hv, [0.0, 0.2], atol=1e-6)

    def test_zero_direction_rejected(self):
        o = quadratic(np.eye(2))
        with pytest.raises(ValueError):
            hvp_one(o, [1.0, 1.0], [0.0, 0.0])

    def test_linear_in_direction(self):
        rng = np.random.default_rng(20)
        H = np.array([[3.0, 0.7], [0.7, 1.2]])
        o = quadratic(H)
        for _ in range(20):
            u = rng.normal(size=2)
            v = rng.normal(size=2)
            a, b = rng.uniform(-2, 2, size=2)
            if np.linalg.norm(a * u + b * v) < 1e-6:
                continue
            x = rng.normal(size=2)
            lhs = hvp_one(o, x, a * u + b * v)
            rhs = a * hvp_one(o, x, u) + b * hvp_one(o, x, v)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)

    def test_scales_with_magnitude(self):
        H = np.diag([2.0, 0.5])
        o = quadratic(H)
        hv = hvp_one(o, [0.0, 0.0], [10.0, 0.0])
        np.testing.assert_allclose(hv, [20.0, 0.0], rtol=1e-6)

    def test_rows_equal_one_objective_products(self):
        rng = np.random.default_rng(21)
        B = rng.normal(size=(4, 4))
        parts = [quadratic(M) for M in (B + B.T, B @ B.T, np.diag([1.0, 2.0, 3.0, 4.0]))]
        objectives = stack(*parts)
        for _ in range(5):
            x, v = rng.normal(size=4), rng.normal(size=4)
            rows = hvp_fd(objectives, x, v)
            assert rows.shape == (3, 4)
            for got, part in zip(rows, parts):
                assert got.tobytes() == hvp_one(part, x, v).tobytes()


class TestHutchinsonDiag:
    def test_single_sample_exact_on_diagonal(self):
        # Rademacher probes square to 1, so one sample recovers a diagonal
        # Hessian exactly (up to the HVP tolerance).
        o = quadratic(np.diag([2.0, 0.4]))
        est = hutchinson_one(
            o, [0.7, -0.3], HutchinsonConfig(num_samples=1, rng_seed=9)
        )
        np.testing.assert_allclose(est, [2.0, 0.4], atol=1e-6)

    def test_off_diagonal_concentrates(self):
        o = quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), with_hessian=True)
        est = hutchinson_one(
            o, [0.0, 0.0], HutchinsonConfig(num_samples=10_000, rng_seed=3)
        )
        np.testing.assert_allclose(est, [2.0, 2.0], rtol=0.05)

    def test_linear_objective_estimates_zero(self):
        o = one_objective(4, lambda x: float(x.sum()), lambda x: np.ones(4))
        est = hutchinson_one(o, np.zeros(4), HutchinsonConfig(num_samples=5))
        np.testing.assert_allclose(est, 0.0, atol=1e-6)

    def test_unbiased_on_random_symmetric(self):
        rng = np.random.default_rng(123)
        B = rng.uniform(-1.0, 1.0, size=(20, 20))
        H = B + B.T + 10.0 * np.eye(20)
        o = quadratic(H, with_hessian=True)
        est = hutchinson_one(
            o, np.zeros(20), HutchinsonConfig(num_samples=10_000, rng_seed=77)
        )
        rel = np.abs(est - np.diagonal(H)) / np.abs(np.diagonal(H))
        assert rel.max() <= 0.05

    def test_non_finite_estimate_raises(self):
        o = one_objective(2, lambda x: 0.0, lambda x: np.full(2, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            hutchinson_one(o, np.zeros(2), HutchinsonConfig(num_samples=1))

    def test_deterministic_given_seed(self):
        o = quadratic(np.diag([1.0, 3.0, 0.2]))
        cfg = HutchinsonConfig(num_samples=7, rng_seed=42)
        a = hutchinson_one(o, [1.0, 0.0, -1.0], cfg)
        b = hutchinson_one(o, [1.0, 0.0, -1.0], cfg)
        np.testing.assert_array_equal(a, b)


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
        # The row of a power objective (x'Hx)^1.5 is its Hessian's diagonal,
        # not an estimate.
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
        for _ in range(3):
            x = rng.normal(size=5)
            rows = analytic_diagonals(problem.objectives, x)
            np.testing.assert_array_equal(rows[0], np.full(5, 2.0))
            hessian = problem.objectives.hessians(x)[1]
            np.testing.assert_array_equal(rows[1], np.diagonal(hessian))

    @pytest.mark.parametrize("with_hessian", [False, True])
    def test_rows_equal_hutchinson_diag(self, with_hessian):
        # Every objective reads the same probes, so each row is the estimate
        # of that objective alone.  With Hessians the products are H z,
        # otherwise finite differences; the network has no Hessians.
        rng = np.random.default_rng(12)
        H = np.diag([3.0, 1.0, 0.5]) + 0.2
        parts = [quadratic(M, with_hessian) for M in (H, 2.0 * H, H + np.eye(3))]
        network = build(SMALL_SOFTPLUS).objectives
        cases = [(stack(*parts), parts), (network, [row(network, i) for i in range(3)])]
        for objectives, alone in cases:
            for rng_seed in (0, 5, 2**40 + 3):
                x = rng.normal(size=objectives.dim)
                cfg = HutchinsonConfig(num_samples=4, rng_seed=rng_seed)
                got = diag_hessian_matrix(objectives, x, cfg)
                for est, part in zip(got, alone):
                    assert est.tobytes() == hutchinson_one(part, x, cfg).tobytes()

    def test_network_estimate_takes_two_stacked_passes_per_probe(self, monkeypatch):
        passes = []
        evaluate = _TwoLayerMatching.evaluate

        def counted(self, theta):
            passes.append(theta)
            return evaluate(self, theta)

        monkeypatch.setattr(_TwoLayerMatching, "evaluate", counted)
        problem = build(SMALL_SOFTPLUS)
        cfg = HutchinsonConfig(num_samples=5, rng_seed=3)
        diag_hessian_matrix(problem.objectives, problem.x0, cfg)
        assert len(passes) == 2 * cfg.num_samples

    @pytest.mark.parametrize("case", sorted(HUTCHINSON_SHA256))
    def test_hutchinson_diag_digest(self, case):
        objectives, x, i = hutchinson_cases()[case]
        digest = hashlib.sha256()
        for rng_seed in (0, 5, 2**40 + 3):
            cfg = HutchinsonConfig(num_samples=4, rng_seed=rng_seed)
            digest.update(diag_hessian_matrix(objectives, x, cfg)[i].tobytes())
        assert digest.hexdigest() == HUTCHINSON_SHA256[case]


class TestTracker:
    def test_pass_through_without_ema(self):
        problem = build(ProblemSpec(kind="specification", delta=0.2))
        tracker = DiagHessianTracker(HutchinsonConfig())
        a = tracker.update(problem.objectives, [1.0, 1.0])
        b = diag_hessian_matrix(problem.objectives, [1.0, 1.0], HutchinsonConfig())
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_call_k_seeds_with_rng_seed_plus_k(self):
        problem = build(SMALL_SOFTPLUS)
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
