"""Weight optimizers against brute-force grid and enumeration oracles."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

import amoo.weighting
from amoo.analysis import grid_best_weighted_curvature
from amoo.linalg import (
    check_symmetric,
    min_eigenpair,
    spectral_norm,
    weighted_hessian,
)
from amoo.weighting import (
    MODE_DIAGONAL,
    CamooConfig,
    PamooConfig,
    equal_weights,
    max_min_weights,
    pamoo_context,
    pamoo_weights,
    project_floored_simplex,
    project_simplex,
    solve_bilinear_pu,
    solve_bilinear_pu_stack,
    solve_camoo_exact,
)
from amoo.problems import ProblemSpec, build


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def bilinear_value_of_w(A, w):
    """Row player's guaranteed payoff: min_j (w'A)_j."""
    return float(np.min(w @ A))


def bilinear_grid_value_m2(A, resolution=1e-4):
    """Brute-force game value for 2-row games by scanning w1 on a grid."""
    w1 = np.arange(0.0, 1.0 + resolution / 2, resolution)
    vals = np.min(np.outer(w1, A[0]) + np.outer(1.0 - w1, A[1]), axis=1)
    best = int(np.argmax(vals))
    return float(vals[best]), np.array([w1[best], 1.0 - w1[best]])


def simplex_grid(m, step):
    if m == 1:
        return np.array([[1.0]])
    k = int(round(1.0 / step))
    if m == 2:
        a = np.linspace(0.0, 1.0, k + 1)
        return np.stack([a, 1.0 - a], axis=1)
    pts = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            pts.append((i / k, j / k, (k - i - j) / k))
    return np.array(pts)


def grid_max_min_eig(mats, step=1e-3):
    """Grid oracle for max over simplex weights of lambda_min(sum w_i H_i)."""
    stack = np.stack([np.asarray(H, float) for H in mats])
    grid = simplex_grid(len(mats), step)
    lam = np.linalg.eigvalsh(np.einsum("gi,ijk->gjk", grid, stack))[:, 0]
    best = int(np.argmax(lam))
    return float(lam[best]), grid[best]


def highs_max_min_value(C, w_min):
    """max_w min_k (C'w)_k over {w >= w_min, sum w = 1} by one direct HiGHS
    linear program in (w, t).  HiGHS's tolerances are absolute (1e-7), so it
    solves the LP on C / max |C| and the value is scaled back."""
    m, n = C.shape
    scale = np.abs(C).max() or 1.0
    res = optimize.linprog(
        np.r_[np.zeros(m), -1.0],
        np.hstack([-C.T / scale, np.ones((n, 1))]),
        np.zeros(n),
        np.r_[np.ones(m), 0.0][None],
        [1.0],
        [(w_min, None)] * m + [(None, None)],
        method="highs",
    )
    assert res.success, res.message
    return float(res.x[m]) * scale


def active_set_quadratic_max(gaps, gram, tau, floor):
    """Enumerate floor-active sets of max 2w'g - w'(G+tau I)w, w >= floor."""
    m = len(gaps)
    gp = gram + tau * np.eye(m)
    best_val, best_w = -np.inf, None
    for active in itertools.product([False, True], repeat=m):
        w = np.full(m, floor)
        free = [i for i in range(m) if not active[i]]
        if free:
            idx = np.ix_(free, free)
            rhs = gaps[free] - gp[np.ix_(free, [i for i in range(m) if active[i]])] @ (
                np.full(sum(active), floor)
            )
            try:
                w_free = np.linalg.solve(gp[idx], rhs)
            except np.linalg.LinAlgError:
                continue
            w[free] = w_free
        if np.any(w < floor - 1e-12):
            continue
        val = 2.0 * w @ gaps - w @ gp @ w
        if val > best_val:
            best_val, best_w = val, w
    return best_val, best_w


# ---------------------------------------------------------------------------
# Simplex projections
# ---------------------------------------------------------------------------


class TestProjections:
    def test_already_feasible_is_fixed(self):
        w = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(w), w, atol=1e-15)

    def test_projection_is_nearest_point_m2(self):
        rng = np.random.default_rng(30)
        grid = simplex_grid(2, 1e-4)
        for _ in range(20):
            y = rng.normal(scale=2.0, size=2)
            p = project_simplex(y)
            dists = np.linalg.norm(grid - y, axis=1)
            assert np.linalg.norm(p - y) <= dists.min() + 1e-6

    def test_floored_projection_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            w_min = rng.uniform(0.0, 1.0 / m)
            p = project_floored_simplex(rng.normal(size=m), w_min)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= w_min - 1e-12)

    def test_infeasible_floor_rejected(self):
        with pytest.raises(ValueError):
            project_floored_simplex(np.array([0.5, 0.5]), 0.6)

    @settings(max_examples=300, deadline=None)
    @example(y=[3.0], share=0.9999999999999999, floored=True)  # slack of 1 ulp
    @given(
        y=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        share=st.floats(0.0, 1.0),
        floored=st.booleans(),
    )
    def test_projection_optimality(self, y, share, floored):
        # p is feasible and <y - p, v - p> <= 0 at every vertex v of the
        # floored simplex, which makes p the nearest feasible point.
        y = np.array(y)
        m = len(y)
        w_min = share / m if floored else 0.0
        p = project_floored_simplex(y, w_min) if floored else project_simplex(y)
        # Rounding in the threshold grows with |y|, so both checks scale with it.
        scale = (1.0 + np.linalg.norm(y)) ** 2
        assert abs(p.sum() - 1.0) <= 1e-14 * m * (1.0 + np.abs(y).max())
        assert np.all(p >= w_min - 1e-15)
        vertices = w_min + (1.0 - m * w_min) * np.eye(m)
        assert np.all((vertices - p) @ (y - p) <= 1e-12 * scale)


class TestEqualWeights:
    @pytest.mark.parametrize(
        "m,expected",
        [(1, [1.0]), (2, [0.5, 0.5]), (4, [0.25, 0.25, 0.25, 0.25])],
    )
    def test_values(self, m, expected):
        np.testing.assert_allclose(equal_weights(m), expected)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            equal_weights(0)


# ---------------------------------------------------------------------------
# Bilinear game solver
# ---------------------------------------------------------------------------


def solve_bilinear_pu_reference(A, cfg, warm=None, gap_target=None):
    """The predictive primal-dual loop as first written, with its negated
    payoff products and a tail-average check before the first restart;
    ``solve_bilinear_pu`` must match it bit for bit."""
    m, n = A.shape
    tau = cfg.pu_tau
    eta = 1.0 / (2.0 * float(np.abs(A).max()) + tau)
    kappa = eta * tau
    if warm is not None:
        w = np.clip(warm[0], 1e-300, None)
        w = w / w.sum()
        q = np.clip(warm[1], 1e-300, None)
        q = q / q.sum()
    else:
        w = np.full(m, 1.0 / m)
        q = np.full(n, 1.0 / n)
    Aeta = eta * A
    AetaT = np.ascontiguousarray(Aeta.T)
    w_acc, q_acc = np.zeros(m), np.zeros(n)
    tail_w, tail_q = np.zeros(m), np.zeros(n)
    tail_start = 0
    best = None

    def consider(wc, qc):
        nonlocal best
        g = float(np.max(A @ qc) - np.min(A.T @ wc))
        if best is None or g < best[0]:
            best = (g, wc.copy(), qc.copy())
        return g

    def normalized(v):
        return v / v.sum()

    for t in range(cfg.pu_iterations):
        if kappa == 0.0:
            base_w, base_q = w, q
        else:
            base_w, base_q = w ** (1.0 - kappa), q ** (1.0 - kappa)
        wb = normalized(base_w * np.exp(Aeta @ q))
        qb = normalized(base_q * np.exp(-(AetaT @ w)))
        w = normalized(base_w * np.exp(Aeta @ qb))
        q = normalized(base_q * np.exp(-(AetaT @ wb)))
        w_acc += wb
        q_acc += qb
        tail_w += wb
        tail_q += qb
        done = t + 1
        if done % 64 == 0 or done == cfg.pu_iterations:
            g_best = consider(w_acc / done, q_acc / done)
            g_best = min(g_best, consider(w, q))
            if done > tail_start:
                span = done - tail_start
                g_best = min(g_best, consider(tail_w / span, tail_q / span))
            if gap_target is not None and g_best <= gap_target:
                break
            if done - tail_start >= max(tail_start, 256):
                tail_w[:] = 0.0
                tail_q[:] = 0.0
                tail_start = done
    gap, w_out, q_out = best
    return w_out, q_out, gap, float(w_out @ A @ q_out)


class TestBilinearPU:
    def test_identity_game(self):
        sol = solve_bilinear_pu(
            np.eye(2), CamooConfig(pu_iterations=4000, pu_tau=0.0), gap_target=1e-4
        )
        assert sol.gap <= 1e-3
        np.testing.assert_allclose(sol.w, [0.5, 0.5], atol=1e-2)
        np.testing.assert_allclose(sol.q, [0.5, 0.5], atol=1e-2)
        assert sol.value == pytest.approx(0.5, abs=1e-3)

    def test_specification_diagonals(self):
        A = np.array([[1.8, 0.2], [0.2, 1.8]])
        grid_val, grid_w = bilinear_grid_value_m2(A)
        assert grid_val == pytest.approx(1.0, abs=1e-3)
        sol = solve_bilinear_pu(
            A, CamooConfig(pu_iterations=20000, pu_tau=0.0), gap_target=1e-5
        )
        assert sol.value == pytest.approx(1.0, abs=1e-3)
        np.testing.assert_allclose(sol.w, grid_w, atol=1e-2)

    def test_selection_concentrates_on_strong_row(self):
        A = np.array([[1.8, 0.2], [1.8, 0.2], [2.0, 2.0]])
        sol = solve_bilinear_pu(
            A, CamooConfig(pu_iterations=20000, pu_tau=0.0), gap_target=1e-5
        )
        # min_j of row 3 beats any mixture's min: the grid over mixtures of
        # (row1+row2, row3) confirms the one-hot optimum.
        mix = bilinear_grid_value_m2(np.array([[1.8, 0.2], [2.0, 2.0]]))[0]
        assert mix == pytest.approx(2.0, abs=1e-3)
        assert sol.w[2] >= 0.99
        assert bilinear_value_of_w(A, sol.w) >= 2.0 - 1e-3

    def test_equal_rows_degenerate(self):
        A = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])
        sol = solve_bilinear_pu(
            A, CamooConfig(pu_iterations=20000, pu_tau=0.0), gap_target=1e-6
        )
        assert sol.gap <= 1e-4
        assert sol.value == pytest.approx(0.5, abs=1e-4)

    def test_equal_columns_degenerate(self):
        # Every q gives the column player the same payoff; any q is optimal
        # and the row player's best response drives the gap to zero.
        A = np.array([[1.0, 1.0], [3.0, 3.0]])
        sol = solve_bilinear_pu(
            A, CamooConfig(pu_iterations=20000, pu_tau=0.0), gap_target=1e-6
        )
        assert sol.gap <= 1e-4
        assert sol.value == pytest.approx(3.0, abs=1e-4)

    def test_single_update_mode(self):
        # One predictive update per call, the minimal per-step setting.
        A = np.array([[1.8, 0.2], [0.2, 1.8]])
        sol = solve_bilinear_pu(A, CamooConfig(pu_iterations=1))
        assert sol.gap >= 0.0
        assert sol.w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        sol = solve_bilinear_pu(np.zeros((2, 3)), CamooConfig())
        assert sol.gap == 0.0
        np.testing.assert_allclose(sol.w, [0.5, 0.5])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            solve_bilinear_pu(np.array([[np.nan, 1.0]]), CamooConfig())

    @pytest.mark.parametrize("field", ["pu_tau", "w_min"])
    @pytest.mark.parametrize("value", [-0.01, float("nan"), float("inf")])
    def test_config_rejects_negative_or_nan(self, field, value):
        with pytest.raises(ValueError, match=field):
            CamooConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, solve",
        [
            # Each solve once failed deep inside, with NaN weights and gaps.
            ("pu_tau", lambda cfg: solve_bilinear_pu(np.eye(2), cfg)),
            ("gram_tau", lambda cfg: pamoo_weights(np.ones(2), np.eye(2), cfg)),
        ],
    )
    def test_infinite_setting_rejected_before_the_solve(self, field, solve):
        config = PamooConfig if field == "gram_tau" else CamooConfig
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            solve(config(**{field: float("inf")}))

    def test_gap_certificate_nonnegative_and_weak_duality(self):
        rng = np.random.default_rng(32)
        A = rng.uniform(0, 3, size=(5, 8))
        for iters in (64, 256, 1024, 4096):
            sol = solve_bilinear_pu(A, CamooConfig(pu_iterations=iters, pu_tau=0.0))
            lower = bilinear_value_of_w(A, sol.w)
            upper = float(np.max(A @ sol.q))
            assert lower <= upper + 1e-12
            assert sol.gap == pytest.approx(upper - lower, abs=1e-12)
            assert sol.gap >= -1e-10

    def test_gap_trend_and_final_tolerance(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            A = rng.uniform(0, 3, size=(5, 8))
            early = solve_bilinear_pu(A, CamooConfig(pu_iterations=128, pu_tau=0.0))
            late = solve_bilinear_pu(
                A, CamooConfig(pu_iterations=60000, pu_tau=0.0), gap_target=9e-4
            )
            assert late.gap <= early.gap + 1e-12
            assert late.gap <= 1e-3

    def test_regularized_default_still_converges(self):
        A = np.array([[1.8, 0.2], [0.2, 1.8]])
        sol = solve_bilinear_pu(A, CamooConfig(pu_iterations=2000))
        assert sol.gap <= 5e-2
        np.testing.assert_allclose(sol.w, [0.5, 0.5], atol=5e-2)

    @pytest.mark.parametrize("shape", [(5, 8), (2, 6), (3, 903)])
    @pytest.mark.parametrize("pu_tau", [0.0, 0.01])
    @pytest.mark.parametrize("gap_target", [None, 2e-3])
    def test_bitwise_equal_to_reference_loop(self, shape, pu_tau, gap_target):
        rng = np.random.default_rng(38)
        for trial, iterations in enumerate((10, 64, 300, 1100)):
            A = rng.uniform(0.0, 3.0, size=shape) * 10.0 ** rng.uniform(-3, 1)
            cfg = CamooConfig(pu_iterations=iterations, pu_tau=pu_tau)
            for warm in (
                None,
                (rng.dirichlet(np.ones(shape[0])), rng.dirichlet(np.ones(shape[1]))),
            ):
                sol = solve_bilinear_pu(A, cfg, warm=warm, gap_target=gap_target)
                want = solve_bilinear_pu_reference(A, cfg, warm, gap_target)
                for got, ref in zip((sol.w, sol.q, sol.gap, sol.value), want):
                    assert np.array_equal(got, ref)

    def test_warm_start_accepted(self):
        A = np.array([[1.8, 0.2], [0.2, 1.8]])
        warm = (np.array([0.9, 0.1]), np.full(2, 0.5))
        sol = solve_bilinear_pu(
            A, CamooConfig(pu_iterations=20000, pu_tau=0.0), warm=warm,
            gap_target=1e-4,
        )
        assert sol.gap <= 1e-3

    @pytest.mark.parametrize("gap_target", [None, 2e-3])
    def test_iterations_reported(self, gap_target):
        rng = np.random.default_rng(41)
        for shape, iterations in (((5, 8), 1000), ((2, 6), 300), ((3, 903), 10)):
            A = rng.uniform(0.0, 3.0, size=shape)
            cfg = CamooConfig(pu_iterations=iterations, pu_tau=0.0)
            sol = solve_bilinear_pu(A, cfg, gap_target=gap_target)
            if gap_target is None:
                assert sol.iterations == iterations
            elif sol.gap <= gap_target:
                assert sol.iterations % 64 == 0 or sol.iterations == iterations
        # 2e-3 is met on the 5x8 game at a check before the last iteration.
        A = rng.uniform(0.0, 3.0, size=(5, 8))
        cfg = CamooConfig(pu_iterations=60000, pu_tau=0.0)
        sol = solve_bilinear_pu(A, cfg, gap_target=2e-3)
        assert sol.gap <= 2e-3 and sol.iterations % 64 == 0 and sol.iterations < 60000


def assert_same_solution(sol, want):
    for got, ref in zip((sol.w, sol.q, sol.gap, sol.value), want):
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class TestBilinearStack:
    """A stack of games solved at once equals each game solved alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        games=st.integers(1, 6),
        m=st.sampled_from([1, 2, 3, 5]),
        n=st.one_of(st.integers(1, 12), st.integers(13, 903)),
        log_scales=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
        pu_tau=st.sampled_from([0.0, 0.01]),
        iterations=st.integers(1, 400),
        warm=st.booleans(),
        gap_target=st.sampled_from([None, 1e-3, 1e-2, 1e-1]),
        zero_game=st.one_of(st.none(), st.integers(0, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_reference_loop_per_game(
        self, games, m, n, log_scales, pu_tau, iterations, warm, gap_target,
        zero_game, seed,
    ):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** np.array(log_scales[:games])
        A = rng.uniform(0.0, 3.0, size=(games, m, n)) * scales[:, None, None]
        if zero_game is not None and zero_game < games:
            A[zero_game] = 0.0
        W = rng.dirichlet(np.ones(m), size=games) if warm else None
        Q = rng.dirichlet(np.ones(n), size=games) if warm else None
        cfg = CamooConfig(pu_iterations=iterations, pu_tau=pu_tau)
        sols = solve_bilinear_pu_stack(
            A, cfg, warm=(W, Q) if warm else None, gap_target=gap_target
        )
        assert len(sols) == games
        for k, sol in enumerate(sols):
            warm_k = (W[k], Q[k]) if warm else None
            if not A[k].any():
                want = (np.full(m, 1.0 / m), np.full(n, 1.0 / n), 0.0, 0.0)
                assert sol.iterations == 0
            else:
                want = solve_bilinear_pu_reference(A[k], cfg, warm_k, gap_target)
            assert_same_solution(sol, want)
            alone = solve_bilinear_pu(A[k], cfg, warm=warm_k, gap_target=gap_target)
            assert_same_solution(sol, (alone.w, alone.q, alone.gap, alone.value))
            assert sol.iterations == alone.iterations

    @settings(max_examples=40, deadline=None)
    @given(
        easy=st.integers(0, 4),
        m=st.sampled_from([1, 2, 3]),
        n=st.sampled_from([1, 2, 7, 903]),
        log_scales=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
        pu_tau=st.sampled_from([0.0, 0.01]),
        iterations=st.integers(65, 300),
        warm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lone_game_equals_its_single_solve(
        self, easy, m, n, log_scales, pu_tau, iterations, warm, seed
    ):
        """A stack of one game, or one that the easy games leave after the
        first check, solves its lone game without the batch axis; every game
        still gets its ``solve_bilinear_pu`` answer bit for bit."""
        rng = np.random.default_rng(seed)
        scales = 10.0 ** np.array(log_scales[: easy + 1])
        # A constant game certifies a gap of 0 up to rounding at once; the
        # last game is generic, so it misses the tiny target at that check.
        A = np.ones((easy + 1, m, n)) * scales[:, None, None]
        A[-1] *= rng.uniform(0.0, 3.0, size=(m, n))
        W = rng.dirichlet(np.ones(m), size=easy + 1) if warm else None
        Q = rng.dirichlet(np.ones(n), size=easy + 1) if warm else None
        cfg = CamooConfig(pu_iterations=iterations, pu_tau=pu_tau)
        target = 1e-12
        sols = solve_bilinear_pu_stack(
            A, cfg, warm=(W, Q) if warm else None, gap_target=target
        )
        for k, sol in enumerate(sols):
            warm_k = (W[k], Q[k]) if warm else None
            alone = solve_bilinear_pu(A[k], cfg, warm=warm_k, gap_target=target)
            assert_same_solution(sol, (alone.w, alone.q, alone.gap, alone.value))
            assert sol.iterations == alone.iterations
        assert all(sol.iterations == 64 for sol in sols[:-1])
        if m > 1 and n > 1:
            assert sols[-1].iterations > 64  # the last game ran alone

    def test_games_leave_at_different_checks(self):
        rng = np.random.default_rng(42)
        A = rng.uniform(0.0, 3.0, size=(6, 5, 8)) * np.logspace(-2, 2, 6)[:, None, None]
        A[3] = 0.0
        cfg = CamooConfig(pu_iterations=3000, pu_tau=0.0)
        sols = solve_bilinear_pu_stack(A, cfg, gap_target=1e-3)
        assert len({sol.iterations for sol in sols}) >= 4
        assert sols[3].iterations == 0 and sols[3].gap == 0.0
        for k in (0, 1, 2, 4, 5):
            want = solve_bilinear_pu_reference(A[k], cfg, None, 1e-3)
            assert_same_solution(sols[k], want)
            met = sols[k].gap <= 1e-3
            assert sols[k].iterations % 64 == 0 if met else sols[k].iterations == 3000

    def test_iterations_without_target(self):
        rng = np.random.default_rng(43)
        sols = solve_bilinear_pu_stack(
            rng.uniform(0.0, 3.0, size=(4, 3, 7)), CamooConfig(pu_iterations=130)
        )
        assert [sol.iterations for sol in sols] == [130] * 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_game_rejected(self, bad):
        A = np.ones((4, 2, 3))
        A[2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_bilinear_pu_stack(A, CamooConfig())

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (1, 2, 3, 4)])
    def test_not_three_dimensional_rejected(self, shape):
        with pytest.raises(ValueError, match="3-D"):
            solve_bilinear_pu_stack(np.ones(shape), CamooConfig())

    def test_warm_shape_checked(self):
        warm = (np.ones((2, 2)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="warm"):
            solve_bilinear_pu_stack(np.ones((2, 2, 3)), CamooConfig(), warm=warm)


# ---------------------------------------------------------------------------
# Curvature-adaptive weights, exact mode
# ---------------------------------------------------------------------------


def closed_form_cuts(m):
    """The most cuts K whose max-min LP ``max_min_weights`` still solves by
    enumerating its C(K + m, m) candidate bases."""
    k = 1
    while math.comb(k + 1 + m, m) <= amoo.weighting.CLOSED_FORM_BASES:
        k += 1
    return k


def assert_max_min_solution(C, w_min, w, value, y):
    """``max_min_weights``'s output against one direct HiGHS solve: the same
    value to 1e-12 of max |C|, weights on the floored simplex that attain it,
    and multipliers whose upper bound meets it."""
    m, n = C.shape
    tol = 1e-12 * (np.abs(C).max() or 1.0)
    assert abs(value - highs_max_min_value(C, w_min)) <= tol
    assert w.shape == (m,) and abs(w.sum() - 1.0) <= 1e-12
    assert w.min() >= w_min - 1e-12
    assert abs((w @ C).min() - value) <= tol
    assert y.shape == (n,) and y.min() >= 0.0 and abs(y.sum() - 1.0) <= 1e-12
    g = C @ y
    assert abs(w_min * g.sum() + (1.0 - m * w_min) * g.max() - value) <= tol


class TestMaxMinWeights:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 4),
        share=st.floats(0.0, 1.0),
        floor=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        integers=st.booleans(),
        edit=st.sampled_from([None, "tied rows", "zero column", "duplicate column"]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=2, share=0.0, floor=0.0, integers=False, edit=None, scale=1.0, seed=0)
    def test_closed_form_matches_highs(
        self, m, share, floor, integers, edit, scale, seed
    ):
        n = 1 + int(share * (closed_form_cuts(m) - 1))
        rng = np.random.default_rng(seed)
        # Small integers tie and shift columns, which makes bases singular.
        C = rng.integers(-2, 4, size=(m, n)) if integers else rng.uniform(-1, 3, (m, n))
        C = scale * C
        if edit == "tied rows":
            C[-1] = C[0]
        elif edit == "zero column":
            C[:, rng.integers(n)] = 0.0
        elif edit == "duplicate column":
            C[:, -1] = C[:, 0]
        w_min = floor / m
        with mock.patch.object(optimize, "linprog", side_effect=AssertionError):
            w, value, y = max_min_weights(C, w_min)
        assert_max_min_solution(C, w_min, w, value, y)

    def test_above_the_threshold_takes_highs(self):
        m = 3
        n = closed_form_cuts(m) + 1
        assert math.comb(n + m, m) > amoo.weighting.CLOSED_FORM_BASES
        C = np.random.default_rng(7).uniform(0.0, 3.0, size=(m, n))
        with mock.patch.object(optimize, "linprog", wraps=optimize.linprog) as lp:
            w, value, y = max_min_weights(C, 0.1 / m)
        assert lp.call_count == 1
        assert_max_min_solution(C, 0.1 / m, w, value, y)


class TestCamooExact:
    def test_specification_hessians(self):
        mats = [np.diag([1.8, 0.2]), np.diag([0.2, 1.8])]
        grid_val, _ = grid_max_min_eig(mats, step=1e-3)
        res = solve_camoo_exact(mats, CamooConfig())
        assert res.value == pytest.approx(grid_val, abs=1e-3)
        assert res.value == pytest.approx(1.0, abs=1e-3)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-2)

    def test_scalar_curvatures_with_floor(self):
        h1, h2 = np.exp(1.0), np.exp(-1.0)
        cfg = CamooConfig(w_min=0.1)
        res = solve_camoo_exact([[[h1]], [[h2]]], cfg)
        np.testing.assert_allclose(res.weights, [0.9, 0.1], atol=1e-6)
        assert res.value == pytest.approx(0.9 * h1 + 0.1 * h2, abs=1e-9)

    def test_identical_hessians(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        res = solve_camoo_exact([H, H], CamooConfig())
        lam_ref, _ = min_eigenpair(H)
        assert res.value == pytest.approx(lam_ref, abs=1e-9)

    def test_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(34)
        for _ in range(8):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            mats = []
            for _ in range(m):
                B = rng.normal(size=(n, n))
                mats.append(B @ B.T / n + 0.05 * np.eye(n))
            grid_val, _ = grid_max_min_eig(mats, step=2e-3)
            res = solve_camoo_exact(mats, CamooConfig())
            assert res.converged
            assert res.value >= grid_val - 1e-3

    def test_scaling_invariance(self):
        mats = [np.diag([1.8, 0.2]), np.diag([0.2, 1.8])]
        res1 = solve_camoo_exact(mats, CamooConfig())
        res2 = solve_camoo_exact([37.0 * H for H in mats], CamooConfig())
        np.testing.assert_allclose(
            res1.weights, res2.weights, atol=1e-2
        )
        assert res2.value == pytest.approx(37.0 * res1.value, rel=1e-9)

    def test_floored_optimum_close_to_unfloored(self):
        # Curvature over the floored simplex degrades by at most
        # 2 m w_min beta relative to the full-simplex optimum.
        for kind, kwargs, beta in [
            ("specification", {"delta": 0.1}, 1.8),
            ("selection", {"delta": 0.1, "m": 3, "n": 2}, 2.0),
        ]:
            problem = build(ProblemSpec(kind=kind, **kwargs))
            mats = problem.objectives.hessians(problem.optimum.x_star)
            grid_val, _ = grid_max_min_eig(mats, step=1e-3)
            m = len(mats)
            for w_min in (0.01, 0.05, 0.1):
                res = solve_camoo_exact(mats, CamooConfig(w_min=w_min))
                assert res.value >= grid_val - 2.0 * m * w_min * beta - 1e-6

    def test_zero_matrices(self):
        res = solve_camoo_exact([np.zeros((2, 2))], CamooConfig())
        assert res.value == 0.0
        assert res.converged

    def test_infeasible_floor(self):
        with pytest.raises(ValueError):
            solve_camoo_exact([np.eye(2)] * 3, CamooConfig(w_min=0.5))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 6),
        floor=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gap_certifies_the_optimum(self, m, n, floor, seed):
        mats = random_psd_stack(seed, m, n)
        w_min = floor / m
        res = solve_camoo_exact(list(mats), CamooConfig(w_min=w_min))
        scale = max(spectral_norm(H) for H in mats)
        assert_on_simplex(res.weights, m, w_min)
        lam = np.linalg.eigvalsh(np.einsum("i,ijk->jk", res.weights, mats))[0]
        assert res.value == pytest.approx(lam, abs=1e-12 * scale)
        assert res.converged and 0.0 <= res.gap <= 1e-7 * scale
        assert res.cuts.shape[1:] == (n,) and len(res.cuts) >= 1
        if w_min == 0.0:
            grid_val, _ = grid_best_weighted_curvature(list(mats))
            assert grid_val <= res.value + res.gap + 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 50),
        floor=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_diagonal_hessians_agree_with_the_lp(self, m, n, floor, seed):
        # With diagonal Hessians lambda_min(sum w_i H_i) = min_j (w'D)_j, so
        # the LP on the diagonals solves the same problem.
        D = np.random.default_rng(seed).uniform(0.05, 3.0, size=(m, n))
        w_min = floor / m
        res = solve_camoo_exact([np.diag(d) for d in D], CamooConfig(w_min=w_min))
        _, lp_value, _ = max_min_weights(D, w_min)
        tol = 1e-12 * D.max()
        assert res.value - tol <= lp_value <= res.value + res.gap + tol

    def test_lp_cap_stops_unconverged_with_a_valid_gap(self, monkeypatch):
        monkeypatch.setattr(amoo.weighting, "MAX_CUTS", 2)
        mats = list(random_psd_stack(0, 3, 6))
        res = solve_camoo_exact(mats, CamooConfig())
        grid_val, _ = grid_best_weighted_curvature(mats)
        assert res.iterations == 2 and not res.converged
        assert grid_val <= res.value + res.gap + 1e-12

    def test_warm_cuts_resolve_constant_hessians_in_one_or_two_lps(self):
        for seed in range(5):
            mats = list(random_psd_stack(seed, 3, 12))
            cold = solve_camoo_exact(mats, CamooConfig())
            assert len(cold.cuts) >= 1 and cold.iterations > 2
            warm = solve_camoo_exact(mats, CamooConfig(), warm=cold.cuts)
            assert warm.converged and warm.iterations <= 2
            assert abs(warm.value - cold.value) <= max(cold.gap, warm.gap)

    @pytest.mark.parametrize(
        "warm", [np.ones(2), np.ones((1, 3)), np.ones((0, 2)), [[0.0, 0.0]], [[np.nan, 1]]]
    )
    def test_bad_warm_cuts_rejected(self, warm):
        with pytest.raises(ValueError, match="warm cuts"):
            solve_camoo_exact([np.eye(2)] * 2, CamooConfig(), warm=warm)


class TestCamooDiag:
    """The bilinear PU game on Hessian diagonals: with diagonal Hessians,
    lambda_min of the weighted sum is min_j (w'A)_j."""

    def test_specification_diagonals(self):
        A = np.array([[1.8, 0.2], [0.2, 1.8]])
        sol = solve_bilinear_pu(
            A, CamooConfig(mode=MODE_DIAGONAL, pu_iterations=20000, pu_tau=0.0)
        )
        np.testing.assert_allclose(sol.w, [0.5, 0.5], atol=1e-2)
        assert bilinear_value_of_w(A, sol.w) >= 1.0 - 1e-2

    def test_single_row(self):
        sol = solve_bilinear_pu(np.array([[1.5, 0.4, 0.2]]), CamooConfig())
        np.testing.assert_allclose(sol.w, [1.0])

    def test_identical_rows_value_unchanged(self):
        A = np.array([[1.0, 0.5], [1.0, 0.5]])
        sol = solve_bilinear_pu(A, CamooConfig(pu_iterations=4000, pu_tau=0.0))
        assert bilinear_value_of_w(A, sol.w) == pytest.approx(0.5, abs=1e-6)

    def test_floor_applies(self):
        # The game concentrates on the strong row; projecting onto the
        # floored simplex lifts the weak row to the floor.
        A = np.array([[2.0, 2.0], [0.1, 0.1]])
        sol = solve_bilinear_pu(A, CamooConfig(pu_iterations=4000, pu_tau=0.0))
        assert sol.w[0] > 0.99
        w = project_floored_simplex(sol.w, 0.2)
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-12)
        assert bilinear_value_of_w(A, w) == pytest.approx(1.62, abs=1e-9)


# ---------------------------------------------------------------------------
# Polyak-style weights
# ---------------------------------------------------------------------------


def pamoo_weights_reference(gaps, gram, cfg, warm=None):
    """The projected-ascent loop as first written, with its per-iteration
    constants and ``np.max`` reductions; ``pamoo_weights`` must match it bit
    for bit."""
    gram = check_symmetric(gram, tol=1e-8)
    m = len(gaps)
    evals = np.linalg.eigvalsh(gram)
    Gp = gram + cfg.gram_tau * np.eye(m)
    lam_max = float(evals[-1]) + cfg.gram_tau
    eta = cfg.step if lam_max <= 0 else min(cfg.step, 0.9 / lam_max)
    if warm is not None:
        w = np.asarray(warm, dtype=np.float64).copy()
    else:
        diag = np.diagonal(Gp)
        w = np.where(diag > 0, gaps / np.where(diag > 0, diag, 1.0), 0.0)
    w = np.maximum(w, cfg.clip_floor)
    for _ in range(cfg.iterations):
        w_next = np.maximum(w + eta * 2.0 * (gaps - Gp @ w), cfg.clip_floor)
        moved = float(np.max(np.abs(w_next - w)))
        w = w_next
        if moved <= 1e-16 * (1.0 + float(np.max(np.abs(w)))):
            break
    return w


class TestPamoo:
    def test_scalar_polyak_ratio(self):
        cfg = PamooConfig(gram_tau=0.0, iterations=1000)
        w = pamoo_weights(np.array([2.0]), np.array([[4.0]]), cfg)
        assert w[0] == pytest.approx(0.5, abs=1e-9)

    def test_diagonal_gram(self):
        w = pamoo_weights(
            np.array([1.0, 2.0]), np.diag([2.0, 8.0]),
            PamooConfig(gram_tau=0.0, iterations=5000),
        )
        np.testing.assert_allclose(w, [0.5, 0.25], atol=1e-8)

    def test_active_floor_matches_enumeration(self):
        gaps = np.array([1.0, 0.0])
        gram = np.array([[1.0, 0.9], [0.9, 1.0]])
        cfg = PamooConfig(gram_tau=0.0, iterations=20000, clip_floor=1e-6)
        w = pamoo_weights(gaps, gram, cfg)
        unconstrained = np.linalg.solve(gram, gaps)
        assert unconstrained.min() < 0  # the clip must engage
        best_val, best_w = active_set_quadratic_max(gaps, gram, 0.0, 1e-6)
        assert w[1] == pytest.approx(1e-6, abs=1e-12)
        np.testing.assert_allclose(w, best_w, atol=1e-6)
        val = 2 * w @ gaps - w @ gram @ w
        assert val == pytest.approx(best_val, abs=1e-9)

    def test_matches_closed_form_when_feasible(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            B = rng.normal(size=(m, m + 2))
            gram = B @ B.T + 0.5 * np.eye(m)
            gaps = rng.uniform(0.5, 2.0, size=m)
            tau = 1e-4
            closed = np.linalg.solve(gram + tau * np.eye(m), gaps)
            if closed.min() <= 1e-6:
                continue
            cfg = PamooConfig(gram_tau=tau, iterations=50000, step=1e-2)
            w = pamoo_weights(gaps, gram, cfg)
            gp = gram + tau * np.eye(m)

            def phi(v):
                return 2 * v @ gaps - v @ gp @ v

            assert phi(w) == pytest.approx(phi(closed), abs=1e-6)

    def test_projected_gradient_optimality(self):
        rng = np.random.default_rng(36)
        for _ in range(15):
            m = int(rng.integers(1, 5))
            B = rng.normal(size=(m, m + 1))
            gram = B @ B.T + 0.2 * np.eye(m)
            gaps = rng.uniform(-0.5, 2.0, size=m)
            cfg = PamooConfig(gram_tau=1e-4, iterations=60000, step=5e-2)
            w = pamoo_weights(gaps, gram, cfg)
            grad = 2.0 * (gaps - (gram + 1e-4 * np.eye(m)) @ w)
            active = w <= cfg.clip_floor + 1e-15
            projected = np.where(active & (grad <= 0), 0.0, grad)
            assert np.linalg.norm(projected) <= 1e-5

    @pytest.mark.parametrize("clip_floor", [0.0, 1e-6, -0.0])
    @pytest.mark.parametrize("gram_tau", [0.0, 1e-4])
    def test_bitwise_equal_to_reference_loop(self, clip_floor, gram_tau):
        for m in (1, 2, 3, 5):
            rng = np.random.default_rng([37, m])
            on_floor = 0
            for trial in range(12):
                B = rng.normal(size=(m, int(rng.integers(1, m + 3))))
                gaps = rng.uniform(-0.5, 2.0, size=m)
                warm = rng.uniform(-0.5, 2.0, size=m) if trial % 2 else None
                if trial == 11:  # signed zeros tie at the clip
                    gaps, warm = np.zeros(m), np.full(m, -0.0)
                # Every third trial runs the theory preset's 4000-iteration ascent.
                theory = trial % 3 == 0
                cfg = PamooConfig(
                    step=3e-3 if theory else float(rng.choice([3e-3, 1.0])),
                    iterations=4000 if theory else int(rng.choice([1, 30, 200])),
                    clip_floor=clip_floor,
                    gram_tau=gram_tau,
                )
                got = pamoo_weights(gaps, B @ B.T, cfg, warm=warm)
                want = pamoo_weights_reference(gaps, B @ B.T, cfg, warm=warm)
                assert got.tobytes() == want.tobytes(), (m, trial)
                on_floor += bool((want == clip_floor).any())
            assert on_floor > 0  # some iterates end on the floor

    @pytest.mark.parametrize("field", ["clip_floor", "gram_tau", "step"])
    @pytest.mark.parametrize("value", [-1e-6, float("nan"), float("inf")])
    def test_config_rejects_negative_or_nan(self, field, value):
        with pytest.raises(ValueError, match=field):
            PamooConfig(**{field: value})

    def test_nan_warm_start_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            pamoo_weights(
                np.array([1.0, 0.5]), np.eye(2), warm=np.array([np.nan, 1.0])
            )

    def test_non_psd_gram_rejected(self):
        with pytest.raises(ValueError):
            pamoo_weights(np.array([1.0]), np.array([[-1.0]]), PamooConfig())

    def test_gram_shape_checked(self):
        with pytest.raises(ValueError, match="does not match 2 gaps"):
            pamoo_weights(np.array([1.0, 0.5]), np.eye(3), PamooConfig())

    def test_context_from_objectives(self):
        problem = build(ProblemSpec(kind="specification", delta=0.1))
        x = np.array([1.0, -0.5])
        J = problem.objectives.gradients(x)
        gaps, gram = pamoo_context(
            problem.objectives.values(x), J, problem.optimum.f_star
        )
        np.testing.assert_allclose(gram, J @ J.T, atol=1e-14)
        np.testing.assert_allclose(gaps, problem.objectives.values(x), atol=1e-14)
        assert np.all(gaps >= -1e-9)
        assert np.linalg.eigvalsh(gram)[0] >= -1e-10


# ---------------------------------------------------------------------------
# Each rule's weights lie on its set
# ---------------------------------------------------------------------------

# Weights are plain arrays: these properties are what a rule guarantees of
# them, to within a sum 1e-9 off 1 and entries 1e-9 under their floor.
SUM_TOL = 1e-9


def assert_on_simplex(w, m, floor=0.0):
    assert w.dtype == np.float64 and w.shape == (m,)
    assert abs(w.sum() - 1.0) <= SUM_TOL
    assert w.min() >= floor - SUM_TOL


def random_psd_stack(seed, m, n):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(m, n, n))
    return B @ B.transpose(0, 2, 1) / n + 0.05 * np.eye(n)


class TestWeightsOnTheirSet:
    @given(m=st.integers(1, 64))
    def test_equal_weights(self, m):
        assert_on_simplex(equal_weights(m), m)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        floor_frac=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_camoo_exact(self, m, n, floor_frac, seed):
        w_min = floor_frac / m
        res = solve_camoo_exact(
            list(random_psd_stack(seed, m, n)), CamooConfig(w_min=w_min)
        )
        assert_on_simplex(res.weights, m, w_min)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 40),
        iterations=st.integers(1, 200),
        pu_tau=st.sampled_from([0.0, 0.01]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bilinear_pu(self, m, n, iterations, pu_tau, seed):
        A = np.random.default_rng(seed).uniform(0.0, 3.0, size=(m, n))
        cfg = CamooConfig(pu_iterations=iterations, pu_tau=pu_tau)
        sol = solve_bilinear_pu(A, cfg)
        assert_on_simplex(sol.w, m)
        assert_on_simplex(sol.q, n)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        clip_floor=st.sampled_from([0.0, 1e-6, 0.1]),
        gram_tau=st.sampled_from([0.0, 1e-4]),
        iterations=st.integers(1, 300),
        warm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pamoo_weights(self, m, clip_floor, gram_tau, iterations, warm, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(m, int(rng.integers(1, m + 3))))
        gaps = rng.uniform(-0.5, 2.0, size=m)
        cfg = PamooConfig(clip_floor=clip_floor, gram_tau=gram_tau, iterations=iterations)
        w0 = rng.uniform(-0.5, 2.0, size=m) if warm else None
        w = pamoo_weights(gaps, B @ B.T, cfg, warm=w0)
        assert w.dtype == np.float64 and w.shape == (m,)
        assert np.isfinite(w).all() and w.min() >= clip_floor
