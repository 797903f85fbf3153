"""Weight optimizers against brute-force grid and enumeration oracles."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

import amoo.weighting
from amoo.core import NumericError
from amoo.linalg import (
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
    solve_bilinear_pu,
    solve_camoo_diagonal,
    solve_camoo_exact,
)
from amoo.problems import ProblemSpec, build
from grid_oracle import grid_max_min_eig
from test_golden_traces import spd_hessians


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
    """Enumerate floor-active sets of max 2w'g - w'(G+tau I)w, w >= floor.

    A free block singular to rounding (condition number above 1e13) is
    skipped: its solution is rounding noise, and so is its value."""
    m = len(gaps)
    gp = gram + tau * np.eye(m)
    best_val, best_w = -np.inf, None
    for active in itertools.product([False, True], repeat=m):
        w = np.full(m, floor)
        free = [i for i in range(m) if not active[i]]
        if free:
            idx = np.ix_(free, free)
            if np.linalg.cond(gp[idx]) > 1e13:
                continue
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


class TestBilinearPU:
    """The matrix game max_w min_q w'Aq, solved by the LP ``max_min_weights``
    and by ``solve_bilinear_pu``, the name the benchmark calls it by."""

    def test_identity_game(self):
        w, value, q = max_min_weights(np.eye(2))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-12)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_specification_diagonals(self):
        A = np.array([[1.8, 0.2], [0.2, 1.8]])
        grid_val, grid_w = bilinear_grid_value_m2(A)
        assert grid_val == pytest.approx(1.0, abs=1e-3)
        w, value, _ = max_min_weights(A)
        assert value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w, grid_w, atol=1e-12)

    def test_selection_concentrates_on_strong_row(self):
        A = np.array([[1.8, 0.2], [1.8, 0.2], [2.0, 2.0]])
        w, value, _ = max_min_weights(A)
        # min_j of row 3 beats any mixture's min: the grid over mixtures of
        # (row1+row2, row3) confirms the one-hot optimum.
        mix = bilinear_grid_value_m2(np.array([[1.8, 0.2], [2.0, 2.0]]))[0]
        assert mix == pytest.approx(2.0, abs=1e-3)
        np.testing.assert_allclose(w, [0.0, 0.0, 1.0], atol=1e-12)
        assert bilinear_value_of_w(A, w) == pytest.approx(2.0, abs=1e-12)

    def test_equal_rows_degenerate(self):
        # Any w is optimal; the column player's best column is the third.
        A = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])
        w, value, q = max_min_weights(A)
        assert value == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(q, [0.0, 0.0, 1.0], atol=1e-12)
        assert_max_min_solution(A, 0.0, w, value, q)

    def test_equal_columns_degenerate(self):
        # Every q gives the column player the same payoff; any q is optimal
        # and the row player's best response is the second row.
        A = np.array([[1.0, 1.0], [3.0, 3.0]])
        w, value, q = max_min_weights(A)
        assert value == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-12)
        assert_max_min_solution(A, 0.0, w, value, q)

    def test_zero_matrix(self):
        sol = solve_bilinear_pu(np.zeros((2, 3)), CamooConfig())
        assert sol.gap == 0.0 and sol.value == 0.0
        assert_on_simplex(sol.w, 2)
        assert_on_simplex(sol.q, 3)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            solve_bilinear_pu(np.array([[np.nan, 1.0]]), CamooConfig())

    @pytest.mark.parametrize("field", ["w_min"])
    @pytest.mark.parametrize("value", [-0.01, float("nan"), float("inf")])
    def test_config_rejects_negative_or_nan(self, field, value):
        with pytest.raises(ValueError, match=field):
            CamooConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, solve",
        [
            # The solve once failed deep inside, with NaN weights and gaps.
            ("gram_tau", lambda cfg: pamoo_weights(np.ones(2), np.eye(2), cfg)),
        ],
    )
    def test_infinite_setting_rejected_before_the_solve(self, field, solve):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            solve(PamooConfig(**{field: float("inf")}))

    def test_gap_certificate_nonnegative_and_weak_duality(self):
        rng = np.random.default_rng(32)
        for shape in ((5, 8), (2, 6), (3, 903)):
            A = rng.uniform(0, 3, size=shape)
            sol = solve_bilinear_pu(A, CamooConfig())
            w, value, q = max_min_weights(A)
            assert sol.w.tobytes() == w.tobytes() and sol.q.tobytes() == q.tobytes()
            assert sol.value == value
            lower = bilinear_value_of_w(A, sol.w)
            upper = float(np.max(A @ sol.q))
            assert lower <= upper + 1e-12
            assert sol.gap == max(upper - lower, 0.0)
            assert sol.gap <= 1e-12 * np.abs(A).max()


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

    def test_highs_takes_over_when_no_basis_is_optimal(self):
        # Below the threshold, but the vertex enumeration finds no optimal
        # basis: one HiGHS LP answers, and agrees with the closed form.
        C = np.random.default_rng(8).uniform(0.0, 3.0, size=(3, 4))
        want = max_min_weights(C, 0.05)
        with (
            mock.patch.object(amoo.weighting, "_max_min_vertex", return_value=None),
            mock.patch.object(optimize, "linprog", wraps=optimize.linprog) as lp,
        ):
            w, value, y = max_min_weights(C, 0.05)
        assert lp.call_count == 1
        assert_max_min_solution(C, 0.05, w, value, y)
        assert value == pytest.approx(want[1], rel=1e-9)
        np.testing.assert_allclose(w, want[0], atol=1e-7)
        np.testing.assert_allclose(y, want[2], atol=1e-7)


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
        n=st.integers(1, 12),
        floor=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gap_certifies_the_optimum(self, m, n, floor, seed):
        mats = random_psd_stack(seed, m, n)
        w_min = floor / m
        res, warm = solve_exact_without_highs(mats, w_min)
        scale = max(spectral_norm(H) for H in mats)
        assert_on_simplex(res.weights, m, w_min)
        lam = np.linalg.eigvalsh(np.einsum("i,ijk->jk", res.weights, mats))[0]
        assert res.value == pytest.approx(lam, abs=1e-12 * scale)
        for r in (res, warm):
            assert r.converged and 0.0 <= r.gap <= 1e-7 * scale
            assert r.cuts.shape[1:] == (n,) and 1 <= len(r.cuts) <= m
        if w_min == 0.0:
            grid_val, _ = grid_max_min_eig(list(mats), step=1e-2)
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
        grid_val, _ = grid_max_min_eig(mats, step=1e-2)
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

    @pytest.mark.parametrize("seed", range(5))
    def test_golden_solves_stay_in_closed_form(self, seed):
        mats = spd_hessians(seed)
        tol = 1e-7 * max(spectral_norm(H) for H in mats)
        for res in solve_exact_without_highs(mats, 0.0):
            assert res.converged and 0.0 <= res.gap <= tol

    @pytest.mark.parametrize(
        "warm", [np.ones(2), np.ones((1, 3)), np.ones((0, 2)), [[0.0, 0.0]], [[np.nan, 1]]]
    )
    def test_bad_warm_cuts_rejected(self, warm):
        with pytest.raises(ValueError, match="warm cuts"):
            solve_camoo_exact([np.eye(2)] * 2, CamooConfig(), warm=warm)


class TestCamooDiagonal:
    """Column generation on Hessian diagonals against one HiGHS solve over
    every column."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 40),
        floor=st.sampled_from([0.0, 0.1, 0.3]),
        integers=st.booleans(),
        edit=st.sampled_from([None, "tied rows", "zero column", "duplicate column"]),
        start=st.sampled_from(["cold", "own cuts", "perturbed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certifies_the_optimum(self, m, n, floor, integers, edit, start, seed):
        rng = np.random.default_rng(seed)
        # Small integers tie and shift columns, which makes bases singular.
        D = rng.integers(-2, 4, size=(m, n)) if integers else rng.uniform(-1, 3, (m, n))
        D = D.astype(np.float64)
        if edit == "tied rows":
            D[-1] = D[0]
        elif edit == "zero column":
            D[:, rng.integers(n)] = 0.0
        elif edit == "duplicate column":
            D[:, -1] = D[:, 0]
        w_min = floor / m
        cfg = CamooConfig(mode=MODE_DIAGONAL, w_min=w_min)
        with mock.patch.object(optimize, "linprog", wraps=optimize.linprog) as lp:
            warm = None if start == "cold" else solve_camoo_diagonal(D, cfg).cuts
            if start == "perturbed":
                D = D + 0.1 * rng.normal(size=D.shape)
            res = solve_camoo_diagonal(D, cfg, warm=warm)
        # HiGHS only for an LP too large to enumerate: a_ub has one row a column.
        for call in lp.call_args_list:
            k = len(call.args[1])
            assert math.comb(k + m, m) > amoo.weighting.CLOSED_FORM_BASES
        tol = 1e-12 * np.abs(D).max()
        optimum = highs_max_min_value(D, w_min)
        assert_on_simplex(res.weights, m, w_min)
        assert res.value == (res.weights @ D).min()
        assert res.gap >= 0.0
        assert res.value - tol <= optimum <= res.value + res.gap + tol
        if res.converged:
            assert res.gap <= 1e-12 * (1.0 + abs(res.value + res.gap))
        assert res.cuts.dtype.kind == "i" and len(res.cuts) >= 1
        assert 0 <= res.cuts.min() and res.cuts.max() < n

    @pytest.mark.parametrize("warm", [[], [3], [-1], [0, 5]])
    def test_bad_warm_columns_rejected(self, warm):
        with pytest.raises(ValueError, match="warm columns"):
            solve_camoo_diagonal(np.ones((2, 3)), warm=warm)

    def test_infeasible_floor(self):
        with pytest.raises(ValueError, match="floor infeasible"):
            solve_camoo_diagonal(np.ones((3, 2)), CamooConfig(w_min=0.5))

    def test_non_finite_diagonals_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_camoo_diagonal([[1.0, np.nan], [1.0, 2.0]])


class TestCamooDiag:
    """Small games on Hessian diagonals: with diagonal Hessians, lambda_min of
    the weighted sum is min_j (w'A)_j, the value of the LP over A's columns."""

    def test_specification_diagonals(self):
        A = np.array([[1.8, 0.2], [0.2, 1.8]])
        res = solve_camoo_diagonal(A)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-12)
        assert bilinear_value_of_w(A, res.weights) == pytest.approx(1.0, abs=1e-12)

    def test_single_row(self):
        w, value, q = max_min_weights(np.array([[1.5, 0.4, 0.2]]))
        np.testing.assert_allclose(w, [1.0])
        np.testing.assert_allclose(q, [0.0, 0.0, 1.0], atol=1e-12)
        assert value == pytest.approx(0.2, abs=1e-12)

    def test_identical_rows_value_unchanged(self):
        A = np.array([[1.0, 0.5], [1.0, 0.5]])
        w = solve_camoo_diagonal(A).weights
        assert bilinear_value_of_w(A, w) == pytest.approx(0.5, abs=1e-12)

    def test_floor_applies(self):
        # The game concentrates on the strong row; the floored solve lifts the
        # weak row to the floor.
        A = np.array([[2.0, 2.0], [0.1, 0.1]])
        np.testing.assert_allclose(max_min_weights(A)[0], [1.0, 0.0], atol=1e-12)
        w = solve_camoo_diagonal(A, CamooConfig(w_min=0.2)).weights
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-12)
        assert bilinear_value_of_w(A, w) == pytest.approx(1.62, abs=1e-9)


# ---------------------------------------------------------------------------
# Polyak-style weights
# ---------------------------------------------------------------------------


def pamoo_phi(w, gaps, gram, tau):
    return float(2.0 * w @ gaps - w @ (gram + tau * np.eye(len(w))) @ w)


def nonnegative_null_gain(B, gaps, slack):
    """max gaps'd over d >= -slack with |B'd| <= slack and sum d = 1, by one
    HiGHS LP, or -inf if no such d.  At slack 0, a positive value is a
    direction along which 2 w'gaps - w'BB'w grows without bound."""
    m, k = B.shape
    res = optimize.linprog(
        -gaps,
        np.vstack([B.T, -B.T]),
        np.full(2 * k, slack),
        np.ones((1, m)),
        [1.0],
        [(-slack, None)] * m,
        method="highs",
    )
    return -res.fun if res.status == 0 else -np.inf


class TestPamoo:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gaps_rejected(self, bad):
        with pytest.raises(ValueError, match="gaps must be finite"):
            pamoo_weights(np.array([1.0, bad]), np.eye(2))

    def test_scalar_polyak_ratio(self):
        w = pamoo_weights(np.array([2.0]), np.array([[4.0]]), PamooConfig(gram_tau=0.0))
        assert w[0] == pytest.approx(0.5, rel=1e-15)

    def test_diagonal_gram(self):
        w = pamoo_weights(
            np.array([1.0, 2.0]), np.diag([2.0, 8.0]), PamooConfig(gram_tau=0.0)
        )
        np.testing.assert_allclose(w, [0.5, 0.25], rtol=1e-15)

    def test_active_floor_matches_enumeration(self):
        gaps = np.array([1.0, 0.0])
        gram = np.array([[1.0, 0.9], [0.9, 1.0]])
        cfg = PamooConfig(gram_tau=0.0, clip_floor=1e-6)
        w = pamoo_weights(gaps, gram, cfg)
        unconstrained = np.linalg.solve(gram, gaps)
        assert unconstrained.min() < 0  # the clip must engage
        best_val, best_w = active_set_quadratic_max(gaps, gram, 0.0, 1e-6)
        assert w[1] == 1e-6
        np.testing.assert_allclose(w, best_w, rtol=1e-14)
        assert pamoo_phi(w, gaps, gram, 0.0) == pytest.approx(best_val, rel=1e-14)

    def test_matches_closed_form_when_feasible(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            B = rng.normal(size=(m, m + 2))
            gram = B @ B.T + 0.5 * np.eye(m)
            gaps = rng.uniform(0.5, 2.0, size=m)
            closed = np.linalg.solve(gram + 1e-4 * np.eye(m), gaps)
            if closed.min() <= 1e-6:
                continue
            w = pamoo_weights(gaps, gram, PamooConfig())
            np.testing.assert_allclose(w, closed, rtol=1e-12)

    def test_projected_gradient_optimality(self):
        rng = np.random.default_rng(36)
        for _ in range(15):
            m = int(rng.integers(1, 5))
            B = rng.normal(size=(m, m + 1))
            gram = B @ B.T + 0.2 * np.eye(m)
            gaps = rng.uniform(-0.5, 2.0, size=m)
            cfg = PamooConfig(gram_tau=1e-4)
            w = pamoo_weights(gaps, gram, cfg)
            grad = 2.0 * (gaps - (gram + 1e-4 * np.eye(m)) @ w)
            active = w == cfg.clip_floor
            projected = np.where(active & (grad <= 0), 0.0, grad)
            assert np.linalg.norm(projected) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 6),
        floor=st.sampled_from([0.0, 1e-6, 0.1]),
        tau=st.sampled_from([0.0, 1e-4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_on_bounded_draws_and_raises_on_unbounded(self, m, floor, tau, seed):
        # Gram matrices of rank below m leave null directions; at tau = 0 the
        # problem is unbounded when the gaps grow along a nonnegative one.
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(m, int(rng.integers(1, m + 3))))
        gaps = rng.uniform(-0.5, 2.0, size=m)
        gram = B @ B.T
        cfg = PamooConfig(clip_floor=floor, gram_tau=tau)
        if tau == 0.0 and nonnegative_null_gain(B, gaps, 0.0) > 1e-3:
            with pytest.raises(NumericError, match="unbounded"):
                pamoo_weights(gaps, gram, cfg)
            return
        # Near such a direction the maximizer is huge: neither case is clear.
        assume(tau > 0.0 or nonnegative_null_gain(B, gaps, 1e-3) < -1e-3)
        w = pamoo_weights(gaps, gram, cfg)
        assert w.dtype == np.float64 and w.shape == (m,) and w.min() >= floor
        r = gaps - (gram + tau * np.eye(m)) @ w
        kkt = np.where(w > floor, np.abs(r), np.maximum(r, 0.0)).max()
        scale = np.abs(gaps).max() + np.abs(gram).max() * w.max()
        assert kkt <= 1e-13 * scale
        # phi's own rounding grows with |Q| |w|^2.
        best_val, _ = active_set_quadratic_max(gaps, gram, tau, floor)
        total = w.sum()
        rounding = 1e-12 * (1.0 + total * (np.abs(gaps).max() + np.abs(gram).max() * total))
        assert pamoo_phi(w, gaps, gram, tau) >= best_val - rounding

    def test_unbounded_inner_problem_raises(self):
        # Along d = (1, 1) the Gram term is flat and 2 w'gaps grows.
        gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(NumericError, match="unbounded"):
            pamoo_weights(np.ones(2), gram, PamooConfig(gram_tau=0.0))

    def test_ill_conditioned_network_gram_matches_scipy(self):
        # The mlp_matching local_curvature iterate at x0 (criterion 9, seed 0):
        # cond(Q) is 1.2e13.  Accepting every floor set whose KKT residual and
        # floor violation are within 1e-9 |Q| |w| takes the unconstrained
        # solution, whose w_2 is about -2.5e3.
        problem = build(
            ProblemSpec(
                kind="mlp_matching", variant="local_curvature", input_dim=20,
                hidden=32, output_dim=7, dataset_size=50, seed=0,
            )
        )
        fvals, J = problem.objectives.evaluate(np.array(problem.x0))[:2]
        gaps, gram = pamoo_context(fvals, J)
        cfg = PamooConfig()
        Q = gram + cfg.gram_tau * np.eye(3)
        assert np.linalg.cond(Q) > 1e12
        assert np.linalg.solve(Q, gaps).min() < -1e3
        w = pamoo_weights(gaps, gram, cfg)
        ref = optimize.minimize(
            lambda v: (v @ Q @ v - 2.0 * v @ gaps, 2.0 * (Q @ v - gaps)),
            np.full(3, 0.01),
            jac=True,
            method="L-BFGS-B",
            bounds=[(cfg.clip_floor, None)] * 3,
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000},
        )
        assert ref.success, ref.message
        np.testing.assert_allclose(w, ref.x, rtol=1e-6)
        assert pamoo_phi(w, gaps, gram, cfg.gram_tau) >= -ref.fun

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_gram_is_a_numeric_failure(self):
        # J J' of finite gradients can overflow.
        J = np.array([[1e200], [2e200]])
        with pytest.raises(NumericError, match="non-finite"):
            pamoo_weights(np.ones(2), J @ J.T)

    def test_more_objectives_than_the_cap_rejected(self):
        m = amoo.weighting.PAMOO_MAX_M + 1
        with pytest.raises(ValueError, match="at most"):
            pamoo_weights(np.ones(m), np.eye(m))

    @pytest.mark.parametrize("field", ["clip_floor", "gram_tau"])
    @pytest.mark.parametrize("value", [-1e-6, float("nan"), float("inf")])
    def test_config_rejects_negative_or_nan(self, field, value):
        with pytest.raises(ValueError, match=field):
            PamooConfig(**{field: value})

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
        gaps, gram = pamoo_context(problem.objectives.values(x), J)
        np.testing.assert_allclose(gram, J @ J.T, atol=1e-14)
        assert gaps.tobytes() == problem.objectives.values(x).tobytes()
        assert np.all(gaps >= 0.0)
        assert np.linalg.eigvalsh(gram)[0] >= -1e-10


def kernel_outcome(gaps, gram, cfg, held=None):
    """``_pamoo_solve``'s weight bytes and held-set index, or its error."""
    try:
        w, index = amoo.weighting._pamoo_solve(gaps, gram, cfg, held)
    except NumericError as exc:
        return "error", str(exc)
    return w.tobytes(), index


def solve_batch_calls(gaps, gram, cfg, held):
    """How often ``_pamoo_solve`` with the hint ``held`` enumerates."""
    with mock.patch.object(
        amoo.weighting, "_solve_batch", wraps=amoo.weighting._solve_batch
    ) as spy:
        kernel_outcome(gaps, gram, cfg, held)
    return spy.call_count


class TestPamooKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 5),
        floor=st.sampled_from([0.0, 1e-6]),
        tau=st.sampled_from([0.0, 1e-4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_hint_gives_the_enumeration_bits(self, m, floor, tau, seed):
        # At tau = 0, B of full row rank keeps Q positive definite.
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(m, m + int(rng.integers(0, 3))))
        gaps = rng.uniform(-0.5, 2.0, size=m)
        gram = B @ B.T
        cfg = PamooConfig(clip_floor=floor, gram_tau=tau)
        cold = kernel_outcome(gaps, gram, cfg)
        assert cold[0] == pamoo_weights(gaps, gram, cfg).tobytes()
        for held in range(2**m):
            assert kernel_outcome(gaps, gram, cfg, held) == cold, held

    def test_the_optimal_hint_solves_one_system(self):
        gaps = np.array([1.0, 0.0])
        gram = np.array([[1.0, 0.9], [0.9, 1.0]])
        cfg = PamooConfig(gram_tau=0.0)
        w, held = amoo.weighting._pamoo_solve(gaps, gram, cfg)
        assert held == 1 and w[1] == cfg.clip_floor  # the second weight held
        assert solve_batch_calls(gaps, gram, cfg, held) == 0

    @pytest.mark.parametrize(
        "gaps, gram, held",
        [
            # The all-free system of a rank-one Gram at tau = 0 is singular.
            (np.array([1.0, 0.5]), np.outer([1.0, 2.0], [1.0, 2.0]), 3),
            # All free puts the second weight below the floor.
            (np.array([1.0, 0.0]), np.array([[1.0, 0.9], [0.9, 1.0]]), 3),
            # All held leaves positive gaps - Qw on the held rows.
            (np.array([1.0, 0.0]), np.array([[1.0, 0.9], [0.9, 1.0]]), 0),
            # Unbounded along (1, 1): the hint falls through, and so the
            # enumeration raises.
            (np.ones(2), np.array([[1.0, -1.0], [-1.0, 1.0]]), 3),
        ],
        ids=["singular", "below-floor", "positive-residual", "unbounded"],
    )
    def test_a_stale_hint_falls_back_to_the_enumeration(self, gaps, gram, held):
        cfg = PamooConfig(gram_tau=0.0)
        assert solve_batch_calls(gaps, gram, cfg, held) == 1
        assert kernel_outcome(gaps, gram, cfg, held) == kernel_outcome(gaps, gram, cfg)

    def test_a_tie_falls_back_to_the_floor(self):
        # The free solution of gaps = Q floor is the floor itself: a tie that
        # the strict test rejects, and the enumeration holds every weight.
        cfg = PamooConfig(gram_tau=0.0, clip_floor=0.5)
        gram = np.array([[2.0, 0.0], [0.0, 4.0]])
        gaps = gram @ np.full(2, 0.5)
        assert solve_batch_calls(gaps, gram, cfg, 3) == 1
        w, held = amoo.weighting._pamoo_solve(gaps, gram, cfg, 3)
        assert held == 0 and w.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "spec",
        [
            ProblemSpec(kind="specification", delta=0.1),
            ProblemSpec(kind="selection", delta=0.1, m=3, n=4),
            ProblemSpec(kind="local_curvature"),
            ProblemSpec(
                kind="misaligned",
                base=ProblemSpec(kind="specification", delta=0.1),
                shifts=((0.0, 0.0), (0.3, -0.2)),
            ),
            *(
                ProblemSpec(
                    kind="mlp_matching", variant=variant, input_dim=20, hidden=32,
                    output_dim=7, dataset_size=50, seed=1,
                )
                for variant in ("selection", "local_curvature")
            ),
        ],
        ids=[
            "specification", "selection", "local_curvature", "misaligned",
            "mlp-selection", "mlp-local_curvature",
        ],
    )
    def test_context_gram_is_exactly_symmetric(self, spec):
        # What lets the driver hand the Gram to the kernel unsymmetrized.
        problem = build(spec)
        rng = np.random.default_rng(3)
        x0 = np.array(problem.x0)
        for scale in (0.0, 0.1, 1.0):
            x = x0 + scale * rng.normal(size=x0.shape)
            gram = pamoo_context(*problem.objectives.evaluate(x)[:2])[1]
            assert np.array_equal(gram, gram.T)

    def test_held_sets_are_read_only(self):
        for array in amoo.weighting._held_sets(3):
            assert not array.flags.writeable


# ---------------------------------------------------------------------------
# The batched square solve behind both exact rules
# ---------------------------------------------------------------------------


def systems_solved_by(solve, *args):
    """The (A, b) batch that ``solve(*args)`` hands to ``_solve_batch``."""
    with mock.patch.object(
        amoo.weighting, "_solve_batch", wraps=amoo.weighting._solve_batch
    ) as spy:
        solve(*args)
    assert spy.call_count == 1
    return spy.call_args.args


class TestSolveBatch:
    def test_bitwise_equal_to_numpy_on_nonsingular_batches(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(40, 4, 4))
        b = rng.normal(size=(40, 4, 1))
        inv, singular = amoo.weighting._solve_batch(
            A, np.broadcast_to(np.eye(4), A.shape)
        )
        assert inv.tobytes() == np.linalg.inv(A).tobytes() and not singular.any()
        x, singular = amoo.weighting._solve_batch(A, b)
        assert x.tobytes() == np.linalg.solve(A, b).tobytes() and not singular.any()

    @pytest.mark.parametrize(
        "solve, args",
        [
            # Tied cuts: every LP basis holding both equal columns of C.
            (max_min_weights, (np.array([[1.0, 1.0, 3.0], [2.0, 2.0, 0.0]]),)),
            # tau = 0 with m > n: PAMOO's systems on the Gram of one gradient
            # column, of powers of 2 so that elimination is exact.
            (
                pamoo_weights,
                (
                    np.array([1.0, 0.5, 0.25]),
                    np.outer([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]),
                    PamooConfig(gram_tau=0.0),
                ),
            ),
        ],
        ids=["tied-cuts", "rank-deficient-gram"],
    )
    def test_mask_marks_exactly_the_zero_pivot_systems(self, solve, args):
        A, b = systems_solved_by(solve, *args)
        x, singular = amoo.weighting._solve_batch(A, b)
        zero_pivot = []
        for Ai, bi, xi in zip(A, b, x):
            try:
                assert np.linalg.solve(Ai, bi).tobytes() == xi.tobytes()
                zero_pivot.append(False)
            except np.linalg.LinAlgError:
                zero_pivot.append(True)
        assert singular.tolist() == zero_pivot
        assert 0 < singular.sum() < len(A)
        assert x[singular].tobytes() == b[singular].tobytes()


def per_call_max_min_vertex(C, w_min):
    """``_max_min_vertex`` as it was before its layout was cached: the rows,
    right-hand side, bases and identity stack built afresh on every call.
    The reference whose bits the cached layout must match."""
    m, n = C.shape
    scale = np.abs(C).max(initial=0.0) or 1.0
    rows = np.zeros((n + m + 1, m + 1))
    rows[:n, :m] = C.T / scale
    rows[:n, m] = -1.0
    rows[n:-1, :m] = np.eye(m)
    rows[-1, :m] = 1.0
    rhs = np.zeros(n + m + 1)
    rhs[n:] = w_min
    rhs[-1] = 1.0
    subsets = list(itertools.combinations(range(n + m), m))[:-1]
    tight = np.array([(*s, n + m) for s in subsets], dtype=np.intp).reshape(-1, m + 1)
    B = rows[tight]
    eye = np.broadcast_to(np.eye(m + 1), B.shape)
    inv, singular = amoo.weighting._solve_batch(B, eye)
    x = (inv @ rhs[tight][:, :, None])[:, :, 0]
    u = -inv[:, m, :m]
    worst = np.minimum((x @ rows[:-1].T - rhs[:-1]).min(axis=1), u.min(axis=1))
    worst[singular | np.isnan(worst)] = -np.inf
    best = int(np.argmax(worst))
    if not worst[best] >= -1e-9:
        return None
    is_cut = tight[best, :m] < n
    y = np.zeros(n)
    y[tight[best, :m][is_cut]] = np.maximum(u[best][is_cut], 0.0)
    return x[best, :m], float(x[best, m] * scale), y / y.sum()


def solution_bytes(found):
    """The bytes of a vertex solution's w, t and y, or None."""
    if found is None:
        return None
    return [np.asarray(v, dtype=np.float64).tobytes() for v in found]


class TestMaxMinLayout:
    @pytest.mark.parametrize("floor", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("draw", ["uniform", "tied columns", "small integers"])
    def test_bitwise_equal_to_per_call_rows(self, draw, floor):
        rng = np.random.default_rng(17)
        singular = 0
        for m, n in itertools.product(range(1, 4), range(1, 5)):
            for _ in range(6):
                if draw == "small integers":
                    C = rng.integers(-2, 4, size=(m, n)).astype(np.float64)
                else:
                    C = rng.uniform(-1.0, 3.0, size=(m, n))
                if draw == "tied columns":
                    C[:, -1] = C[:, 0]
                got = amoo.weighting._max_min_vertex(C, floor / m)
                want = per_call_max_min_vertex(C, floor / m)
                assert solution_bytes(got) == solution_bytes(want), (m, n, C)
                A, _ = systems_solved_by(amoo.weighting._max_min_vertex, C, floor / m)
                singular += bool((np.linalg.slogdet(A)[0] == 0.0).any())
        # Tied columns and small integers take the singular-basis path.
        assert (singular > 0) == (draw != "uniform")

    def test_layout_is_read_only(self):
        for array in amoo.weighting._lp_layout(3, 2):
            assert not array.flags.writeable


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


def solve_exact_without_highs(mats, w_min):
    """A cold exact solve and one warm from its cuts, with ``linprog``
    forbidden: kept to the cuts with a positive multiplier plus the new one,
    every LP at m <= 3 takes ``max_min_weights``' closed form."""
    cfg = CamooConfig(w_min=w_min)
    with mock.patch.object(optimize, "linprog", side_effect=AssertionError("HiGHS")):
        cold = solve_camoo_exact(list(mats), cfg)
        return cold, solve_camoo_exact(list(mats), cfg, warm=cold.cuts)


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
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bilinear_pu(self, m, n, seed):
        A = np.random.default_rng(seed).uniform(0.0, 3.0, size=(m, n))
        sol = solve_bilinear_pu(A)
        assert_on_simplex(sol.w, m)
        assert_on_simplex(sol.q, n)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        clip_floor=st.sampled_from([0.0, 1e-6, 0.1]),
        gram_tau=st.sampled_from([0.0, 1e-4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pamoo_weights(self, m, clip_floor, gram_tau, seed):
        # At least m gradient columns: a Gram of full rank, so bounded.
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(m, m + int(rng.integers(0, 3))))
        gaps = rng.uniform(-0.5, 2.0, size=m)
        cfg = PamooConfig(clip_floor=clip_floor, gram_tau=gram_tau)
        w = pamoo_weights(gaps, B @ B.T, cfg)
        assert w.dtype == np.float64 and w.shape == (m,)
        assert np.isfinite(w).all() and w.min() >= clip_floor
