"""Symmetric eigen-routines against full-decomposition and perturbation oracles."""

import re

import numpy as np
import pytest

from amoo.linalg import (
    check_symmetric,
    eigh,
    hessian_stack,
    min_eigenpair,
    spectral_norm,
    weighted_hessian,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_symmetric(rng, n, scale=1.0):
    B = rng.normal(scale=scale, size=(n, n))
    return 0.5 * (B + B.T)


class TestMinEigenpair:
    def test_diagonal(self):
        lam, v = min_eigenpair(np.diag([2.0, 0.2]))
        assert lam == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_allclose(np.abs(v), [0.0, 1.0], atol=1e-10)

    def test_two_by_two(self):
        # Characteristic polynomial (2-l)^2 - 1 has roots 1 and 3.
        lam, v = min_eigenpair([[2.0, 1.0], [1.0, 2.0]])
        assert lam == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(v), [INV_SQRT2, INV_SQRT2], atol=1e-10)

    def test_identity(self):
        lam, v = min_eigenpair(np.eye(5))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_eigen_equation_postcondition(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            A = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
            lam, v = min_eigenpair(A)
            tol = 1e-10 * (1.0 + np.linalg.norm(A, "fro"))
            assert np.linalg.norm(A @ v - lam * v) <= tol
            for _ in range(20):
                u = rng.normal(size=n)
                u /= np.linalg.norm(u)
                assert lam <= u @ A @ u + 1e-10

    def test_matches_full_decomposition_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            A = random_symmetric(rng, n)
            lam, _ = min_eigenpair(A)
            assert lam == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-8)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            min_eigenpair([[1.0, 2.0], [0.0, 1.0]])

    def test_closed_form_matches_lapack(self):
        # 1x1 and 2x2 edge cases (repeated, zero and tiny off-diagonal
        # entries) against a separate LAPACK call on the same matrix.
        rng = np.random.default_rng(16)
        cases = [random_symmetric(rng, n) for n in (1, 2) for _ in range(100)]
        cases += [
            np.diag([0.7, 0.7]),  # repeated eigenvalue
            np.zeros((2, 2)),
            np.diag([3.0, -1.0]),  # b = 0, a > c
            np.diag([-2.0, 5.0]),  # b = 0, a < c
            np.array([[1.0, 1e-300], [1e-300, 1.0]]),
        ]
        for A in cases:
            lam, v = min_eigenpair(A)
            ref = np.linalg.eigh(A)[0][0]
            norm_a = np.linalg.norm(A, 2)
            assert abs(lam - ref) <= 1e-12 * (1.0 + norm_a)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.norm(A @ v - lam * v) <= 1e-10 * (1.0 + norm_a)


class TestEigh:
    def test_ascending_orthonormal_certified(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            A = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
            evals, V = eigh(A)
            assert np.all(np.diff(evals) >= 0.0)
            np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-12)
            norm_a = np.linalg.norm(A, 2)
            for j in range(n):
                r = A @ V[:, j] - evals[j] * V[:, j]
                assert np.linalg.norm(r) <= 1e-10 * (1.0 + norm_a)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eigh([[1.0, 2.0], [0.0, 1.0]])


class TestWeyl:
    def test_perturbation_bound(self):
        # |lambda_j(A) - lambda_j(A + D)| <= ||D||_2 for every j.
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            A = random_symmetric(rng, n, scale=rng.uniform(0.5, 5.0))
            D = random_symmetric(rng, n, scale=rng.uniform(0.01, 2.0))
            ev_a, _ = eigh(A)
            ev_ad, _ = eigh(A + D)
            assert np.max(np.abs(ev_a - ev_ad)) <= spectral_norm(D) + 1e-10


class TestHessianStack:
    def test_symmetrized_stack(self):
        A = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        stack = hessian_stack([A, np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
        assert stack.shape == (3, 2, 2)
        np.testing.assert_array_equal(stack[0], check_symmetric(A))
        np.testing.assert_array_equal(stack[0], stack[0].T)

    def test_rejects_empty_mismatched_and_nonsymmetric(self):
        with pytest.raises(ValueError, match="at least one"):
            hessian_stack([])
        with pytest.raises(ValueError, match="disagree on size"):
            hessian_stack([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError, match="not symmetric"):
            hessian_stack([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])


class TestWeightedHessian:
    def test_specification_example(self):
        H = weighted_hessian(
            [np.diag([1.8, 0.2]), np.diag([0.2, 1.8])], np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(H, np.eye(2), atol=1e-15)

    def test_one_hot_selects(self):
        rng = np.random.default_rng(13)
        mats = [random_symmetric(rng, 3) for _ in range(3)]
        H = weighted_hessian(mats, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(H, mats[1], atol=1e-15)

    def test_zero_weights(self):
        mats = [np.eye(2), np.diag([3.0, 4.0])]
        H = weighted_hessian(mats, np.array([0.0, 0.0]))
        np.testing.assert_allclose(H, 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_hessian([np.eye(2)], np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            weighted_hessian([np.eye(2), np.eye(3)], np.array([0.5, 0.5]))

    def test_min_eig_concave_in_weights(self):
        rng = np.random.default_rng(14)
        mats = [random_symmetric(rng, 4) for _ in range(3)]
        for _ in range(50):
            w1 = rng.uniform(0, 1, size=3)
            w1 /= w1.sum()
            w2 = rng.uniform(0, 1, size=3)
            w2 /= w2.sum()
            t = rng.uniform()
            lam1, _ = min_eigenpair(weighted_hessian(mats, w1))
            lam2, _ = min_eigenpair(weighted_hessian(mats, w2))
            mix = t * w1 + (1 - t) * w2
            lam_mix, _ = min_eigenpair(weighted_hessian(mats, mix))
            assert lam_mix >= t * lam1 + (1 - t) * lam2 - 1e-9


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_off_diagonal(self):
        # Eigenvalues of the swap matrix are +1 and -1.
        assert spectral_norm([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            A = random_symmetric(rng, int(rng.integers(2, 7)))
            ref = float(np.max(np.abs(np.linalg.eigvalsh(A))))
            assert spectral_norm(A) == pytest.approx(ref, rel=1e-8, abs=1e-12)


class TestCheckSymmetric:
    def test_symmetrizes_tiny_noise(self):
        A = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]])
        S = check_symmetric(A)
        assert np.abs(S - S.T).max() == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            check_symmetric([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        message = f"expected a square matrix, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_symmetric(np.zeros(shape))
