"""Kernel evaluations, Gram assembly, and the regularized solve contract."""

import math

import numpy as np
import pytest

from msip.errors import SingularGramError
from msip.kernel import (
    GramMatrix,
    KernelSpec,
    gram,
    log_omega,
    omega,
    se_kernel,
    se_matrix,
    solve,
)


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec(sigma=0.5)
        assert spec.sigma == 0.5
        assert spec.lam == 1e-6

    @pytest.mark.parametrize("sigma", [0.0, -1.0, -1e-300])
    def test_rejects_nonpositive_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec(sigma=sigma)

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError, match="lam"):
            KernelSpec(sigma=1.0, lam=-1e-12)

    def test_zero_lam_allowed(self):
        assert KernelSpec(sigma=1.0, lam=0.0).lam == 0.0

    def test_frozen(self):
        spec = KernelSpec(sigma=1.0)
        with pytest.raises(AttributeError):
            spec.sigma = 2.0


class TestOmega:
    def test_matches_closed_form(self):
        for sigma, d in [(1.0, 1), (0.5, 3), (2.0, 10)]:
            expected = (math.sqrt(2.0 * math.pi) * sigma) ** d
            assert omega(sigma, d) == pytest.approx(expected, rel=1e-14)
            assert log_omega(sigma, d) == pytest.approx(
                math.log(expected), rel=1e-14
            )

    def test_d_zero_is_one(self):
        assert omega(1.7, 0) == 1.0
        assert log_omega(1.7, 0) == 0.0

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            omega(1e300, 10)
        with pytest.raises(ValueError, match="overflow"):
            log_omega(10.0, 10**6)


class TestSeKernel:
    def test_value_at_zero_distance_is_exactly_one(self):
        spec = KernelSpec(sigma=0.3)
        x = np.array([1.25, -2.5, 3.75])
        assert se_kernel(x, x.copy(), spec) == 1.0

    def test_unit_distance_in_sigma_sqrt_two_units(self):
        # d = 1, x = 0, y = sigma * sqrt(2): exponent is exactly -1.
        for sigma in (0.5, 1.0, 3.0):
            spec = KernelSpec(sigma=sigma)
            val = se_kernel(np.array([0.0]),
                            np.array([sigma * math.sqrt(2.0)]), spec)
            assert val == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        spec = KernelSpec(sigma=0.8)
        for _ in range(20):
            x, y = rng.standard_normal((2, 4))
            assert se_kernel(x, y, spec) == se_kernel(y, x, spec)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        spec = KernelSpec(sigma=1.2)
        for _ in range(50):
            x, y = rng.standard_normal((2, 3)) * 5.0
            val = se_kernel(x, y, spec)
            assert 0.0 < val <= 1.0

    def test_dimension_mismatch_rejected(self):
        spec = KernelSpec(sigma=1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            se_kernel(np.zeros(2), np.zeros(3), spec)


class TestGram:
    def test_single_particle(self):
        G = gram(np.zeros((1, 3)), KernelSpec(sigma=1.0, lam=1e-6))
        assert G.entries.shape == (1, 1)
        assert G.entries[0, 0] == 1.0 + 1e-6
        assert G.lambda_applied == 1e-6

    def test_diagonal_exact_and_symmetric(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((30, 4))
        spec = KernelSpec(sigma=0.7, lam=1e-6)
        G = gram(Y, spec)
        assert np.all(np.diag(G.entries) == 1.0 + spec.lam)
        assert np.array_equal(G.entries, G.entries.T)

    def test_is_plain_se_matrix_plus_lambda_diagonal(self):
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((15, 3))
        off = ~np.eye(15, dtype=bool)
        for sigma in (0.3, 1.0, 2.7):
            spec = KernelSpec(sigma=sigma, lam=1e-6)
            G = gram(Y, spec).entries
            K = se_matrix(Y, sigma)
            assert np.array_equal(G[off], K[off])
            assert np.all(np.diag(K) == 1.0)
            assert np.all(np.diag(G) == 1.0 + spec.lam)

    def test_offdiagonal_matches_pointwise_kernel(self):
        rng = np.random.default_rng(12)
        Y = rng.standard_normal((8, 3)) * 2.0
        spec = KernelSpec(sigma=0.9, lam=1e-6)
        G = gram(Y, spec)
        for i in range(8):
            for j in range(i + 1, 8):
                assert G.entries[i, j] == pytest.approx(
                    se_kernel(Y[i], Y[j], spec), rel=1e-13
                )

    def test_permutation_conjugates_gram(self):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((12, 2))
        spec = KernelSpec(sigma=0.6)
        perm = rng.permutation(12)
        G = gram(Y, spec).entries
        Gp = gram(Y[perm], spec).entries
        assert np.array_equal(Gp, G[np.ix_(perm, perm)])

    def test_rejects_bad_shapes(self):
        spec = KernelSpec(sigma=1.0)
        with pytest.raises(ValueError, match="M x d"):
            gram(np.zeros((0, 2)), spec)
        with pytest.raises(ValueError, match="M x d"):
            gram(np.zeros(5), spec)


class TestSolve:
    def test_recovers_known_solution(self):
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((25, 3))
        G = gram(Y, KernelSpec(sigma=0.8, lam=1e-6))
        x0 = rng.standard_normal(25)
        b = G.entries @ x0
        x = solve(G, b)
        assert np.linalg.norm(x - x0) <= 1e-10 * np.linalg.norm(x0)

    def test_residual_contract_near_condition_limit(self):
        # Tight cluster: condition number approaches 1/lambda. The
        # right-hand side is built from a moderate solution; a random b
        # would force ||x|| ~ ||b||/lambda, where the attainable residual
        # is floored at eps * ||K|| * ||x||, above the 1e-10 contract.
        rng = np.random.default_rng(22)
        Y = 1e-3 * rng.standard_normal((40, 2))
        G = gram(Y, KernelSpec(sigma=1.0, lam=1e-6))
        x_true = rng.standard_normal(40)
        b = G.entries @ x_true
        x = solve(G, b)
        res = np.linalg.norm(b - G.entries @ x)
        assert res <= 1e-10 * np.linalg.norm(b)

    def test_multi_column_right_hand_side(self):
        rng = np.random.default_rng(23)
        Y = rng.standard_normal((15, 2))
        G = gram(Y, KernelSpec(sigma=0.5))
        B = rng.standard_normal((15, 4))
        X = solve(G, B)
        assert X.shape == (15, 4)
        cols = np.column_stack([solve(G, B[:, j]) for j in range(4)])
        np.testing.assert_allclose(X, cols, rtol=0, atol=1e-12)

    def test_factor_cached_across_solves(self):
        rng = np.random.default_rng(24)
        Y = rng.standard_normal((10, 2))
        G = gram(Y, KernelSpec(sigma=1.0))
        solve(G, rng.standard_normal(10))
        first = G._chol
        assert first is not None
        solve(G, rng.standard_normal(10))
        assert G._chol is first

    def test_duplicate_particles_without_lambda_raise(self):
        Y = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        G = gram(Y, KernelSpec(sigma=1.0, lam=0.0))
        with pytest.raises(SingularGramError) as info:
            solve(G, np.ones(3))
        assert info.value.index_pair == (0, 2)
        assert "closest particle pair" in str(info.value)

    def test_duplicate_particles_with_lambda_solve_fine(self):
        Y = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        G = gram(Y, KernelSpec(sigma=1.0, lam=1e-6))
        x = solve(G, np.ones(3))
        assert np.all(np.isfinite(x))

    def test_identity_limit(self):
        # Far-apart particles: K ~ I, so solve(b) ~ b / (1 + lambda).
        Y = np.arange(5, dtype=float)[:, None] * 1e3
        G = gram(Y, KernelSpec(sigma=1.0, lam=0.5))
        b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(solve(G, b), b / 1.5, rtol=1e-12)

    def test_gram_matrix_dataclass_shape(self):
        G = GramMatrix(entries=np.eye(3), lambda_applied=0.0)
        assert G.shape == (3, 3)
