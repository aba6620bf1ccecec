"""The numerical kernels against brute-force references."""

import numpy as np
import pytest

from msip._backend import (
    cross_sq_dists,
    imq_stein_gram,
    se_cross_rowsums,
    se_self_rowsums,
    sym_sq_dists,
)
from msip.targets import make_benchmark, reference_samples


def brute_sq_dists(A, B):
    return np.array([
        [float(np.sum((a - b) ** 2)) for b in B] for a in A
    ])


class TestNumpyImplementations:
    def test_sym_sq_dists_matches_brute_force(self):
        rng = np.random.default_rng(161)
        Y = rng.standard_normal((12, 3))
        D = sym_sq_dists(Y)
        np.testing.assert_allclose(D, brute_sq_dists(Y, Y),
                                   rtol=1e-12, atol=1e-12)

    def test_sym_sq_dists_exactly_symmetric_zero_diag(self):
        rng = np.random.default_rng(162)
        Y = rng.standard_normal((20, 4)) * 3.0
        D = sym_sq_dists(Y)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert np.all(D >= 0.0)

    def test_cross_sq_dists_matches_brute_force(self):
        rng = np.random.default_rng(163)
        A = rng.standard_normal((7, 2))
        B = rng.standard_normal((5, 2))
        np.testing.assert_allclose(
            cross_sq_dists(A, B), brute_sq_dists(A, B),
            rtol=1e-12, atol=1e-12,
        )

    def test_se_self_rowsums_single_point_is_one(self):
        assert se_self_rowsums(np.zeros((1, 3)), 0.5)[0] == 1.0

    def test_se_rowsums_match_brute_force(self):
        rng = np.random.default_rng(164)
        X = rng.standard_normal((9, 2))
        Y = rng.standard_normal((6, 2))
        w = rng.uniform(-1.0, 1.0, size=6)
        inv = 1.0 / (2.0 * 0.7**2)
        Kc = np.exp(-inv * brute_sq_dists(X, Y))
        np.testing.assert_allclose(
            se_cross_rowsums(X, Y, w, inv), Kc @ w, rtol=1e-12, atol=1e-14
        )
        Ks = np.exp(-inv * brute_sq_dists(X, X))
        np.testing.assert_allclose(
            se_self_rowsums(X, inv), Ks.sum(axis=1), rtol=1e-12
        )

    def test_se_rowsums_blocked_path(self):
        # Force the row sums past one block: two chunks of the cross sums,
        # and twelve 256-row tiles (so off-diagonal tile pairs) of the
        # self sums.
        rng = np.random.default_rng(165)
        X = rng.standard_normal((3000, 2))
        Y = rng.standard_normal((2000, 2))
        w = rng.uniform(0.0, 1.0, size=2000)
        inv = 0.5
        cross = se_cross_rowsums(X, Y, w, inv)
        self_sums = se_self_rowsums(X, inv)
        expected_first = np.exp(-inv * np.sum((X[0] - Y) ** 2, axis=1)) @ w
        assert cross[0] == pytest.approx(expected_first, rel=1e-12)
        assert self_sums.shape == (3000,)
        assert np.all(self_sums >= 1.0)

    def test_se_self_rowsums_truncation_bound_and_order(self):
        # At sigma = 0.5 the cutoff skips 31 of the 210 tile pairs here.
        # Every row must stay within the stated 1e-12 of the direct sum, and
        # the sums must come back in input order: the bootstrap in
        # SampleMmd.with_se pairs them row by row with the cross sums.
        X = reference_samples(make_benchmark("gmm", 2, seed=0), 5000, [0, 1])
        inv = 1.0 / (2.0 * 0.5**2)
        perm = np.random.default_rng(169).permutation(5000)
        sums = se_self_rowsums(X, inv)
        permuted = se_self_rowsums(X[perm], inv)
        direct = np.array([
            np.exp(-inv * np.sum((x - X) ** 2, axis=1)).sum() for x in X
        ])
        np.testing.assert_allclose(sums, direct, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(permuted, direct[perm], rtol=1e-12,
                                   atol=0.0)

    def test_imq_stein_diagonal_closed_form(self):
        # k0(y, y) = |s(y)|^2 - 2 d beta / ell2, positive for beta < 0.
        rng = np.random.default_rng(166)
        Y = rng.standard_normal((5, 3))
        S = rng.standard_normal((5, 3))
        c2, ell2, beta = 1.0, 0.25, -0.5
        K0 = imq_stein_gram(Y, S, c2, ell2, beta)
        expected = np.einsum("ij,ij->i", S, S) - 2.0 * 3 * beta / ell2
        np.testing.assert_allclose(np.diag(K0), expected, rtol=1e-12)
        assert np.all(np.diag(K0) > 0.0)

    def test_imq_stein_gram_symmetric(self):
        rng = np.random.default_rng(167)
        Y = rng.standard_normal((8, 2))
        S = rng.standard_normal((8, 2))
        K0 = imq_stein_gram(Y, S, 1.0, 0.5, -0.5)
        np.testing.assert_allclose(K0, K0.T, rtol=0, atol=1e-12)
