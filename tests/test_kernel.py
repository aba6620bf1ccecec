"""Kernel evaluations, Gram assembly, and the regularized solve contract."""

import math

import conftest
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

import msip.kernel
from msip._backend import cross_sq_dists, sym_se_matrix
from msip.baselines import SvgdParams, svgd_step
from msip.errors import SingularGramError
from msip.kernel import (
    KernelSpec,
    _factor,
    gram,
    log_omega,
    omega,
    se_kernel,
    solve,
    workspace,
)
from msip.targets import TargetDensity


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
        assert G.shape == (1, 1)
        assert G[0, 0] == 1.0 + 1e-6

    def test_diagonal_exact_and_symmetric(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((30, 4))
        spec = KernelSpec(sigma=0.7, lam=1e-6)
        G = gram(Y, spec)
        assert np.all(np.diag(G) == 1.0 + spec.lam)
        assert np.array_equal(G, G.T)

    def test_is_plain_se_matrix_plus_lambda_diagonal(self):
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((15, 3))
        off = ~np.eye(15, dtype=bool)
        for sigma in (0.3, 1.0, 2.7):
            spec = KernelSpec(sigma=sigma, lam=1e-6)
            G = gram(Y, spec)
            K = sym_se_matrix(Y, sigma**2)
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
                assert G[i, j] == pytest.approx(
                    se_kernel(Y[i], Y[j], spec), rel=1e-13
                )

    def test_permutation_conjugates_gram(self):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((12, 2))
        spec = KernelSpec(sigma=0.6)
        perm = rng.permutation(12)
        G = gram(Y, spec)
        Gp = gram(Y[perm], spec)
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
        b = G @ x0
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
        b = G @ x_true
        x = solve(G, b)
        res = np.linalg.norm(b - G @ x)
        assert res <= 1e-10 * np.linalg.norm(b)

    def test_residual_contract_for_generic_rhs_in_stated_range(self):
        # The stated range: any right-hand side meets the contract while
        # cond(K + lambda I) is below about 3e6. Here cond is about 2e6,
        # within its (M + lambda) / lambda ceiling, and b is a generic
        # draw, as a vector and as one block of columns.
        M, lam = 30, 1e-5
        rng = np.random.default_rng(24)
        G = gram(rng.standard_normal((M, 2)), KernelSpec(sigma=2.0, lam=lam))
        cond = np.linalg.cond(G)
        assert 1.5e6 <= cond <= 3e6
        assert cond <= (M + lam) / lam
        B = rng.standard_normal((M, 50))
        for b in B.T:
            x = solve(G, b)
            assert np.linalg.norm(b - G @ x) <= 1e-10 * np.linalg.norm(b)
        X = solve(G, B)
        for j in range(50):
            res = np.linalg.norm(B[:, j] - G @ X[:, j])
            assert res <= 1e-10 * np.linalg.norm(B[:, j])

    def test_multi_column_right_hand_side(self):
        rng = np.random.default_rng(23)
        Y = rng.standard_normal((15, 2))
        G = gram(Y, KernelSpec(sigma=0.5))
        B = rng.standard_normal((15, 4))
        X = solve(G, B)
        assert X.shape == (15, 4)
        cols = np.column_stack([solve(G, B[:, j]) for j in range(4)])
        np.testing.assert_allclose(X, cols, rtol=0, atol=1e-12)

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

    def test_session_solves_are_residual_checked(self, monkeypatch):
        # The test session runs every solve through the conftest check.
        assert msip.kernel.solve is conftest.checked_solve
        rng = np.random.default_rng(25)
        G = gram(rng.standard_normal((10, 2)), KernelSpec(sigma=1.0))
        b, B = rng.standard_normal(10), rng.standard_normal((10, 2))
        w, Z = msip.kernel.solve(G, b, B)
        monkeypatch.setattr(conftest, "_solve",
                            lambda G, *blocks: (w, Z + 1e-6))
        with pytest.raises(AssertionError, match="residual contract"):
            msip.kernel.solve(G, b, B)
        monkeypatch.setattr(conftest, "_solve", lambda G, b: 2.0 * w)
        with pytest.raises(AssertionError, match="residual contract"):
            msip.kernel.solve(G, b)

    @pytest.mark.parametrize("M", [1, 70])
    def test_workspace_is_written_and_residual_checked(self, M, monkeypatch):
        # gram and solve write into a lent workspace, stale as it may be,
        # with the bits of the calls that allocate; the session check
        # passes factor= on and still checks every block.
        rng = np.random.default_rng(26)
        Y = rng.standard_normal((M, 2))
        spec = KernelSpec(sigma=1.0)
        G_buf, L_buf = workspace(M)
        G_buf.fill(np.nan)
        L_buf.fill(np.nan)
        G = gram(Y, spec, out=G_buf)
        assert G is G_buf and G.tobytes() == gram(Y, spec).tobytes()
        b, B = G @ rng.standard_normal(M), G @ rng.standard_normal((M, 2))
        w, Z = msip.kernel.solve(G, b, B, factor=L_buf)
        w0, Z0 = solve(G, b, B)
        assert w.tobytes() == w0.tobytes() and Z.tobytes() == Z0.tobytes()
        assert np.array_equal(np.tril(L_buf), np.tril(_factor(G)))
        assert np.shares_memory(_factor(G, L_buf), L_buf)
        seen = []

        def wrong(G, *blocks, **kwargs):
            seen.append(kwargs["factor"])
            return w, Z + 1e-6

        monkeypatch.setattr(conftest, "_solve", wrong)
        with pytest.raises(AssertionError, match="residual contract"):
            msip.kernel.solve(G, b, B, factor=L_buf)
        assert len(seen) == 1 and seen[0] is L_buf


# The full-matrix formula the blocked assembly replaced, kept as reference.
def reference_sq_dists(Y):
    sq = np.einsum("ij,ij->i", Y, Y)
    D = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.maximum(D, 0.0, out=D)
    D = np.triu(D, 1)
    D += D.T
    return D


def reference_svgd_step(Y, S, eta, h2):
    K = np.exp(reference_sq_dists(Y) / (-2.0 * h2))
    repulsion = (Y * K.sum(axis=0)[:, None] - K @ Y) / h2
    return Y + (eta / Y.shape[0]) * (K @ S + repulsion)


def assert_same_bits(a, b):
    """Equal bits, except that NaNs need only sit at the same places:
    -D / c and D / -c give NaNs of opposite sign."""
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


GAUSSIAN = {d: TargetDensity(
    dim=d,
    base_log_density=lambda x: -0.5 * np.einsum("ij,ij->i", x, x),
    base_log_density_and_score=lambda x: (
        -0.5 * np.einsum("ij,ij->i", x, x), -x),
) for d in (1, 2, 10)}


class TestBlockedAssembly:
    """The blocked upper-triangle assembly, and the distances of
    cross_sq_dists(Y, Y) with a zeroed diagonal, against the full-matrix
    formula mirrored from its upper triangle: block edges at 64 rows,
    bandwidths whose kernels are all underflow or all near 1, rows that
    are not finite, and Y in C or Fortran order or strided by rows or by
    columns (svgd_step passes Y as it comes; gram makes it C-contiguous)."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=80)
    @given(M=st.sampled_from([1, 2, 63, 64, 65, 129, 400]),
           d=st.sampled_from([1, 2, 10]),
           sigma=st.floats(1e-3, 1e3),
           scale=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2**32 - 1),
           bad=st.sampled_from([None, np.nan, np.inf]),
           layout=st.sampled_from(["c-order", "fortran-order",
                                   "row-strided", "column-strided"]))
    def test_bits_match_full_matrix_formula(self, M, d, sigma, scale, seed,
                                            bad, layout):
        rng = np.random.default_rng(seed)
        Y = scale * rng.standard_normal((M, d))
        if bad is not None:
            Y[rng.integers(M)] = bad
        spec = KernelSpec(sigma=sigma, lam=1e-6)
        with np.errstate(all="ignore"):
            G = np.exp(-reference_sq_dists(Y) / (2.0 * sigma**2))
            np.fill_diagonal(G, 1.0 + spec.lam)
            Y = conftest.layouts(Y)[layout]
            D = reference_sq_dists(Y)
            K = np.exp(-D / (2.0 * sigma**2))
            D_self = cross_sq_dists(Y, Y)
            np.fill_diagonal(D_self, 0.0)
            assert_same_bits(D_self, D)
            assert_same_bits(sym_se_matrix(Y, sigma**2), K)
            assert_same_bits(gram(Y, spec), G)
            median = 1.0 if M < 2 else max(
                float(np.median(D[np.triu_indices(M, 1)]))
                / (2.0 * math.log(M + 1.0)), 1e-12)
            for bandwidth, h2 in ((sigma**2, sigma**2), ("median", median)):
                p = SvgdParams(eta=0.1, bandwidth=bandwidth)
                assert_same_bits(svgd_step(Y, GAUSSIAN[d], p),
                                 reference_svgd_step(Y, -Y, 0.1, h2))


class TestLapackPath:
    @pytest.mark.parametrize("M", [1, 25, 64, 130, 400])
    def test_factor_and_solve_match_scipy_bits(self, M):
        rng = np.random.default_rng(31 + M)
        Y = 3.0 * rng.standard_normal((M, 3))
        G = gram(Y, KernelSpec(sigma=0.6, lam=1e-6))
        c = cho_factor(G, lower=True, check_finite=False)
        assert _factor(G).tobytes(order="A") == c[0].tobytes(order="A")
        for shape in ((M,), (M, 3)):
            B = G @ rng.standard_normal(shape)
            X = cho_solve(c, B, check_finite=False)
            X = X + cho_solve(c, B - G @ X, check_finite=False)
            assert solve(G, B).tobytes() == X.tobytes()

    @pytest.mark.parametrize("M", [1, 25, 130, 400])
    def test_stacked_blocks_match_single_solves_bits(self, M):
        # [v0 | v1] in one dpotrs per pass gives each block the bits of
        # its own solve.
        rng = np.random.default_rng(33 + M)
        Y = 3.0 * rng.standard_normal((M, 3))
        G = gram(Y, KernelSpec(sigma=0.6, lam=1e-6))
        v0 = G @ rng.standard_normal(M)
        v1 = G @ rng.standard_normal((M, 3))
        w, Z = solve(G, v0, v1)
        assert w.shape == (M,) and Z.shape == (M, 3)
        assert w.tobytes() == solve(G, v0).tobytes()
        assert Z.tobytes() == solve(G, v1).tobytes()
        Z2, w2, u = solve(G, v1, v0, v0[:, None])
        assert Z2.tobytes() == Z.tobytes() and w2.tobytes() == w.tobytes()
        assert u.shape == (M, 1)

    def test_singular_gram_names_closest_pair(self):
        rng = np.random.default_rng(32)
        Y = rng.standard_normal((100, 2))
        Y[83] = Y[17]
        G = gram(Y, KernelSpec(sigma=2.0, lam=0.0))
        with pytest.raises(LinAlgError):
            cho_factor(G, lower=True, check_finite=False)
        with pytest.raises(SingularGramError) as info:
            solve(G, np.ones(100))
        assert info.value.index_pair == (17, 83)
        assert "closest particle pair is (17, 83)" in str(info.value)
        assert "diagonal 1)" in str(info.value)
