"""The numerical kernels against brute-force references."""

import conftest
import numpy as np
import pytest

import msip._backend
from msip._backend import (
    SeTiles,
    cross_sq_dists,
    imq_stein_gram,
    se_cross_rowsums,
    se_self_rowsums,
)
from msip.kernel import workspace
from msip.targets import make_benchmark, reference_samples


def brute_sq_dists(A, B):
    return np.array([
        [float(np.sum((a - b) ** 2)) for b in B] for a in A
    ])


def expanded_sq_dists(A, B):
    """The expanded-form distances as one expression, with its temporaries."""
    sa = np.einsum("ij,ij->i", A, A)
    sb = np.einsum("ij,ij->i", B, B)
    D = sa[:, None] + sb[None, :] - 2.0 * (A @ B.T)
    np.maximum(D, 0.0, out=D)
    return D


def whole_stein_gram(Y, S, c2, ell2, beta):
    """The IMQ Stein Gram as whole-matrix expressions over the M x M x d
    difference tensor: the reference the row-blocked one keeps the bits of."""
    d = Y.shape[1]
    D = expanded_sq_dists(Y, Y)
    np.fill_diagonal(D, 0.0)
    u = c2 + D / ell2
    k = u**beta
    ku1 = beta * u ** (beta - 1.0)
    diff = Y[:, None, :] - Y[None, :, :]
    ss = S @ S.T
    sdiff = np.einsum("ik,ijk->ij", S, diff)
    cross = -(2.0 / ell2) * ku1 * (sdiff + sdiff.T)
    trace = (
        -4.0 * beta * (beta - 1.0) * u ** (beta - 2.0) * D / ell2**2
        - 2.0 * d * ku1 / ell2
    )
    return ss * k + cross + trace


def per_tile_cross_rowsums(tiles, Y, w):
    """The cross sums one tile at a time, each tile's kept particles
    against its 256 points in one kernel block: the reference whose bits
    the one-pass ``se_cross_rowsums`` keeps."""
    Xs = np.ascontiguousarray(tiles.Xs)
    inv = tiles.inv_two_sigma2
    Yt = np.ascontiguousarray(Y.T)
    gap = np.maximum(tiles.lo[:, :, None] - Yt[:, None, :],
                     Yt[:, None, :] - tiles.hi[:, :, None])
    np.maximum(gap, 0.0, out=gap)
    near = ~(np.einsum("aij,aij->ij", gap, gap) > tiles.r2)
    sums = np.zeros(Xs.shape[1])
    buf = np.empty((2, Y.shape[0], 256))
    for i, a in enumerate(tiles.starts):
        keep = np.flatnonzero(near[i])
        if keep.size:
            A, B = Yt[:, keep], Xs[:, a:a + 256]
            K = buf[0, :A.shape[1], :B.shape[1]]
            t = buf[1, :A.shape[1], :B.shape[1]]
            np.subtract(A[0][:, None], B[0][None, :], out=K)
            np.multiply(K, K, out=K)
            for c in range(1, A.shape[0]):
                np.subtract(A[c][:, None], B[c][None, :], out=t)
                np.multiply(t, t, out=t)
                np.add(K, t, out=K)
            np.multiply(K, -inv, out=K)
            np.maximum(K, -700.0, out=K)
            np.exp(K, out=K)
            sums[a:a + 256] = w[keep] @ K
    return tiles.unsort(sums)


def _layouts():
    """One 20 x 4 sample in four memory layouts. numpy forms Y @ Y.T with
    a symmetric rank-k update for the first three and with its own loop
    for the column-strided one."""
    return conftest.layouts(
        3.0 * np.random.default_rng(162).standard_normal((20, 4)))


class TestNumpyImplementations:
    def test_sym_sq_dists_matches_brute_force(self):
        # The self distances are cross_sq_dists(Y, Y).
        rng = np.random.default_rng(161)
        Y = rng.standard_normal((12, 3))
        D = cross_sq_dists(Y, Y)
        np.testing.assert_allclose(D, brute_sq_dists(Y, Y),
                                   rtol=1e-12, atol=1e-12)

    def test_sym_sq_dists_exactly_symmetric_zero_diag(self):
        # The distances both M x M builders work on: _sym_blocks with a
        # finish that leaves them in place, allocated and in a lent buffer
        # holding stale values. They have the bits of cross_sq_dists(Y, Y)
        # with the diagonal set to 0, over one block, one block plus a
        # row and several blocks.
        rng = np.random.default_rng(162)
        for M in (20, 65, 130):
            Y = rng.standard_normal((M, 4)) * 3.0
            ref = cross_sq_dists(Y, Y)
            np.fill_diagonal(ref, 0.0)
            lent = np.full((M, M), np.nan)
            for out in (None, lent):
                D = msip._backend._sym_blocks(Y, out, lambda *args: None)
                assert np.array_equal(D, D.T)
                assert np.all(np.diag(D) == 0.0)
                assert np.all(D >= 0.0)
                assert D.tobytes() == ref.tobytes()
            assert np.shares_memory(D, lent)
            # the diagonal is written through a flat view, which needs a
            # C-order buffer
            with pytest.raises(ValueError, match="C-order"):
                msip._backend._sym_blocks(Y, np.empty((M, M), order="F"),
                                          lambda *args: None)

    @pytest.mark.parametrize("layout", list(_layouts()))
    def test_cross_sq_dists_self_exactly_symmetric(self, layout):
        Y = _layouts()[layout]
        D = cross_sq_dists(Y, Y)
        assert D.tobytes() == np.ascontiguousarray(D.T).tobytes()
        assert np.all(D >= 0.0)
        np.testing.assert_allclose(D, brute_sq_dists(Y, Y),
                                   rtol=1e-12, atol=1e-12)

    def test_cross_sq_dists_matches_brute_force(self):
        rng = np.random.default_rng(163)
        A = rng.standard_normal((7, 2))
        B = rng.standard_normal((5, 2))
        np.testing.assert_allclose(
            cross_sq_dists(A, B), brute_sq_dists(A, B),
            rtol=1e-12, atol=1e-12,
        )

    def test_se_self_rowsums_single_point_is_one(self):
        assert se_self_rowsums(SeTiles(np.zeros((1, 3)), 0.5))[0] == 1.0

    def test_se_rowsums_match_brute_force(self):
        rng = np.random.default_rng(164)
        X = rng.standard_normal((9, 2))
        Y = rng.standard_normal((6, 2))
        w = rng.uniform(-1.0, 1.0, size=6)
        inv = 1.0 / (2.0 * 0.7**2)
        tiles = SeTiles(X, inv)
        Kc = np.exp(-inv * brute_sq_dists(X, Y))
        np.testing.assert_allclose(
            se_cross_rowsums(tiles, Y, w), Kc @ w, rtol=1e-12, atol=1e-14
        )
        Ks = np.exp(-inv * brute_sq_dists(X, X))
        np.testing.assert_allclose(
            se_self_rowsums(tiles), Ks.sum(axis=1), rtol=1e-12
        )

    def test_se_rowsums_blocked_path(self):
        # Force the row sums past one tile: twelve 256-row tiles, so the
        # cross sums visit many tiles and the self sums off-diagonal tile
        # pairs.
        rng = np.random.default_rng(165)
        X = rng.standard_normal((3000, 2))
        Y = rng.standard_normal((2000, 2))
        w = rng.uniform(0.0, 1.0, size=2000)
        inv = 0.5
        tiles = SeTiles(X, inv)
        cross = se_cross_rowsums(tiles, Y, w)
        self_sums = se_self_rowsums(tiles)
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
        sums = se_self_rowsums(SeTiles(X, inv))
        permuted = se_self_rowsums(SeTiles(X[perm], inv))
        direct = np.array([
            np.exp(-inv * np.sum((x - X) ** 2, axis=1)).sum() for x in X
        ])
        np.testing.assert_allclose(sums, direct, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(permuted, direct[perm], rtol=1e-12,
                                   atol=0.0)

    def test_se_cross_rowsums_skip_far_tiles_within_bound(self, monkeypatch):
        # Funnel reference sample; some particles sit in its bulk, others in
        # the narrow neck or far out to the side, so that whole tiles lie
        # beyond the cutoff r of them. Every row must stay within
        # (1e-12/N) sum |w| of the direct-difference dense sum (plus the
        # rounding of the sums themselves), in the input order of X.
        N = 3000
        X = reference_samples(make_benchmark("funnel", 2), N, [7, 3])
        rng = np.random.default_rng(170)
        Y = np.vstack([
            rng.standard_normal((6, 2)),
            [[-8.0, 0.0], [-7.0, 0.01], [0.0, 40.0], [2.0, -35.0]],
        ])
        w = rng.uniform(-1.0, 1.0, size=Y.shape[0])
        inv = 1.0 / (2.0 * 0.5**2)
        rows = []
        se_rows = msip._backend._se_rows

        def counted(Yk, Xt, tile, *args):
            rows.append(len(tile))
            return se_rows(Yk, Xt, tile, *args)

        monkeypatch.setattr(msip._backend, "_se_rows", counted)
        tiles = SeTiles(X, inv)
        sums = se_cross_rowsums(tiles, Y, w)
        assert 0 < sum(rows) < len(tiles.starts) * Y.shape[0]
        K = np.exp(-inv * np.sum((X[:, None, :] - Y[None, :, :]) ** 2,
                                 axis=2))
        direct = K @ w
        bound = 1e-12 / N * np.abs(w).sum()
        rounding = 1e-14 * (K @ np.abs(w))
        assert np.all(np.abs(sums - direct) <= bound + rounding)
        perm = rng.permutation(N)
        permuted = se_cross_rowsums(SeTiles(X[perm], inv), Y, w)
        assert np.all(np.abs(permuted - direct[perm])
                      <= bound + rounding[perm])

    def test_se_cross_rowsums_nan_and_far_particles(self):
        X = reference_samples(make_benchmark("funnel", 2), 2000, [7, 3])
        tiles = SeTiles(X, 2.0)
        Y = np.array([[0.0, 0.0], [1.0, -0.5], [0.5, 0.2]])
        w = np.array([0.5, 0.3, 0.2])
        # A NaN particle poisons every row, as a dense sum does.
        Y_nan = Y.copy()
        Y_nan[1, 0] = np.nan
        assert np.all(np.isnan(se_cross_rowsums(tiles, Y_nan, w)))
        # Particles beyond r of every tile contribute exact zeros.
        far = X.max(axis=0) + 2.0 * np.sqrt(tiles.r2)
        assert np.all(se_cross_rowsums(tiles, Y + far, w) == 0.0)
        with_far = se_cross_rowsums(tiles, np.vstack([Y, far]),
                                    np.append(w, 0.7))
        assert np.array_equal(with_far, se_cross_rowsums(tiles, Y, w))

    @pytest.mark.parametrize("N", [1, 255, 257, 10_000])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("M", [1, 25, 64, 65, 400])
    def test_se_cross_rowsums_match_per_tile_bits(self, M, d, N):
        # One tile, one short of a tile, one past it, 40 tiles; at
        # sigma = 0.5 some pairs are cut, at sigma = 4 every pair is kept.
        rng = np.random.default_rng(1000 * M + 10 * d + N % 7)
        X = 3.0 * rng.standard_normal((N, d))
        Y = 4.0 * rng.standard_normal((M, d))
        w = rng.uniform(-1.0, 1.0, size=M)
        for sigma in (0.5, 4.0):
            tiles = SeTiles(X, 1.0 / (2.0 * sigma**2))
            assert (se_cross_rowsums(tiles, Y, w).tobytes()
                    == per_tile_cross_rowsums(tiles, Y, w).tobytes())

    @pytest.mark.parametrize("M,chunks", [(64, 10), (256, 40), (400, 40)])
    def test_se_cross_rowsums_chunks_of_whole_tiles(self, monkeypatch, M,
                                                    chunks):
        # Every pair kept: 40 tiles of M rows each go in chunks of whole
        # tiles of at most max(M, 256) rows, with the per-tile bits.
        rng = np.random.default_rng(173)
        X = rng.standard_normal((10_000, 2))
        Y = rng.standard_normal((M, 2))
        w = rng.uniform(-1.0, 1.0, size=M)
        tiles = SeTiles(X, 1.0 / (2.0 * 10.0**2))
        rows = []
        se_rows = msip._backend._se_rows

        def counted(Yk, Xt, tile, *args):
            rows.append(len(tile))
            return se_rows(Yk, Xt, tile, *args)

        monkeypatch.setattr(msip._backend, "_se_rows", counted)
        sums = se_cross_rowsums(tiles, Y, w)
        assert len(rows) == chunks
        assert sum(rows) == 40 * M
        assert all(r % M == 0 and r <= max(M, 256) for r in rows)
        assert sums.tobytes() == per_tile_cross_rowsums(tiles, Y, w).tobytes()

    def test_se_cross_rowsums_no_near_pair_and_nan_particle(self):
        rng = np.random.default_rng(174)
        X = rng.standard_normal((1000, 2))
        tiles = SeTiles(X, 2.0)
        far = rng.standard_normal((5, 2)) + 100.0
        w = rng.uniform(-1.0, 1.0, size=5)
        sums = se_cross_rowsums(tiles, far, w)
        assert sums.tobytes() == np.zeros(1000).tobytes()
        assert sums.tobytes() == per_tile_cross_rowsums(tiles, far, w).tobytes()
        # a NaN particle is near every tile, so every sum is NaN, as it is
        # one tile at a time, even with the other particles far away
        for Y in (far, rng.standard_normal((5, 2))):
            Y = Y.copy()
            Y[2, 1] = np.nan
            sums = se_cross_rowsums(tiles, Y, w)
            assert np.all(np.isnan(sums))
            assert sums.tobytes() == per_tile_cross_rowsums(tiles, Y,
                                                            w).tobytes()

    @pytest.mark.parametrize("M", [25, 400])
    def test_se_cross_rowsums_peak(self, M):
        # Two chunk buffers of max(M, 256) x 256 doubles, plus what grows
        # with N: the sums, the pair indices and the gap box, which scale
        # with n_tiles * M <= 1.6 N at M = 400. Every pair is kept.
        N = 10_000
        rng = np.random.default_rng(175)
        tiles = SeTiles(rng.standard_normal((N, 2)), 1.0 / (2.0 * 10.0**2))
        Y = rng.standard_normal((M, 2))
        w = rng.uniform(-1.0, 1.0, size=M)
        bound = (2 * max(M, 256) * 256 + 8 * N) * 8
        assert conftest.traced_peak(se_cross_rowsums, tiles, Y, w) <= bound

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
        # Exactly symmetric over the M x d grid of the bit test below.
        rng = np.random.default_rng(167)
        for M in (1, 2, 63, 64, 65, 130, 400):
            for d in (1, 2, 3, 10):
                Y = rng.standard_normal((M, d))
                S = rng.standard_normal((M, d))
                K0 = imq_stein_gram(Y, S, 1.0, 0.5, -0.5)
                assert np.array_equal(K0, K0.T)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("M", [1, 2, 63, 64, 65, 130, 400])
    def test_imq_stein_gram_matches_whole_matrix_bits(self, M, d, order):
        # Row blocks of 64: one partial block, one full, one full plus one
        # row, several; Y in C and Fortran order.
        rng = np.random.default_rng(1000 * M + d)
        Y = np.asarray(2.0 * rng.standard_normal((M, d)), order=order)
        S = rng.standard_normal((M, d))
        # the same bits in a lent workspace, stale from an earlier use
        work = workspace(M)
        work[0].fill(np.nan)
        work[1].fill(np.nan)
        for c2, ell2, beta in ((1.0, 0.5, -0.5), (0.7, 3.1, -1.5)):
            ref = whole_stein_gram(Y, S, c2, ell2, beta).tobytes()
            K0 = imq_stein_gram(Y, S, c2, ell2, beta)
            assert K0.shape == (M, M)
            assert K0.tobytes() == ref
            K0 = imq_stein_gram(Y, S, c2, ell2, beta, work)
            assert np.shares_memory(K0, work[1])
            assert K0.tobytes() == ref

    @pytest.mark.parametrize("layout", list(_layouts()))
    def test_cross_sq_dists_matches_expanded_expression_bits(self, layout):
        Y = _layouts()[layout]
        X = np.random.default_rng(171).standard_normal((7, 4))
        for A, B in ((Y, Y), (Y, X), (X, Y)):
            assert (cross_sq_dists(A, B).tobytes()
                    == expanded_sq_dists(A, B).tobytes())

    def test_traced_peaks_at_m400_d10(self):
        # The whole-matrix Stein Gram peaks at 19 M x M arrays here; the
        # row-blocked one holds S S', the result, four row blocks and a
        # few rows of differences: in a lent workspace, only the rest.
        M, d = 400, 10
        rng = np.random.default_rng(172)
        Y = rng.standard_normal((M, d))
        S = rng.standard_normal((M, d))
        mm = M * M * 8
        peak = conftest.traced_peak
        assert peak(imq_stein_gram, Y, S, 1.0, 0.5, -0.5) <= 3 * mm
        work = workspace(M)
        assert peak(imq_stein_gram, Y, S, 1.0, 0.5, -0.5, work) <= 1 * mm
        assert peak(cross_sq_dists, Y, Y) <= 2.5 * mm
