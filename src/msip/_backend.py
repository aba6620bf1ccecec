"""Hot numerical kernels: distances, SE row sums and the IMQ Stein Gram.

Plain numpy, deterministic run to run. Both symmetric M x M matrices,
the SE matrix (``sym_se_matrix``) and the IMQ Stein Gram
(``imq_stein_gram``), are built by one driver, ``_sym_blocks``: it forms
Y Y' whole (a product of sub-blocks can round an entry differently),
finishes row blocks of 64 on their upper triangle, from the diagonal
on, into distances and then into the matrix's entries with in-place
ufuncs, and copies each block into the columns below it. Each entry goes
through the operations of the whole-matrix formula in the same order,
so it keeps those bits, while only a few M x M arrays are live at a
time. ``imq_stein_gram`` forms the score-difference products
s(y_i).(y_i - y_j) by the same einsum per row block, over a few rows of
differences at a time, never the M x M x d tensor.

The M x M results can be written into lent buffers: ``sym_se_matrix``
into out=, and ``imq_stein_gram`` into work=, the two arrays of a
``kernel.workspace(M)``. The MSIP run owns that workspace and lends it
to the metrics between its steps; without one each call allocates. The
bits are the same either way.

Two properties are weaker than exact arithmetic would give:

- the distances are formed in the expanded form through BLAS, by
  ``cross_sq_dists`` and by the driver, which share the one sequence
  that finishes them (``_sq_dists_from``). Among the rows of one Y they
  are exactly symmetric, but not bitwise permutation-equivariant: BLAS
  may round a pair's inner product differently depending on where the
  pair sits in the matrix. This is why
  ``test_permutation_conjugates_gram`` fails. The driver's distances
  have the bits of cross_sq_dists(Y, Y) with the diagonal set to 0, so
  the SE matrix is bit for bit exp(D / -(2 h2)) on those, with a
  diagonal of exactly 1.
- the SE row sums against a reference sample X of N points drop
  far-apart pairs; they use direct-difference distances. A ``SeTiles``
  sorts and tiles X once, and both sums share it. Each self row-sum is
  within 1e-12 relative of the exact sum. Each cross row-sum
  sum_i w_i k(x_n, y_i) is within (1e-12/N) sum_i |w_i| of it.

The cross sums of M particles take one pass: the near (tile, particle)
pairs come from one np.nonzero, and their kernel rows of 256 values are
computed in chunks of whole tiles, at most max(M, 256) rows each, so
two buffers of max(M, 256) x 256 doubles hold every chunk. A metric row
makes a few dozen numpy calls this way rather than about a dozen per
tile; each tile's sums keep the bits of the tile computed alone.
"""

import bisect
import math

import numpy as np

__all__ = [
    "sym_se_matrix",
    "cross_sq_dists",
    "SeTiles",
    "se_cross_rowsums",
    "se_self_rowsums",
    "imq_stein_gram",
]


# Rows per block of the symmetric M x M matrices.
_BLOCK = 64


def _sq_dists_from(t, P):
    """P = max(t - 2 P, 0) in place: the expanded-form distances from the
    sums t = |a|^2 + |b|^2 and the inner products P = <a, b>."""
    P *= 2.0
    np.subtract(t, P, out=P)
    np.maximum(P, 0.0, out=P)


def _sym_blocks(Y, out, finish):
    """A symmetric M x M matrix built on its upper triangle from Y's distances.

    Y @ Y.T is formed whole, into out when one is lent (a C-order M x M
    array) or a new array: a product of sub-blocks can round an inner
    product differently. Each block of rows [a, b) is turned in place
    into the distances D on its columns [a, M), in the operation order of
    ``cross_sq_dists``, with the diagonal set to 0. finish(D, a, b, t)
    then overwrites D with the matrix entries, where t is a scratch block
    of D's shape, and D is copied transposed into rows [b, M). Y @ Y.T is
    exactly symmetric and |y_i|^2 + |y_j|^2 commutes, so an entry that
    finish computes from symmetric operands gets the bits of its mirror.
    """
    M = Y.shape[0]
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be a C-order M x M array")
    sq = np.einsum("ij,ij->i", Y, Y)
    A = np.matmul(Y, Y.T, out=out)
    diag = A.reshape(-1)[::M + 1]  # a view: A is C-order
    scratch = np.empty((min(_BLOCK, M), M))
    for a in range(0, M, _BLOCK):
        b = min(a + _BLOCK, M)
        D, t = A[a:b, a:], scratch[:b - a, :M - a]
        np.add(sq[a:b, None], sq[None, a:], out=t)
        _sq_dists_from(t, D)
        diag[a:b] = 0.0
        finish(D, a, b, t)
        if b < M:
            A[b:, a:b] = D[:, b - a:].T
    return A


def sym_se_matrix(Y, h2, out=None):
    """exp(D / -(2 h2)) for the distances D = cross_sq_dists(Y, Y).

    h2 > 0 is the squared bandwidth. Exactly symmetric, with a diagonal
    of exactly 1 (exp(-0.0)); built by ``_sym_blocks``, so every entry
    has the bits of the whole-matrix formula. Written into out, a C-order
    M x M array, when one is lent (the Gram buffer of a workspace), and
    allocated otherwise.
    """
    neg_c = -(2.0 * h2)

    def finish(D, a, b, t):
        D /= neg_c
        np.exp(D, out=D)

    return _sym_blocks(Y, out, finish)


def cross_sq_dists(A, B):
    """Squared distances between rows of A (n) and rows of B (m), n x m.

    Expanded form (||a||^2 + ||b||^2) - 2<a,b>, clamped at 0 against
    negative round-off, with two n x m arrays live. cross_sq_dists(Y, Y)
    is exactly symmetric: numpy forms Y @ Y.T with a symmetric rank-k
    update where the layout suits BLAS, and otherwise with its own loop,
    which takes the same products in the same order for (i, j) and
    (j, i). Its diagonal is only near 0.
    It is not permutation-equivariant: BLAS rounds <y_i, y_j> according
    to where the pair sits in Y @ Y.T, so the distances of a permuted Y
    can differ from the permuted distances in the last bit, and so can
    ``kernel.gram``.
    """
    sa = np.einsum("ij,ij->i", A, A)
    sb = np.einsum("ij,ij->i", B, B)
    t = sa[:, None] + sb[None, :]
    P = A @ B.T
    _sq_dists_from(t, P)
    return P


# Cutoff of the SE row sums over N points: the cutoff r puts N kernel
# values at distance r at this total, N exp(-r^2 inv_two_sigma2) = 1e-12.
_SUM_RTOL = 1e-12
# Rows per tile.
_TILE = 256
# Lowest exponent of the cross and self sums. numpy's exp takes about 20
# times longer when its result underflows to 0 and over 100 times longer
# when it is subnormal; exp(-700) ~ 1e-304 is still a normal double.
# Raising smaller exponents to it adds at most 1e-304 |w_i| per term;
# exact zeros come only from skipped tiles.
_LOWEST_EXPONENT = -700.0


class SeTiles:
    """A point set X cut into spatially sorted tiles for the SE row sums.

    The points are sorted by grid cells of side r/4 and cut into tiles of
    256 rows, each with its bounding box. r is the cutoff of both sums,
    with N exp(-r^2 inv_two_sigma2) = 1e-12: a point farther than r from
    another contributes less than 1e-12/N to its sum. Xs holds the sorted
    points one coordinate per row (d x N), and Xt the same coordinates
    as d x n_tiles x 256, the last tile padded with copies of the last
    point, which no sum reads.
    """

    def __init__(self, X, inv_two_sigma2):
        n, d = X.shape
        self.inv_two_sigma2 = inv_two_sigma2
        self.r2 = math.log(n / _SUM_RTOL) / inv_two_sigma2
        cells = np.floor((X - X.min(axis=0)) / (0.25 * math.sqrt(self.r2)))
        self.order = np.lexsort(cells.T[::-1])
        self.starts = np.arange(0, n, _TILE)
        padded = np.empty((d, len(self.starts) * _TILE))
        padded[:, :n] = X[self.order].T
        padded[:, n:] = padded[:, n - 1:n]
        self.Xs = padded[:, :n]
        self.Xt = padded.reshape(d, len(self.starts), _TILE)
        self.lo = np.minimum.reduceat(self.Xs, self.starts, axis=1)
        self.hi = np.maximum.reduceat(self.Xs, self.starts, axis=1)

    def unsort(self, sums):
        """Sums over the sorted rows, back in the input order of X."""
        out = np.empty_like(sums)
        out[self.order] = sums
        return out


def _near_pairs(tiles, Yt):
    """(tile, particle) indices of the pairs whose bounding-box gap is
    within the cutoff r, tile-major with particles ascending. The n_tiles
    x M gap box is freed on return, before the kernel rows are formed."""
    gap = np.maximum(tiles.lo[:, :, None] - Yt[:, None, :],
                     Yt[:, None, :] - tiles.hi[:, :, None])
    np.maximum(gap, 0.0, out=gap)
    # ~(gap2 > r2) keeps NaN particles, so they still poison every sum
    return np.nonzero(~(np.einsum("aij,aij->ij", gap, gap) > tiles.r2))


def se_cross_rowsums(tiles, Y, w):
    """Per-row sums sum_i w_i exp(-||x_n - y_i||^2 inv_two_sigma2).

    x_n runs over the tiled points, in their input order. A (tile,
    particle) pair whose bounding box lies farther than r from the
    particle is skipped, so each sum is within (1e-12/N) sum_i |w_i| of
    the exact one. The kept pairs use direct-difference distances.

    One pass: the kernel rows of all kept pairs, a row of 256 values per
    pair, are computed in chunks of whole tiles of at most max(M, 256)
    rows (``_se_rows``), and each tile's sums are the product of its
    kept weights with its rows, w[keep] @ K, as a tile computed alone.
    """
    n = tiles.Xs.shape[1]
    Yt = np.ascontiguousarray(Y.T)
    tile, particle = _near_pairs(tiles, Yt)
    # the tiles with kept pairs, and where each one's rows start and end
    counts = np.bincount(tile, minlength=len(tiles.starts))
    held = np.flatnonzero(counts).tolist()
    ends = np.cumsum(counts[held]).tolist()
    starts = [0] + ends[:-1]
    cap = max(Y.shape[0], _TILE)
    buf = np.empty((2, min(cap, len(tile)), _TILE))
    sums = np.zeros(n)
    first = 0  # index into held of the chunk's first tile
    while first < len(held):
        r0 = starts[first]
        stop = bisect.bisect_right(ends, r0 + cap, lo=first)
        r1 = ends[stop - 1]
        keep = particle[r0:r1]
        K = _se_rows(Yt[:, keep], tiles.Xt, tile[r0:r1],
                     tiles.inv_two_sigma2, buf)
        wk = w[keep]
        # the last tile reads only its real points, with a row stride of
        # 256, which BLAS sums as it did for the tile alone
        for j in range(first, stop):
            a, b, c = starts[j] - r0, ends[j] - r0, held[j] * _TILE
            sums[c:c + _TILE] = wk[a:b] @ K[a:b, :n - c]
        first = stop
    return tiles.unsort(sums)


def se_self_rowsums(tiles):
    """Row sums of the full SE kernel matrix of the tiled points.

    Each row is within 1e-12 relative of the exact sum. Each unordered
    pair of tiles is visited once, with direct-difference distances
    sum_a (x_ia - x_ja)^2, and adds its kernel block to the rows of both
    tiles. A pair whose bounding boxes lie farther apart than r is
    skipped: the terms a row loses add up to less than 1e-12, and every
    row sum is at least its diagonal term 1. The sums come back in the
    input order.
    """
    Xs, starts, lo, hi = tiles.Xs, tiles.starts, tiles.lo, tiles.hi
    inv = tiles.inv_two_sigma2
    sums = np.zeros(Xs.shape[1])
    buf = np.empty((2, _TILE, _TILE))
    ones = np.ones(_TILE)
    for i, a in enumerate(starts):
        A = Xs[:, a:a + _TILE]
        gap = np.maximum(lo[:, i:] - hi[:, i, None],
                         lo[:, i, None] - hi[:, i:])
        np.maximum(gap, 0.0, out=gap)
        gap2 = np.einsum("ij,ij->j", gap, gap)
        # ~(gap2 > r2) keeps NaN boxes, so a NaN point still poisons its sums
        for j in i + np.flatnonzero(~(gap2 > tiles.r2)):
            b = starts[j]
            K = _se_tile(A, Xs[:, b:b + _TILE], inv, buf)
            sums[a:a + _TILE] += K @ ones[:K.shape[1]]
            if j != i:
                sums[b:b + _TILE] += ones[:K.shape[0]] @ K
    return tiles.unsort(sums)


def _se_tile(A, B, inv_two_sigma2, buf):
    """exp(-inv_two_sigma2 * sum_a (A[a,i] - B[a,j])^2) into a view of buf.

    A and B hold one coordinate per row. The distances are exactly
    symmetric with an exactly zero diagonal, so a tile against itself has
    ones on its diagonal.
    """
    K = buf[0, :A.shape[1], :B.shape[1]]
    t = buf[1, :A.shape[1], :B.shape[1]]
    np.subtract(A[0][:, None], B[0][None, :], out=K)
    np.multiply(K, K, out=K)
    for a in range(1, A.shape[0]):
        np.subtract(A[a][:, None], B[a][None, :], out=t)
        np.multiply(t, t, out=t)
        np.add(K, t, out=K)
    return _se_exp(K, inv_two_sigma2)


def _se_rows(Yk, Xt, tile, inv_two_sigma2, buf):
    """Kernel row k of particle Yk[:, k] against all 256 points of tile
    tile[k] of Xt, into the first rows of buf[0]: the operations of
    ``_se_tile`` on each entry, with the tile's coordinates gathered into
    buf[1] one at a time."""
    K, t = buf[0, :len(tile)], buf[1, :len(tile)]
    np.take(Xt[0], tile, axis=0, out=K, mode="clip")
    np.subtract(Yk[0][:, None], K, out=K)
    np.multiply(K, K, out=K)
    for a in range(1, Yk.shape[0]):
        np.take(Xt[a], tile, axis=0, out=t, mode="clip")
        np.subtract(Yk[a][:, None], t, out=t)
        np.multiply(t, t, out=t)
        np.add(K, t, out=K)
    return _se_exp(K, inv_two_sigma2)


def _se_exp(K, inv_two_sigma2):
    """exp(-inv_two_sigma2 * K) in place, with exponents below
    _LOWEST_EXPONENT raised to it first."""
    np.multiply(K, -inv_two_sigma2, out=K)
    np.maximum(K, _LOWEST_EXPONENT, out=K)
    return np.exp(K, out=K)


# Differences y_i - y_j one einsum of the Stein Gram's score products
# holds at most: 128 KB, a tenth of an M x M array at M = 400. einsum
# buffers about as much again.
_DIFF_ELEMS = 1 << 14


def _score_diffs(S, Yi, Yj, out):
    """out[i, j] = S[i].(Yi[i] - Yj[j]), by the einsum of the whole-matrix
    formula over a few rows of differences at a time. Each entry's
    reduction over the d coordinates is the same whatever rows share
    its call."""
    step = max(1, _DIFF_ELEMS // Yj.size)
    for i in range(0, Yi.shape[0], step):
        np.einsum("ik,ijk->ij", S[i:i + step],
                  Yi[i:i + step, None, :] - Yj[None, :, :],
                  out=out[i:i + step])


def imq_stein_gram(Y, S, c2, ell2, beta, work=None):
    """Stein-kernel Gram for the IMQ base kernel.

    k(x,y) = (c2 + ||x-y||^2 / ell2)^beta, S holds score rows s(y_i);
    k0 = s(x)'s(y) k + s(x)'grad_y k + s(y)'grad_x k + tr(grad_x grad_y k).

    With D the distances and sdiff[i,j] = s(y_i).(y_i - y_j), entry (i, j)
    is ((ss k) + cross) + trace, where ss = S S', u = c2 + D/ell2,
    k = u^beta, ku1 = beta u^(beta-1) and
    cross = (-(2/ell2) ku1) (sdiff + sdiff'),
    trace = ((-4 beta (beta-1)) u^(beta-2) D) / ell2^2 - (2d ku1) / ell2.

    Built on its upper triangle by ``_sym_blocks``, with ss formed whole
    as well. work is a workspace of ``kernel.workspace(M)``, a (C-order,
    Fortran-order) pair of M x M arrays: ss goes into the first, and
    Y Y', which becomes the result, into the transpose of the second,
    which is C-order. Without one, two M x M arrays are allocated. Each
    block [a:b, a:] needs sdiff[a:b, a:] + sdiff[a:, a:b]'; both come from
    the same einsum, over a few rows of differences at a time
    (``_score_diffs``), never the M x M x d tensor, and the diagonal
    block's columns are its own rows. Every operand of the formula is
    symmetric, so the result has the bits of the whole-matrix formula.
    """
    M, d = Y.shape
    if work is None:
        SS, out = np.empty((M, M)), None
    else:
        SS, out = work[0], work[1].T
    np.matmul(S, S.T, out=SS)
    c_trace = -4.0 * beta * (beta - 1.0)
    c_cross = -(2.0 / ell2)

    def finish(D, a, b, u):
        # allocated here, after the driver's Y Y': buffers allocated before
        # it made glibc return memory to the kernel after every call, and
        # the next call fault it in again (about 160 faults at M = 400)
        buf = np.empty((3, b - a, M - a))
        k, ku1 = buf[:2]
        ss = SS[a:b, a:]
        np.divide(D, ell2, out=u)
        np.add(c2, u, out=u)
        np.power(u, beta, out=k)
        np.multiply(ss, k, out=ss)
        np.power(u, beta - 1.0, out=ku1)
        np.multiply(beta, ku1, out=ku1)
        # trace, into u; k is scratch from here on
        np.power(u, beta - 2.0, out=u)
        np.multiply(c_trace, u, out=u)
        np.multiply(u, D, out=u)
        np.divide(u, ell2**2, out=u)
        np.multiply(2.0 * d, ku1, out=k)
        np.divide(k, ell2, out=k)
        np.subtract(u, k, out=u)
        # cross, into ku1: k = sdiff[a:b, a:] + sdiff[a:, a:b]'
        _score_diffs(S[a:b], Y[a:b], Y[a:], k)
        cols = buf[2].reshape(M - a, b - a)
        cols[:b - a] = k[:, :b - a]
        _score_diffs(S[b:], Y[b:], Y[a:b], cols[b - a:])
        np.add(k, cols.T, out=k)
        np.multiply(c_cross, ku1, out=ku1)
        np.multiply(ku1, k, out=ku1)
        np.add(ss, ku1, out=D)
        np.add(D, u, out=D)

    return _sym_blocks(Y, out, finish)
