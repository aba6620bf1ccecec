"""Hot numerical kernels: distances, SE row sums and the IMQ Stein Gram.

Plain numpy, deterministic run to run. The M x M matrices are finished
in row blocks of 64 with in-place ufuncs, from the distances and inner
products formed whole (a product of sub-blocks can round an entry
differently). Each entry goes through the operations of the
whole-matrix formula in the same order, so it keeps those bits, while
only a few M x M arrays are live at a time. ``imq_stein_gram`` forms
the score-difference products s(y_i).(y_i - y_j) by the same einsum
per row block, over a 64 x M x d difference block, never the
M x M x d tensor.

Two properties are weaker than exact arithmetic would give:

- the distance matrices are formed in the expanded form through BLAS
  by ``cross_sq_dists``, the one squared-distance routine. Among the
  rows of one Y they are exactly symmetric, but not bitwise
  permutation-equivariant: BLAS may round a pair's inner product
  differently depending on where the pair sits in the matrix. This is
  why ``test_permutation_conjugates_gram`` fails.
  The symmetric SE matrix is computed on the upper triangle only, in
  row blocks of 64, and mirrored block by block. Each entry goes
  through the same operations in the same order as exp(D / neg_c) on
  D = cross_sq_dists(Y, Y), so the result is bit for bit the same, with
  a diagonal of exactly 1.
- the SE row sums against a reference sample X of N points drop
  far-apart pairs; they use direct-difference distances. A ``SeTiles``
  sorts and tiles X once, and both sums share it. Each self row-sum is
  within 1e-12 relative of the exact sum. Each cross row-sum
  sum_i w_i k(x_n, y_i) is within (1e-12/N) sum_i |w_i| of it.
"""

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


# Rows per block of the symmetric SE matrix and of the IMQ Stein Gram.
_BLOCK = 64


def sym_se_matrix(Y, neg_c):
    """exp(D / neg_c) for the distances D = cross_sq_dists(Y, Y), neg_c < 0.

    Exactly symmetric, with a diagonal of exactly 1. Y @ Y.T is formed
    whole: a product of sub-blocks can round an inner product differently.
    Each block of rows [a, b) is computed in place on its columns [a, M),
    in the operation order of ``cross_sq_dists``, then copied transposed
    into rows [b, M) and, within its diagonal block, into the lower
    triangle.
    """
    M = Y.shape[0]
    sq = np.einsum("ij,ij->i", Y, Y)
    K = Y @ Y.T
    buf = np.empty((min(_BLOCK, M), M))
    below = np.tri(min(_BLOCK, M), k=-1, dtype=bool)
    for a in range(0, M, _BLOCK):
        b = min(a + _BLOCK, M)
        S = K[a:b, a:]
        t = np.add(sq[a:b, None], sq[None, a:], out=buf[:b - a, :M - a])
        S *= 2.0
        np.subtract(t, S, out=S)
        np.maximum(S, 0.0, out=S)
        S /= neg_c
        np.exp(S, out=S)
        K[b:, a:b] = S[:, b - a:].T
        square, lower = S[:, :b - a], below[:b - a, :b - a]
        square[lower] = square.T[lower]
    np.fill_diagonal(K, 1.0)
    return K


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
    D = sa[:, None] + sb[None, :]
    P = A @ B.T
    P *= 2.0
    np.subtract(D, P, out=D)
    np.maximum(D, 0.0, out=D)
    return D


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
    another contributes less than 1e-12/N to its sum.
    """

    def __init__(self, X, inv_two_sigma2):
        n = X.shape[0]
        self.inv_two_sigma2 = inv_two_sigma2
        self.r2 = math.log(n / _SUM_RTOL) / inv_two_sigma2
        cells = np.floor((X - X.min(axis=0)) / (0.25 * math.sqrt(self.r2)))
        self.order = np.lexsort(cells.T[::-1])
        self.Xs = np.ascontiguousarray(X[self.order].T)  # d x n, sorted
        self.starts = np.arange(0, n, _TILE)
        self.lo = np.minimum.reduceat(self.Xs, self.starts, axis=1)
        self.hi = np.maximum.reduceat(self.Xs, self.starts, axis=1)

    def unsort(self, sums):
        """Sums over the sorted rows, back in the input order of X."""
        out = np.empty_like(sums)
        out[self.order] = sums
        return out


def se_cross_rowsums(tiles, Y, w):
    """Per-row sums sum_i w_i exp(-||x_n - y_i||^2 inv_two_sigma2).

    x_n runs over the tiled points, in their input order. A (tile,
    particle) pair whose bounding box lies farther than r from the
    particle is skipped, so each sum is within (1e-12/N) sum_i |w_i| of
    the exact one. The kept pairs use direct-difference distances.
    """
    Xs, inv = tiles.Xs, tiles.inv_two_sigma2
    Yt = np.ascontiguousarray(Y.T)
    gap = np.maximum(tiles.lo[:, :, None] - Yt[:, None, :],
                     Yt[:, None, :] - tiles.hi[:, :, None])
    np.maximum(gap, 0.0, out=gap)
    # ~(gap2 > r2) keeps NaN particles, so they still poison every sum
    near = ~(np.einsum("aij,aij->ij", gap, gap) > tiles.r2)
    sums = np.zeros(Xs.shape[1])
    buf = np.empty((2, Y.shape[0], _TILE))
    for i, a in enumerate(tiles.starts):
        keep = np.flatnonzero(near[i])
        if keep.size:
            K = _se_tile(Yt[:, keep], Xs[:, a:a + _TILE], inv, buf)
            sums[a:a + _TILE] = w[keep] @ K
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
    ones on its diagonal. Exponents below _LOWEST_EXPONENT are raised to
    it first.
    """
    K = buf[0, :A.shape[1], :B.shape[1]]
    t = buf[1, :A.shape[1], :B.shape[1]]
    np.subtract(A[0][:, None], B[0][None, :], out=K)
    np.multiply(K, K, out=K)
    for a in range(1, A.shape[0]):
        np.subtract(A[a][:, None], B[a][None, :], out=t)
        np.multiply(t, t, out=t)
        np.add(K, t, out=K)
    np.multiply(K, -inv_two_sigma2, out=K)
    np.maximum(K, _LOWEST_EXPONENT, out=K)
    return np.exp(K, out=K)


def imq_stein_gram(Y, S, c2, ell2, beta):
    """Stein-kernel Gram for the IMQ base kernel.

    k(x,y) = (c2 + ||x-y||^2 / ell2)^beta, S holds score rows s(y_i);
    k0 = s(x)'s(y) k + s(x)'grad_y k + s(y)'grad_x k + tr(grad_x grad_y k).

    With D the distances and sdiff[i,j] = s(y_i).(y_i - y_j), entry (i, j)
    is ((ss k) + cross) + trace, where ss = S S', u = c2 + D/ell2,
    k = u^beta, ku1 = beta u^(beta-1) and
    cross = (-(2/ell2) ku1) (sdiff + sdiff'),
    trace = ((-4 beta (beta-1)) u^(beta-2) D) / ell2^2 - (2d ku1) / ell2.
    D = cross_sq_dists(Y, Y), its diagonal set to 0, and ss are formed
    whole, since products of sub-blocks can round differently. sdiff is
    formed in row blocks of 64 by the same einsum, over an (n, M, d)
    difference block: each entry's reduction over the d coordinates is
    unchanged. The rest is computed per row block in three reused n x M
    buffers with in-place ufuncs, each entry seeing the operands of the
    formula above in its order, and summed into the rows of ss. So the
    result has the bits of the whole-matrix formula, and holds no
    M x M x d array and about four M x M ones at a time.
    """
    M, d = Y.shape
    D = cross_sq_dists(Y, Y)
    np.fill_diagonal(D, 0.0)
    # sdiff[i,j] = s(y_i).(y_i - y_j); grad_x k = 2*ku1*(x-y)/ell2 = -grad_y k
    sdiff = np.empty((M, M))
    for a in range(0, M, _BLOCK):
        b = min(a + _BLOCK, M)
        np.einsum("ik,ijk->ij", S[a:b], Y[a:b, None, :] - Y[None, :, :],
                  out=sdiff[a:b])
    K0 = S @ S.T
    buf = np.empty((3, min(_BLOCK, M), M))
    c_trace = -4.0 * beta * (beta - 1.0)
    c_cross = -(2.0 / ell2)
    for a in range(0, M, _BLOCK):
        b = min(a + _BLOCK, M)
        u, k, ku1 = buf[:, :b - a]
        Db, out = D[a:b], K0[a:b]
        np.divide(Db, ell2, out=u)
        np.add(c2, u, out=u)
        np.power(u, beta, out=k)
        np.multiply(out, k, out=out)
        np.power(u, beta - 1.0, out=ku1)
        np.multiply(beta, ku1, out=ku1)
        # trace, into u; k is scratch from here on
        np.power(u, beta - 2.0, out=u)
        np.multiply(c_trace, u, out=u)
        np.multiply(u, Db, out=u)
        np.divide(u, ell2**2, out=u)
        np.multiply(2.0 * d, ku1, out=k)
        np.divide(k, ell2, out=k)
        np.subtract(u, k, out=u)
        # cross, into ku1
        np.multiply(c_cross, ku1, out=ku1)
        np.add(sdiff[a:b], sdiff.T[a:b], out=k)
        np.multiply(ku1, k, out=ku1)
        np.add(out, ku1, out=out)
        np.add(out, u, out=out)
    return K0
