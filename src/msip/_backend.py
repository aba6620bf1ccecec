"""Hot numerical kernels: distances, SE row sums and the IMQ Stein Gram.

Plain numpy, deterministic run to run. Two properties are weaker than
exact arithmetic would give:

- distances are formed in the expanded form through BLAS. They are
  exactly symmetric with a zero diagonal, but not bitwise
  permutation-equivariant: BLAS may round a pair's inner product
  differently depending on where the pair sits in the matrix.
- the SE self row-sums drop far-apart pairs, within a stated 1e-12
  relative bound.
"""

import math

import numpy as np

__all__ = [
    "sym_sq_dists",
    "cross_sq_dists",
    "se_cross_rowsums",
    "se_self_rowsums",
    "imq_stein_gram",
]


def sym_sq_dists(Y):
    """All pairwise squared distances among rows of Y, exactly symmetric.

    Expanded form ||x||^2 + ||y||^2 - 2<x,y>, clamped at 0 against negative
    round-off, then mirrored from the upper triangle so D[i,j] == D[j,i]
    bit-exactly and the diagonal is exactly 0. Mirroring does not make D
    permutation-equivariant: BLAS rounds <y_i, y_j> according to where the
    pair sits in Y @ Y.T, so the distances of a permuted Y can differ from
    the permuted distances in the last bit, and so can ``kernel.gram``.
    """
    sq = np.einsum("ij,ij->i", Y, Y)
    D = sq[:, None] + sq[None, :] - 2.0 * (Y @ Y.T)
    np.maximum(D, 0.0, out=D)
    iu = np.triu_indices(D.shape[0], 1)
    D[(iu[1], iu[0])] = D[iu]
    np.fill_diagonal(D, 0.0)
    return D


def cross_sq_dists(A, B):
    """Squared distances between rows of A (n) and rows of B (m), n x m."""
    sa = np.einsum("ij,ij->i", A, A)
    sb = np.einsum("ij,ij->i", B, B)
    D = sa[:, None] + sb[None, :] - 2.0 * (A @ B.T)
    np.maximum(D, 0.0, out=D)
    return D


def se_cross_rowsums(X, Y, w, inv_two_sigma2):
    """Per-row sums sum_i w_i * exp(-||x_n - y_i||^2 * inv_two_sigma2)."""
    out = np.empty(X.shape[0])
    step = max(1, int(4e6) // max(Y.shape[0], 1))
    for lo in range(0, X.shape[0], step):
        hi = min(lo + step, X.shape[0])
        D = cross_sq_dists(X[lo:hi], Y)
        out[lo:hi] = np.exp(-inv_two_sigma2 * D) @ w
    return out


# Relative error bound of the self row-sums: each row drops terms that add
# up to less than this, and every row sum is at least its diagonal term 1.
_SELF_SUM_RTOL = 1e-12
# Rows per tile of the self row-sum.
_TILE = 256


def se_self_rowsums(X, inv_two_sigma2):
    """Row sums of the full SE kernel matrix of X (diagonal included).

    Each row is within 1e-12 relative of the exact sum. The points are
    sorted by grid cells of side r/4 and cut into tiles of 256 rows. Each
    unordered pair of tiles is visited once, with direct-difference
    distances sum_a (x_ia - x_ja)^2, and adds its kernel block to the rows
    of both tiles. A pair whose bounding boxes lie farther apart than r is
    skipped, where N exp(-r^2 inv_two_sigma2) = 1e-12: the terms a row
    loses add up to less than 1e-12, and every row sum is at least 1.
    The sums come back in the input order.
    """
    n = X.shape[0]
    r2 = math.log(n / _SELF_SUM_RTOL) / inv_two_sigma2
    cells = np.floor((X - X.min(axis=0)) / (0.25 * math.sqrt(r2)))
    order = np.lexsort(cells.T[::-1])
    Xs = np.ascontiguousarray(X[order].T)  # d x n, sorted
    starts = np.arange(0, n, _TILE)
    lo = np.minimum.reduceat(Xs, starts, axis=1)
    hi = np.maximum.reduceat(Xs, starts, axis=1)
    sums = np.zeros(n)
    buf = np.empty((2, _TILE, _TILE))
    ones = np.ones(_TILE)
    for i, a in enumerate(starts):
        A = Xs[:, a:a + _TILE]
        gap = np.maximum(lo[:, i:] - hi[:, i, None],
                         lo[:, i, None] - hi[:, i:])
        np.maximum(gap, 0.0, out=gap)
        gap2 = np.einsum("ij,ij->j", gap, gap)
        # ~(gap2 > r2) keeps NaN boxes, so a NaN point still poisons its sums
        for j in i + np.flatnonzero(~(gap2 > r2)):
            b = starts[j]
            K = _se_tile(A, Xs[:, b:b + _TILE], inv_two_sigma2, buf)
            sums[a:a + _TILE] += K @ ones[:K.shape[1]]
            if j != i:
                sums[b:b + _TILE] += ones[:K.shape[0]] @ K
    out = np.empty(n)
    out[order] = sums
    return out


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
    np.multiply(K, -inv_two_sigma2, out=K)
    return np.exp(K, out=K)


def imq_stein_gram(Y, S, c2, ell2, beta):
    """Stein-kernel Gram for the IMQ base kernel.

    k(x,y) = (c2 + ||x-y||^2 / ell2)^beta, S holds score rows s(y_i);
    k0 = s(x)'s(y) k + s(x)'grad_y k + s(y)'grad_x k + tr(grad_x grad_y k).
    """
    d = Y.shape[1]
    D = sym_sq_dists(Y)
    u = c2 + D / ell2
    k = u**beta
    ku1 = beta * u ** (beta - 1.0)
    diff = Y[:, None, :] - Y[None, :, :]
    ss = S @ S.T
    # sdiff[i,j] = s(y_i).(y_i - y_j); grad_x k = 2*ku1*(x-y)/ell2 = -grad_y k
    sdiff = np.einsum("ik,ijk->ij", S, diff)
    cross = -(2.0 / ell2) * ku1 * (sdiff + sdiff.T)
    trace = (
        -4.0 * beta * (beta - 1.0) * u ** (beta - 2.0) * D / ell2**2
        - 2.0 * d * ku1 / ell2
    )
    return ss * k + cross + trace
