"""Squared-exponential kernel, Gram assembly, and regularized SPD solves.

The Gram matrix of a particle configuration is assembled once (exactly
symmetric, diagonal exactly 1 + lambda) and factorized lazily by Cholesky;
every Gram system in the library, the quadrature weights
w = K_lambda^{-1} v0 included, goes through :func:`solve`, which holds a
1e-10 relative-residual contract via one step of iterative refinement.
Several right-hand sides of one Gram matrix, such as the MSIP step's
[v0 | v1], share one triangular solve per pass and keep the bits of
their separate solves.

The SE matrix is built on its upper triangle in row blocks of 64 and
mirrored (``_backend.sym_se_matrix``); it is bit for bit the matrix
exp(-D / (2 sigma^2)) with D = ``_backend.cross_sq_dists(Y, Y)`` and the
diagonal set to 1. Its entries are not bitwise permutation-equivariant,
because BLAS rounds the inner products of Y @ Y.T by position, so
``test_permutation_conjugates_gram`` fails as it did before the blocks.
The factor and the solves call LAPACK's dpotrf and dpotrs directly; they
give the bits scipy's cho_factor and cho_solve give.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import _backend
from .errors import SingularGramError

# When True every solve asserts its residual contract (enabled by tests).
CHECK_RESIDUALS = False

_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth sigma and diagonal regularization lam of the SE kernel."""

    sigma: float
    lam: float = 1e-6

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")


def log_omega(sigma, d):
    """log of omega_{sigma,d} = (sqrt(2 pi) sigma)^d."""
    val = d * (0.5 * math.log(2.0 * math.pi) + math.log(sigma))
    if val >= _LOG_DBL_MAX:
        raise ValueError(
            f"omega(sigma={sigma}, d={d}) overflows double precision"
        )
    return val


def omega(sigma, d):
    """Gaussian normalizer (sqrt(2 pi) sigma)^d; rejects overflow."""
    return math.exp(log_omega(sigma, d))


def se_kernel(x, y, spec):
    """exp(-||x-y||^2 / (2 sigma^2)); exactly 1 at zero distance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.dot(x - y, x - y))
    return math.exp(-d2 / (2.0 * spec.sigma**2))


@dataclass
class GramMatrix:
    """SE Gram matrix with lambda on the diagonal and a cached Cholesky."""

    entries: np.ndarray
    lambda_applied: float
    _chol: np.ndarray | None = field(default=None, repr=False)

    @property
    def shape(self):
        return self.entries.shape


def se_matrix(Y, sigma):
    """Plain SE kernel matrix exp(-||y_i - y_j||^2 / (2 sigma^2)) of Y.

    Exactly symmetric with diagonal exactly 1; Y is an M x d float array.
    """
    return _backend.sym_se_matrix(Y, -(2.0 * sigma**2))


def gram(Y, spec):
    """Assemble K(Y) + lambda I for the configuration Y (M x d)."""
    Y = np.ascontiguousarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ValueError(f"Y must be M x d with M >= 1, got shape {Y.shape}")
    K = se_matrix(Y, spec.sigma)
    np.fill_diagonal(K, 1.0 + spec.lam)
    return GramMatrix(entries=K, lambda_applied=spec.lam, _chol=None)


def _factor(G):
    """Lower Cholesky factor of G (Fortran order, upper part not zeroed).

    G.entries is exactly symmetric, so its transpose is the same matrix in
    Fortran order and dpotrf copies it without transposing.
    """
    if G._chol is None:
        L, info = dpotrf(G.entries.T, lower=1, clean=0)
        if info != 0:
            raise SingularGramError(
                _singular_message(G), index_pair=_closest_pair(G)
            )
        G._chol = L
    return G._chol


def _closest_pair(G):
    K = G.entries
    M = K.shape[0]
    if M < 2:
        return None
    off = K - np.diag(np.diag(K))
    i, j = divmod(int(np.argmax(off)), M)
    return (min(i, j), max(i, j))


def _singular_message(G):
    pair = _closest_pair(G)
    msg = "Gram matrix is not positive definite (Cholesky failed)"
    if pair is not None:
        msg += (
            f"; closest particle pair is {pair} "
            f"(kernel value {G.entries[pair]:.6g}, lambda="
            f"{G.lambda_applied:g})"
        )
    return msg


def solve(G, *blocks):
    """Solve (K + lambda I) X = B for each right-hand-side block B.

    One iterative-refinement step keeps each block's relative residual at
    or below 1e-10 even for condition numbers near 1/lambda. The blocks
    (vectors or M x k matrices) are stacked side by side for one dpotrs
    per pass; dpotrs gives each column the same bits whatever columns sit
    beside it. Each block's residual is formed on its own, a vector's by a
    matrix-vector product, so every solution has the bits of a solve of
    its block alone. Returns the solution of a single block, or a tuple
    of the blocks' solutions.
    """
    Bs = [np.asarray(B, dtype=float) for B in blocks]
    L = _factor(G)
    # the columns of each block: an index for a vector, a slice for a matrix
    cols, k = [], 0
    for B in Bs:
        cols.append(k if B.ndim == 1 else slice(k, k + B.shape[1]))
        k += 1 if B.ndim == 1 else B.shape[1]
    R = np.empty((len(Bs[0]), k), order="F")
    for c, B in zip(cols, Bs):
        R[:, c] = B
    X = dpotrs(L, R, lower=1)[0]
    for c, B in zip(cols, Bs):
        R[:, c] = B - G.entries @ X[:, c]
    X += dpotrs(L, R, lower=1, overwrite_b=1)[0]
    Xs = [X[:, c] for c in cols]
    if CHECK_RESIDUALS:
        for B, Xb in zip(Bs, Xs):
            num = np.linalg.norm(B - G.entries @ Xb)
            den = np.linalg.norm(B)
            # contract applies to well-posed systems only; non-finite
            # inputs propagate to the caller's divergence handling untouched
            if den > 0 and math.isfinite(den) and not num <= 1e-10 * den:
                raise AssertionError(
                    f"solve residual contract violated: {num / den:.3e}"
                )
    return Xs[0] if len(Xs) == 1 else tuple(Xs)
