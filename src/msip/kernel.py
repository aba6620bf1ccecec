"""Squared-exponential kernel, Gram assembly, and regularized SPD solves.

The Gram matrix of a particle configuration is a plain array, assembled
once (exactly symmetric, diagonal exactly 1 + lambda) and factorized by
Cholesky in the solve that reads it; every Gram system in the library,
the quadrature weights w = K_lambda^{-1} v0 included, goes through
:func:`solve`, which holds a 1e-10 relative-residual contract via one
step of iterative refinement, within the range its docstring states.
Several right-hand sides of one Gram matrix, such as the MSIP step's
[v0 | v1], share one factor and one triangular solve per pass and keep
the bits of their separate solves.

The SE matrix comes from ``_backend.sym_se_matrix``, which builds it
on its upper triangle in row blocks of 64, like every symmetric M x M
matrix of the backend; it is bit for bit the matrix
exp(-D / (2 sigma^2)) with D = ``_backend.cross_sq_dists(Y, Y)`` and
the diagonal set to 1. Its entries are not bitwise
permutation-equivariant, because BLAS rounds the inner products of
Y @ Y.T by position, so ``test_permutation_conjugates_gram`` fails.
The factor and the solves call LAPACK's dpotrf and dpotrs directly,
through :mod:`msip._lapack`, which holds scipy's own wrappers without
importing ``scipy.linalg``; they give the bits scipy's cho_factor and
cho_solve give.

A workspace (:func:`workspace`) is the pair of M x M arrays a run's Gram
systems live in: ``gram(..., out=G)`` writes the Gram matrix into the
C-order G, and ``solve(..., factor=L)`` copies it into the Fortran-order
L, which dpotrf factors in place. ``dynamics.run_msip`` allocates one per
run (the harness one per trial) and every step writes both arrays anew;
between steps the harness lends them to the exact MMD^2 and the KSD.
Without a workspace each call allocates, with the same bits. Allocating
the pair at every step would free about 2.6 MB per step at M = 400,
which glibc hands back to the kernel whenever its trim threshold lies
below that, and the next step faults it in again: on msip-f with a 10-D
mixture, about 60,000 minor faults per 100-step trial that way, against
600-800 with one workspace.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from ._lapack import dpotrf, dpotrs
from .errors import SingularGramError

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


def workspace(M):
    """The two M x M buffers of one run's Gram systems: (G, L).

    G is C-order and takes the Gram matrix (``gram(..., out=G)``); L is
    Fortran order and takes its Cholesky factor (``solve(...,
    factor=L)``), which dpotrf then computes in place. The metrics borrow
    the pair between steps (``metrics.mmd2_vs_gmm`` and ``metrics.ksd``).
    """
    return np.empty((M, M)), np.empty((M, M), order="F")


def gram(Y, spec, out=None):
    """K(Y) + lambda I for the configuration Y (M x d), as an M x M array.

    Written into out, a C-order M x M array, when one is given.
    """
    Y = np.ascontiguousarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ValueError(f"Y must be M x d with M >= 1, got shape {Y.shape}")
    K = _backend.sym_se_matrix(Y, spec.sigma**2, out=out)
    K.reshape(-1)[::K.shape[0] + 1] = 1.0 + spec.lam  # K is C-order
    return K


def _factor(G, L=None):
    """Lower Cholesky factor of G, computed in L (Fortran order, upper part
    not zeroed), or in a new array without one.

    G is exactly symmetric, so its transpose is the same matrix in Fortran
    order; it is copied into L, which dpotrf factors in place. A failed
    factor raises SingularGramError naming the closest particle pair: the
    largest off-diagonal kernel value.
    """
    if L is None:
        L = np.empty(G.shape, order="F")
    np.copyto(L, G.T)
    L, info = dpotrf(L, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        return L
    msg = "Gram matrix is not positive definite (Cholesky failed)"
    M = G.shape[0]
    pair = None
    if M > 1:
        i, j = divmod(int(np.argmax(G - np.diag(np.diag(G)))), M)
        pair = (min(i, j), max(i, j))
        msg += (f"; closest particle pair is {pair} (kernel value "
                f"{G[pair]:.6g}, diagonal {G[i, i]:g})")
    raise SingularGramError(msg, index_pair=pair)


def solve(G, *blocks, factor=None):
    """Solve (K + lambda I) X = B for each right-hand-side block B.

    One iterative-refinement step keeps each block's relative residual
    ||B - G X|| / ||B|| at or below 1e-10 for any B while
    cond(K + lambda I) stays below about 3e6: for a generic B it comes
    out near 2-3e-17 times the condition number (6.1e-11 at worst over 50
    draws at cond 2.2e6, M = 30, sigma = 2, lambda = 1e-5). K's largest
    eigenvalue can reach M, so the condition number can reach
    (M + lambda) / lambda, not only 1/lambda. Beyond that range the
    contract holds only for right-hand sides with a moderate solution,
    such as B = G X with ||X|| ~ ||B||; a generic B reached 1.8e-10 at
    cond 1.5e7. The blocks
    (vectors or M x k matrices) are stacked side by side for one dpotrs
    per pass; dpotrs gives each column the same bits whatever columns sit
    beside it. Each block's residual is formed on its own, a vector's by a
    matrix-vector product, so every solution has the bits of a solve of
    its block alone. The Cholesky factor is computed in factor, a
    Fortran-order M x M array, when one is given, and in a new one
    otherwise; dpotrf reads the same matrix either way. Returns the
    solution of a single block, or a tuple of the blocks' solutions.
    """
    Bs = [np.asarray(B, dtype=float) for B in blocks]
    L = _factor(G, factor)
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
        R[:, c] = B - G @ X[:, c]
    X += dpotrs(L, R, lower=1, overwrite_b=1)[0]
    Xs = [X[:, c] for c in cols]
    return Xs[0] if len(Xs) == 1 else tuple(Xs)
