"""Squared-exponential kernel, Gram assembly, and regularized SPD solves.

The Gram matrix of a particle configuration is assembled once (exactly
symmetric, diagonal exactly 1 + lambda) and factorized lazily by Cholesky;
every linear system in the library goes through :func:`solve`, which holds
a 1e-10 relative-residual contract via one step of iterative refinement.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
    _chol: tuple | None = field(default=None, repr=False)

    @property
    def shape(self):
        return self.entries.shape


def se_matrix(Y, sigma):
    """Plain SE kernel matrix exp(-||y_i - y_j||^2 / (2 sigma^2)) of Y.

    Exactly symmetric with diagonal exactly 1; Y is an M x d float array.
    """
    return np.exp(-_backend.sym_sq_dists(Y) / (2.0 * sigma**2))


def gram(Y, spec):
    """Assemble K(Y) + lambda I for the configuration Y (M x d)."""
    Y = np.ascontiguousarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ValueError(f"Y must be M x d with M >= 1, got shape {Y.shape}")
    K = se_matrix(Y, spec.sigma)
    np.fill_diagonal(K, 1.0 + spec.lam)
    return GramMatrix(entries=K, lambda_applied=spec.lam, _chol=None)


def _factor(G):
    if G._chol is None:
        try:
            G._chol = cho_factor(G.entries, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularGramError(
                _singular_message(G), index_pair=_closest_pair(G)
            ) from exc
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


def solve(G, B):
    """Solve (K + lambda I) X = B with the cached Cholesky factor.

    One iterative-refinement step keeps the relative residual at or below
    1e-10 even for condition numbers near 1/lambda.
    """
    B = np.asarray(B, dtype=float)
    c = _factor(G)
    X = cho_solve(c, B, check_finite=False)
    R = B - G.entries @ X
    X = X + cho_solve(c, R, check_finite=False)
    if CHECK_RESIDUALS:
        num = np.linalg.norm(B - G.entries @ X)
        den = np.linalg.norm(B)
        # contract applies to well-posed systems only; non-finite inputs
        # propagate to the caller's divergence handling untouched
        if den > 0 and math.isfinite(den) and not num <= 1e-10 * den:
            raise AssertionError(
                f"solve residual contract violated: {num / den:.3e}"
            )
    return X
