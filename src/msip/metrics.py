"""Evaluation metrics for weighted particle configurations.

Exact squared MMD against Gaussian-mixture targets, a sample-estimated
squared MMD for targets without analytic embeddings, kernelized Stein
discrepancy with an inverse-multiquadric kernel, weighted log-likelihood,
and mode coverage. All metrics are permutation invariant in (particles,
weights) jointly.

The exact MMD^2 and the KSD build M x M matrices. An MSIP trial lends
them its Gram workspace (``kernel.workspace(M)``, passed as work=), which
the step has finished with whenever a metric row is taken, so a metric
row allocates no M x M array; without work= each call allocates its own,
with the same bits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import (
    SeTiles,
    cross_sq_dists,
    imq_stein_gram,
    se_cross_rowsums,
    se_self_rowsums,
    sym_se_matrix,
)
from .errors import NonNormalizableError
from .targets import gmm_c_pi, gmm_v0, normalized

# Below this total mass the weight vector cannot be renormalized.
_SUM_FLOOR = 1e-12


# The IMQ kernel k(x,y) = (c2 + |x-y|^2 / bandwidth^2)^beta of the Stein
# discrepancy, with the usual c2 = 1, beta = -1/2 (Gorham & Mackey 2017).
IMQ_C2 = 1.0
IMQ_BETA = -0.5


@dataclass
class MetricsReport:
    """Per-iteration metric rows of one trial.

    Rows are dicts {iteration, mmd2, ksd, loglik, wall_ms, density_evals,
    score_evals} ordered by iteration; unrequested metrics hold None.
    """

    rows: list = field(default_factory=list)


def normalize_weights(w):
    """w / sum(w), preserving signs; the sum must be bounded away from 0."""
    w = np.asarray(w, dtype=float)
    s = w.sum()
    if not abs(s) >= _SUM_FLOOR:
        raise NonNormalizableError(
            f"weight sum {s:.6g} too close to zero to normalize "
            f"(|sum| < {_SUM_FLOOR:g})"
        )
    return w / s


def mmd2_vs_gmm(Y, w, t, sigma, work=None):
    """Exact MMD^2 between the weighted configuration and a unit-mass GMM.

    C_pi - 2 <w, v0(Y)> + w' K w with analytic C_pi and v0 and the plain
    (unregularized) kernel matrix; clamped at zero against round-off.
    K is written into the Gram buffer of work, a ``kernel.workspace(M)``
    pair lent by the run between its steps, or into a new array.
    """
    Y = np.asarray(Y, dtype=float)
    w = np.asarray(w, dtype=float)
    tn = normalized(t)
    v0 = gmm_v0(tn, Y, sigma)
    K = sym_se_matrix(Y, sigma**2, out=None if work is None else work[0])
    val = gmm_c_pi(tn, sigma) - 2.0 * float(w @ v0) + float(w @ K @ w)
    return max(val, 0.0)


class SampleMmd:
    """Plug-in MMD^2 (V-statistic) against one reference sample X.

    mean_n a_n - 2 mean_n b_n + w' K w, where a_n = (1/N) sum_m k(x_n, x_m)
    is the mean kernel value of x_n against the sample and
    b_n = sum_i w_i k(x_n, y_i). X is sorted and tiled once, here, and
    the a_n, which cost O(N^2), and their mean are computed once from the
    tiles; each evaluation sums each particle over the tiles within the
    cutoff.
    """

    def __init__(self, X, sigma):
        X = np.asarray(X, dtype=float)
        self.sigma = sigma
        self._tiles = SeTiles(X, 1.0 / (2.0 * sigma**2))
        self._a = se_self_rowsums(self._tiles) / X.shape[0]
        self._a_mean = float(self._a.mean())

    def _evaluate(self, Y, w):
        Y = np.asarray(Y, dtype=float)
        w = np.asarray(w, dtype=float)
        b = se_cross_rowsums(self._tiles, Y, w)
        val = self._a_mean - 2.0 * float(b.mean()) \
            + float(w @ sym_se_matrix(Y, self.sigma**2) @ w)
        return max(val, 0.0), b

    def __call__(self, Y, w):
        """MMD^2 of the weighted configuration; clamped at zero."""
        return self._evaluate(Y, w)[0]

    def with_se(self, Y, w, n_boot=200, seed=0):
        """(mmd2, bootstrap standard error) of the estimate.

        Resamples the per-sample linearization psi_n = 2 a_n - 2 b_n of
        the V-statistic, which is accurate to O(1/N) and avoids
        recomputing the N x N kernel sum per replicate.
        """
        mmd2, b = self._evaluate(Y, w)
        psi = 2.0 * self._a - 2.0 * b
        n = psi.shape[0]
        rng = np.random.default_rng(seed)
        reps = np.empty(n_boot)
        for i in range(n_boot):
            reps[i] = psi[rng.integers(0, n, size=n)].mean()
        return mmd2, float(reps.std(ddof=1))


def ksd2(Y, w, S, bandwidth, work=None):
    """Quadratic form sum_ij w_i w_j k0(y_i, y_j) of the IMQ Stein kernel.

    S holds the target's score at each row of Y, and bandwidth is the
    IMQ length scale. Weights are normalized to unit sum first, so the
    value is invariant to positive rescaling of the raw weight vector.
    The Stein Gram is built in work, a ``kernel.workspace(M)`` pair lent
    by the run between its steps, or in two new M x M arrays.
    """
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    Y = np.asarray(Y, dtype=float)
    w = normalize_weights(w)
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        rows = np.unique(np.nonzero(~np.isfinite(S))[0]).tolist()
        raise ValueError(f"non-finite score for particle(s) {rows}")
    K0 = imq_stein_gram(Y, S, IMQ_C2, bandwidth**2, IMQ_BETA, work=work)
    return float(w @ K0 @ w)


def ksd(Y, w, S, bandwidth, work=None):
    """sqrt(max(ksd2, 0)): the reported Stein discrepancy."""
    return math.sqrt(max(ksd2(Y, w, S, bandwidth, work), 0.0))


def weighted_loglik(w, logp):
    """-sum_k w_k log pi(y_k) for normalized weights w.

    logp holds the target's log-density at each particle. A -inf
    log-density at a positively weighted particle yields +inf (reported as
    such); zero-weight particles never contribute.
    """
    w = np.asarray(w, dtype=float)
    logp = np.asarray(logp, dtype=float)
    mask = w != 0.0
    return -float(w[mask] @ logp[mask]) if mask.any() else 0.0


def mode_coverage(Y, w, modes, radius):
    """(number of covered modes, per-mode flags).

    Mode k is covered iff some particle with normalized weight > 1/(10 M)
    lies within ``radius`` of it.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    Y = np.asarray(Y, dtype=float)
    modes = np.asarray(modes, dtype=float)
    wn = normalize_weights(w)
    heavy = wn > 1.0 / (10.0 * Y.shape[0])
    if not heavy.any():
        flags = np.zeros(modes.shape[0], dtype=bool)
        return 0, flags
    D = cross_sq_dists(modes, Y[heavy])
    flags = (D <= radius**2).any(axis=1)
    return int(flags.sum()), flags
