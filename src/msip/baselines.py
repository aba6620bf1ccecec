"""Reference particle samplers: SVGD and consensus-based sampling (CBS).

Both produce uniformly weighted particle sets and are invariant to the
target's normalization constant (SVGD sees only the score, CBS only
log-density differences). Each runner passes its step to
``dynamics.iterate``, the one run loop it shares with MSIP, and they share
the harness and metrics with the MSIP quadrature construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._backend import cross_sq_dists, sym_se_matrix
from .dynamics import ParticleConfiguration, iterate
from .errors import DegenerateConsensusError

# Keeps the adaptive bandwidth usable when particles coincide.
_BANDWIDTH_FLOOR = 1e-12

# Both samplers do no work after their last step.
_NO_EVALS = {"density_evals": 0, "score_evals": 0}


@dataclass(frozen=True)
class SvgdParams:
    """Step size, iteration count and SE-kernel bandwidth for SVGD.

    bandwidth is the squared length scale of the kernel, or the string
    "median" to recompute it each step from the particle set.
    """

    eta: float
    T: int = 1000
    bandwidth: float | str = "median"
    seed: int = 0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.T < 1:
            raise ValueError(f"T must be at least 1, got {self.T}")
        if self.bandwidth != "median" and not (
            isinstance(self.bandwidth, (int, float))
            and not isinstance(self.bandwidth, bool)
            and self.bandwidth > 0
        ):
            raise ValueError(
                f"bandwidth must be positive or 'median', got {self.bandwidth}"
            )


@dataclass(frozen=True)
class CbsParams:
    """Inverse temperature, step size and noise level for CBS."""

    beta: float = 0.9
    eta: float = 0.5
    T: int = 1000
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.T < 1:
            raise ValueError(f"T must be at least 1, got {self.T}")
        if self.noise_scale < 0:
            raise ValueError(
                f"noise_scale must be nonnegative, got {self.noise_scale}"
            )


def median_bandwidth(Y):
    """med(pairwise squared distances) / (2 log(M + 1)), floored.

    A symmetric (permutation-invariant) function of the particle set; the
    median runs over the off-diagonal pairs.
    """
    M = Y.shape[0]
    if M < 2:
        return 1.0
    Y = np.asarray(Y, dtype=float)
    D = cross_sq_dists(Y, Y)
    iu = np.triu_indices(M, k=1)
    med = float(np.median(D[iu]))
    return max(med / (2.0 * math.log(M + 1.0)), _BANDWIDTH_FLOOR)


def svgd_step(Y, t, p):
    """y_i + eta/M * sum_j [k(y_j,y_i) s(y_j) + grad_{y_j} k(y_j,y_i)].

    SE kernel k(x,y) = exp(-|x-y|^2 / (2 h2)); for M=1 the repulsion term
    vanishes and the step reduces to plain gradient ascent on log-density.
    """
    Y = np.asarray(Y, dtype=float)
    M = Y.shape[0]
    S = t.score(Y)
    h2 = p.bandwidth if p.bandwidth != "median" else median_bandwidth(Y)
    K = sym_se_matrix(Y, -2.0 * h2)
    # grad_{y_j} k(y_j, y_i) = (y_i - y_j) / h2 * k(y_j, y_i)
    attraction = K @ S
    repulsion = (Y * K.sum(axis=0)[:, None] - K @ Y) / h2
    return Y + (p.eta / M) * (attraction + repulsion)


def _uniform(Y):
    M = Y.shape[0]
    return ParticleConfiguration(Y=Y, w=np.full(M, 1.0 / M))


def run_svgd(t, p, Y0, callbacks=()):
    """Iterate svgd_step T times with ``dynamics.iterate``.

    Callbacks see w_it = None and diagnostics holding the M score
    evaluations of one step. Returns (uniform-weight config, diag) with
    no evaluations in diag.
    """
    diag = {"density_evals": 0, "score_evals": len(Y0), "frozen": []}

    def step(Y, it):
        return svgd_step(Y, t, p), None, diag

    return _uniform(iterate(step, Y0, p.T, callbacks)), dict(_NO_EVALS)


def consensus_point(Y, t, p):
    """Softmax-weighted particle average with weights exp(beta log-density)."""
    logp = t.log_density(Y)
    if np.all(np.isneginf(logp)):
        raise DegenerateConsensusError(
            "all consensus weights vanished (log-density -inf at every "
            "particle)"
        )
    # softmax, shifted by its largest exponent: the operations of
    # scipy.special.softmax, without loading scipy.special
    x = p.beta * logp
    e = np.exp(x - np.max(x, keepdims=True))
    alpha = e / np.sum(e, keepdims=True)
    return alpha @ Y


def cbs_step(Y, t, p, rng):
    """Contract toward the consensus point, then diffuse.

    y_i <- y_i - eta (y_i - c) + noise_scale sqrt(2 eta) |y_i - c| zeta_i
    with zeta_i iid standard normal vectors.
    """
    Y = np.asarray(Y, dtype=float)
    c = consensus_point(Y, t, p)
    drift = Y - (Y - c) * p.eta
    if p.noise_scale == 0.0:
        return drift
    radii = np.linalg.norm(Y - c, axis=1, keepdims=True)
    zeta = rng.standard_normal(Y.shape)
    return drift + p.noise_scale * math.sqrt(2.0 * p.eta) * radii * zeta


def run_cbs(t, p, Y0, callbacks=()):
    """Iterate cbs_step T times with a fresh per-iteration noise stream.

    Callbacks and the return value are as in run_svgd, with M density
    evaluations per step.
    """
    diag = {"density_evals": len(Y0), "score_evals": 0, "frozen": []}

    def step(Y, it):
        rng = np.random.default_rng([p.seed, 2, it])
        return cbs_step(Y, t, p, rng), None, diag

    return _uniform(iterate(step, Y0, p.T, callbacks)), dict(_NO_EVALS)
