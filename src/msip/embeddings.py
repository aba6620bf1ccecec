"""Inner quadrature rules and the v0 / v1 embedding estimators.

An inner rule is a Q x d array of nodes xi_q for the standard Gaussian
integral, each with weight u_q = 1/Q. The estimators read one
evaluation of the target at the probe points y_i + sigma * xi_q. The
gamma-hybrid mixes a gradient-free and a Stein (score-informed) term;
gradient-free is the hybrid at gamma = 0, Stein the hybrid at gamma = 1,
and the Fredholm pair is Stein on the one node xi = 0. All arithmetic
runs in log space with a per-particle max shift, so only genuinely
out-of-range densities underflow the absolute scale of the result. The
analytic estimator reads the exact embeddings of a Gaussian-mixture
target.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnalyticUnavailableError,
    EstimatorUnavailableError,
    NonFiniteDensityError,
)
from .kernel import log_omega
from .targets import gmm_v0_and_shift

ESTIMATORS = ("fredholm", "stein", "gf", "hybrid", "analytic")


def one_point_rule(d):
    """The node of the Fredholm estimators: xi = 0, as a 1 x d array."""
    return np.zeros((1, d))


def mc_inner_quadrature(q, d, rng_seed):
    """Q iid standard-normal nodes, as a Q x d array."""
    if q < 1:
        raise ValueError("Q must be at least 1")
    return np.random.default_rng(rng_seed).standard_normal((q, d))


@functools.lru_cache(maxsize=64)
def _uniform_weights(q):
    """The weights u_q = 1/Q of a Q-node rule, built once per Q; read-only."""
    u = np.full(q, 1.0 / q)
    u.flags.writeable = False
    return u


@dataclass
class EmbeddingEstimate:
    """v0 (M,) and v1 (M, d) estimates plus evaluation counters."""

    v0_hat: np.ndarray
    v1_hat: np.ndarray
    density_evals: int
    score_evals: int


def estimate_embeddings(t, Y, sigma, nodes, estimator, gamma=0.5):
    """(v0_hat, v1_hat) at Y for a named estimator, from one target call.

    With pi_q = pi(y + sigma xi_q) at the Q x d nodes xi_q, s_q its score
    and u_q = 1/Q:
      v0_hat(y) = omega sum_q u_q pi_q;
      gf:     v1_hat(y) = y v0_hat(y) + sigma omega sum_q u_q xi_q pi_q,
              so a symmetric rule cancels the odd term exactly and the
              one-point rule returns y * v0_hat verbatim;
      stein:  v1_hat(y) = y v0_hat(y) + sigma^2 omega sum_q u_q pi_q s_q,
              the Gaussian integration-by-parts identity;
      hybrid: (1 - gamma) * gf + gamma * stein on the same evaluations,
              so gf is the hybrid at gamma = 0 and stein at gamma = 1;
      fredholm is stein on the one-point rule, whatever nodes are passed:
              v0 = omega pi(y), v1 = omega pi(y)(y + sigma^2 score(y));
      analytic ignores the nodes and reads the target's exact mixture
              embeddings, scaled by exp(log_scale_offset).
    """
    Y = np.asarray(Y, dtype=float)
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; expected {ESTIMATORS}"
        )
    if estimator == "hybrid" and not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if estimator == "analytic":
        if t.analytic is None:
            raise AnalyticUnavailableError(
                f"target {t.name or '<anonymous>'} has no analytic "
                "embeddings"
            )
        v0, shifted = gmm_v0_and_shift(t.analytic, Y, sigma)
        v0 = v0 * math.exp(t.log_scale_offset)
        v1 = v0[:, None] * shifted
        return EmbeddingEstimate(v0, v1, 0, 0)
    m, d = Y.shape
    if estimator == "fredholm":
        nodes = one_point_rule(d)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[0] < 1 or nodes.shape[1] != d:
        raise ValueError(
            f"nodes must be a Q x {d} array with Q >= 1, got shape "
            f"{nodes.shape}"
        )
    q = nodes.shape[0]
    # the weight of the Stein term: gf is the hybrid at 0, stein at 1
    g = {"gf": 0.0, "hybrid": gamma}.get(estimator, 1.0)
    use_gf, use_stein = g < 1, g > 0
    probes = Y[:, None, :] + sigma * nodes[None, :, :]
    flat = probes.reshape(m * q, d)
    if use_stein:
        if not t.has_score:
            raise EstimatorUnavailableError(
                "estimator needs a score but the target has none"
            )
        logpi, scores = t.log_density_and_score(flat)
    else:
        logpi = t.log_density(flat)
    logpi = logpi.reshape(m, q)
    if not np.isfinite(logpi).all():
        bad = np.unique(np.nonzero(~np.isfinite(logpi))[0])
        raise NonFiniteDensityError(bad.tolist())
    s = logpi.max(axis=1)
    w = np.exp(logpi - s[:, None])
    scale = np.exp(s + log_omega(sigma, d))
    u = _uniform_weights(q)
    v0 = scale * (w @ u)
    wu = w * u
    if use_gf:
        drift = np.einsum("iq,qd->id", wu, nodes)
        v1 = Y * v0[:, None] + sigma * scale[:, None] * drift
    if use_stein:
        drift = np.einsum("iq,iqd->id", wu, scores.reshape(m, q, d))
        stein = Y * v0[:, None] + sigma**2 * scale[:, None] * drift
        v1 = (1.0 - g) * v1 + g * stein if use_gf else stein
    n = m * q
    return EmbeddingEstimate(v0, v1, n, n if use_stein else 0)
