"""Inner quadrature rules and the v0 / v1 embedding estimators.

Four estimator families read one evaluation of the target at the probe
points y_i + sigma * xi_q: gradient-free, Stein (score-informed), the
one-point Fredholm pair, and the gamma-hybrid. All arithmetic runs in log
space with a per-particle max shift, so only genuinely out-of-range
densities underflow the absolute scale of the result. The fifth,
analytic, reads the exact embeddings of a Gaussian-mixture target.
"""

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


@dataclass(frozen=True)
class InnerQuadrature:
    """Nodes and weights discretizing the standard Gaussian integral."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes",
                           np.atleast_2d(np.asarray(self.nodes, float)))
        object.__setattr__(self, "weights",
                           np.asarray(self.weights, float))
        if self.nodes.shape[0] != self.weights.shape[0] or \
                self.nodes.shape[0] < 1:
            raise ValueError("need Q >= 1 matching nodes and weights")

    @property
    def q(self):
        return self.nodes.shape[0]


def one_point_rule(d):
    """The rule behind the Fredholm estimators: xi = 0 with weight 1."""
    return InnerQuadrature(nodes=np.zeros((1, d)), weights=np.ones(1))


def mc_inner_quadrature(q, d, rng_seed):
    """Q iid standard-normal nodes with uniform weights 1/Q."""
    if q < 1:
        raise ValueError("Q must be at least 1")
    rng = np.random.default_rng(rng_seed)
    return InnerQuadrature(
        nodes=rng.standard_normal((q, d)),
        weights=np.full(q, 1.0 / q),
    )


@dataclass
class EmbeddingEstimate:
    """v0 (M,) and v1 (M, d) estimates plus evaluation counters."""

    v0_hat: np.ndarray
    v1_hat: np.ndarray
    density_evals: int
    score_evals: int


def estimate_embeddings(t, Y, sigma, rule, estimator, gamma=1.0):
    """(v0_hat, v1_hat) at Y for a named estimator, from one target call.

    With pi_q = pi(y + sigma xi_q), s_q its score and u_q the rule weights:
      v0_hat(y) = omega sum_q u_q pi_q;
      gf:     v1_hat(y) = y v0_hat(y) + sigma omega sum_q u_q xi_q pi_q,
              so a symmetric rule cancels the odd term exactly and the
              one-point rule returns y * v0_hat verbatim;
      stein:  v1_hat(y) = y v0_hat(y) + sigma^2 omega sum_q u_q pi_q s_q,
              the Gaussian integration-by-parts identity;
      hybrid: (1 - gamma) * gf + gamma * stein on the same evaluations;
      fredholm ignores the passed rule and uses the one-point rule, giving
              v0 = omega pi(y), v1 = omega pi(y)(y + sigma^2 score(y));
      analytic ignores the rule and reads the target's exact mixture
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
        rule = one_point_rule(d)
    use_gf = estimator == "gf" or (estimator == "hybrid" and gamma < 1.0)
    use_stein = estimator in ("fredholm", "stein") \
        or (estimator == "hybrid" and gamma > 0.0)
    probes = Y[:, None, :] + sigma * rule.nodes[None, :, :]
    flat = probes.reshape(m * rule.q, d)
    if use_stein:
        if not t.has_score:
            raise EstimatorUnavailableError(
                "estimator needs a score but the target has none"
            )
        logpi, scores = t.log_density_and_score(flat)
    else:
        logpi = t.log_density(flat)
    logpi = logpi.reshape(m, rule.q)
    if not np.all(np.isfinite(logpi)):
        bad = np.unique(np.nonzero(~np.isfinite(logpi))[0])
        raise NonFiniteDensityError(bad.tolist())
    s = logpi.max(axis=1)
    w = np.exp(logpi - s[:, None])
    scale = np.exp(s + log_omega(sigma, d))
    v0 = scale * (w @ rule.weights)
    wu = w * rule.weights
    if use_gf:
        drift = np.einsum("iq,qd->id", wu, rule.nodes)
        gf = Y * v0[:, None] + sigma * scale[:, None] * drift
    if use_stein:
        drift = np.einsum("iq,iqd->id", wu, scores.reshape(m, rule.q, d))
        stein = Y * v0[:, None] + sigma**2 * scale[:, None] * drift
    if use_gf and use_stein:
        v1 = (1.0 - gamma) * gf + gamma * stein
    else:
        v1 = gf if use_gf else stein
    n = m * rule.q
    return EmbeddingEstimate(v0, v1, n, n if use_stein else 0)
