"""Checks of one finished trial against computations made apart from msip.

The targets, kernels, embeddings, weights and MMD^2 values here are
written again with numpy and scipy: direct-difference distances, scipy's
multivariate normal, the funnel's density from its definition. msip is
called for two things only: msip_step in the normalization-invariance
check, which is a check of msip_step itself, and the funnel's reference
sample, so that its MMD^2 is recomputed against the same points. Each
check returns a list of messages, empty when the trial passes.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import msip.dynamics
import msip.harness
import msip.targets

# Tolerances. The relative gaps seen on 56 trials of the three workloads
# are far below them: MMD^2 <= 3.1e-14, weight residual <= 4.9e-14,
# step under a log-density offset <= 2.5e-15.
MMD_RTOL = 1e-9
RESIDUAL_RTOL = 1e-10
OFFSET_RTOL = 1e-10
LOG_OFFSETS = (-40.0, 40.0)


# ------------------------------------------------------------------ targets


class Gmm:
    """Mixture sum_k m_k N(mu_k, C_k), weights normalized to unit sum."""

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, float) / np.sum(weights)
        self.means = np.asarray(means, float)
        self.covs = np.asarray(covs, float)
        self.dim = self.means.shape[1]

    def logpdf(self, X):
        comps = [math.log(m) + multivariate_normal(mu, C).logpdf(X)
                 for m, mu, C in zip(self.weights, self.means, self.covs)]
        return logsumexp(np.atleast_2d(np.array(comps).T), axis=1)

    def v0(self, Y, sigma):
        """integral k(x, y) pi(x) dx = omega sum_k m_k N(y; mu_k, C_k +
        sigma^2 I) with omega = (2 pi sigma^2)^(d/2)."""
        blur = sigma**2 * np.eye(self.dim)
        dens = sum(m * multivariate_normal(mu, C + blur).pdf(Y)
                   for m, mu, C in zip(self.weights, self.means, self.covs))
        return _omega(sigma, self.dim) * np.atleast_1d(dens)

    def c_pi(self, sigma):
        """Double integral of k(x, x') pi(x) pi(x')."""
        blur = sigma**2 * np.eye(self.dim)
        total = 0.0
        for ma, mua, Ca in zip(self.weights, self.means, self.covs):
            for mb, mub, Cb in zip(self.weights, self.means, self.covs):
                total += ma * mb * multivariate_normal(
                    mub, Ca + Cb + blur).pdf(mua)
        return _omega(sigma, self.dim) * total

    def sample(self, n, rng):
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for k in range(len(self.weights)):
            sel = comp == k
            out[sel] = rng.multivariate_normal(
                self.means[k], self.covs[k], size=int(sel.sum()))
        return out


def gmm5_aniso_2d():
    """Five modes on the circle of radius 8, variances 1.2 and 0.12."""
    covs = []
    for k in range(5):
        th = math.radians(72.0 * k)
        R = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        covs.append(R @ np.diag([1.2, 0.12]) @ R.T)
    ang = np.radians(90.0 + 72.0 * np.arange(5))
    return Gmm(np.full(5, 0.2),
               8.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1), covs)


def gmm_uniform(dim, seed):
    """Five N(mu_k, 0.5 I) components, means iid Uniform([0, 7.5]^d)."""
    means = np.random.default_rng(seed).uniform(0.0, 7.5, size=(5, dim))
    return Gmm(np.full(5, 0.2), means, [0.5 * np.eye(dim)] * 5)


class Funnel:
    """Neal's funnel: x1 ~ N(0, 9), x_j | x1 ~ N(0, exp(x1))."""

    def __init__(self, dim):
        self.dim = dim

    def logpdf(self, X):
        X = np.atleast_2d(X)
        x1 = X[:, 0]
        lp = -0.5 * math.log(2 * math.pi * 9.0) - x1**2 / 18.0
        for j in range(1, self.dim):
            lp = lp - 0.5 * (math.log(2 * math.pi) + x1) \
                - 0.5 * X[:, j] ** 2 * np.exp(-x1)
        return lp


def target_for(cfg):
    t = cfg.target
    if t["name"] == "gmm5-aniso-2d":
        return gmm5_aniso_2d()
    if t["name"] == "gmm":
        return gmm_uniform(t["dim"], t["seed"])
    if t["name"] == "funnel":
        return Funnel(t["dim"])
    raise ValueError(f"no independent target for {t['name']!r}")


# --------------------------------------------------------- kernel and weights


def _omega(sigma, d):
    return (2.0 * math.pi * sigma**2) ** (d / 2.0)


def se_gram(A, B, sigma):
    """exp(-|a - b|^2 / (2 sigma^2)) with direct-difference distances."""
    D = np.zeros((A.shape[0], B.shape[0]))
    for a in range(A.shape[1]):
        D += (A[:, a, None] - B[None, :, a]) ** 2
    return np.exp(-D / (2.0 * sigma**2))


def inner_nodes(cfg, seed, iteration):
    """(nodes, weights) of the inner rule the trial used at an iteration:
    the single node 0 for msip-f, Q standard-normal draws from the stream
    [seed, 1, iteration] with weights 1/Q for msip-gf."""
    d = cfg.target["dim"]
    name = cfg.algorithm["name"]
    if name == "msip-f":
        return np.zeros((1, d)), np.ones(1)
    if name == "msip-gf":
        Q = cfg.algorithm["params"]["Q"]
        nodes = np.random.default_rng([seed, 1, iteration]) \
            .standard_normal((Q, d))
        return nodes, np.full(Q, 1.0 / Q)
    raise ValueError(f"no independent estimator for {name!r}")


def v0_hat(target, Y, sigma, nodes, weights):
    """omega sum_q u_q pi(y + sigma xi_q), summed in log space."""
    M, d = Y.shape
    probes = (Y[:, None, :] + sigma * nodes[None, :, :]).reshape(-1, d)
    logp = target.logpdf(probes).reshape(M, len(weights))
    return _omega(sigma, d) * np.exp(logsumexp(logp, b=weights, axis=1))


def initial_particles(cfg, seed):
    """Y_0 of trial `seed`: init_mean + sqrt(scale) N(0, I) from [seed, 0]."""
    p = cfg.particles
    rng = np.random.default_rng([seed, 0])
    return np.asarray(p["init_mean"], float) + math.sqrt(
        p["init_cov_scale"]) * rng.standard_normal((p["M"], cfg.target["dim"]))


def weight_system(cfg, target, Y, seed, iteration):
    """(K + lambda I, v0_hat) at Y for the trial's estimator."""
    a = cfg.algorithm["params"]
    K = se_gram(Y, Y, a["sigma"]) + a["lam"] * np.eye(len(Y))
    return K, v0_hat(target, Y, a["sigma"],
                     *inner_nodes(cfg, seed, iteration))


def normalized(w):
    return np.asarray(w, float) / np.sum(w)


# ------------------------------------------------------------------- MMD^2


def gmm_mmd2(target, Y, w, sigma):
    """Closed form c_pi - 2 w.v0(Y) + w' K w, K without regularization."""
    return target.c_pi(sigma) - 2.0 * w @ target.v0(Y, sigma) \
        + w @ se_gram(Y, Y, sigma) @ w


def gmm_objective(target, Y, sigma, lam):
    """(c_pi - v0' (K + lambda I)^{-1} v0) / 2 with exact v0."""
    v0 = target.v0(Y, sigma)
    K = se_gram(Y, Y, sigma) + lam * np.eye(len(Y))
    return 0.5 * (target.c_pi(sigma) - v0 @ cho_solve(cho_factor(K), v0))


def self_mean(X, sigma):
    """(1/N^2) sum_nm k(x_n, x_m) over every pair, diagonal included,
    256 rows at a time."""
    total = 0.0
    for lo in range(0, len(X), 256):
        total += se_gram(X[lo:lo + 256], X, sigma).sum()
    return total / len(X) ** 2


def sample_mmd2(X, x_self, Y, w, sigma):
    """V-statistic x_self - (2/N) sum_n sum_i w_i k(x_n, y_i) + w' K w."""
    return x_self - 2.0 * se_gram(X, Y, sigma).mean(axis=0) @ w \
        + w @ se_gram(Y, Y, sigma) @ w


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ------------------------------------------------------------------- checks


def check_counters(cfg, result):
    """Rows at 0, every, 2 every, ... and T; density_evals = M Q (T + 1)."""
    T = cfg.algorithm["params"]["T"]
    every = cfg.metrics["every_n_iters"]
    rows = result.report.rows
    errors = []
    want = list(range(0, T, every)) + [T]
    got = [row["iteration"] for row in rows]
    if got != want:
        errors.append(f"rows at iterations {got}, expected {want}")
    q = len(inner_nodes(cfg, result.seed, T)[1])
    evals = cfg.particles["M"] * q * (T + 1)
    if rows and rows[-1]["density_evals"] != evals:
        errors.append(f"density_evals {rows[-1]['density_evals']}, "
                      f"expected M Q (T + 1) = {evals}")
    return errors


def check_weights(cfg, target, result):
    """The final weights solve (K + lambda I) w = v0_hat at Y_T."""
    K, v0 = weight_system(cfg, target, result.final.Y, result.seed,
                          cfg.algorithm["params"]["T"])
    res = np.linalg.norm(K @ result.final.w - v0) / np.linalg.norm(v0)
    if not res <= RESIDUAL_RTOL:
        return [f"final weights leave relative residual {res:.3g} "
                f"(limit {RESIDUAL_RTOL:g})"]
    return []


def check_gmm(cfg, target, result):
    """Reported MMD^2 against the closed form; objective falls from Y_0."""
    sigma = cfg.metrics["mmd_bandwidth"]
    Y, w = result.final.Y, result.final.w
    errors = []
    exact = gmm_mmd2(target, Y, normalized(w), sigma)
    reported = result.report.rows[-1]["mmd2"]
    if not _rel(exact, reported) <= MMD_RTOL:
        errors.append(f"final mmd2 {reported!r}, closed form {exact!r}")
    a = cfg.algorithm["params"]
    start = gmm_objective(target, initial_particles(cfg, result.seed),
                          a["sigma"], a["lam"])
    end = gmm_objective(target, Y, a["sigma"], a["lam"])
    if not end < start:
        errors.append(f"objective {end!r} at Y_T is not below {start!r} "
                      "at Y_0")
    return errors


def check_sample_mmd(cfg, target, result, X, x_self):
    """Reported sample MMD^2 against a direct V-statistic, and below the
    value of the initial rule."""
    sigma = cfg.metrics["mmd_bandwidth"]
    errors = []
    final = sample_mmd2(X, x_self, result.final.Y,
                        normalized(result.final.w), sigma)
    reported = result.report.rows[-1]["mmd2"]
    if not _rel(final, reported) <= MMD_RTOL:
        errors.append(f"final mmd2 {reported!r}, direct V-statistic "
                      f"{final!r}")
    Y0 = initial_particles(cfg, result.seed)
    K0, v0 = weight_system(cfg, target, Y0, result.seed, 0)
    w0 = cho_solve(cho_factor(K0), v0)
    start = sample_mmd2(X, x_self, Y0, normalized(w0), sigma)
    if not final < start:
        errors.append(f"final mmd2 {final!r} is not below {start!r} at Y_0")
    return errors


def check_offset_invariance(cfg, result, step=msip.dynamics.msip_step):
    """msip_step at Y_T ignores a +-40 shift of the log-density.

    Returns (errors, particles left out). A particle whose weight is
    frozen at one offset and not at the other is left out: msip_step
    freezes |w| < 1e-300, an absolute floor that the shift moves.
    """
    p = msip.harness.build_params(cfg, result.seed)
    t = msip.targets.make_benchmark(cfg.target["name"], cfg.target["dim"],
                                    cfg.target["seed"])
    T = cfg.algorithm["params"]["T"]
    Y = result.final.Y
    base, _, diag = step(Y, t, p, iteration=T, degenerate="freeze")
    errors = []
    left_out = 0
    for off in LOG_OFFSETS:
        moved, _, d = step(Y, t.with_offset(off), p, iteration=T,
                           degenerate="freeze")
        keep = np.ones(len(Y), bool)
        keep[list(set(diag["frozen"]) ^ set(d["frozen"]))] = False
        left_out += int((~keep).sum())
        gap = np.linalg.norm(moved[keep] - base[keep]) \
            / np.linalg.norm(base[keep])
        if not gap <= OFFSET_RTOL:
            errors.append(f"msip_step moves by {gap:.3g} relative when the "
                          f"log-density is offset by {off:+g}")
    return errors, left_out


def reference(cfg):
    """(X, mean of its kernel matrix) for a target without analytic
    embeddings: the harness's reference sample, seeded [base_seed, 3]."""
    t = msip.targets.make_benchmark(cfg.target["name"], cfg.target["dim"],
                                    cfg.target["seed"])
    X = msip.targets.reference_samples(
        t, cfg.metrics["reference_sample_size"],
        [cfg.trials["base_seed"], 3])
    return X, self_mean(X, cfg.metrics["mmd_bandwidth"])


def check_trial(cfg, target, result, ref=None):
    """Every check that applies to the trial; ref = reference(cfg) for a
    target without analytic embeddings. Returns (errors, particles the
    offset check left out)."""
    errors = check_counters(cfg, result) + check_weights(cfg, target, result)
    if ref is None:
        errors += check_gmm(cfg, target, result)
    else:
        errors += check_sample_mmd(cfg, target, result, *ref)
    offset_errors, left_out = check_offset_invariance(cfg, result)
    return errors + offset_errors, left_out


def check_repeat(first, again):
    """A repeated trial reproduces the first one bit for bit, wall time
    aside."""
    def rows(res):
        return [[repr(v) for k, v in row.items() if k != "wall_ms"]
                for row in res.report.rows]

    if (first.status == again.status and rows(first) == rows(again)
            and np.array_equal(first.final.Y, again.final.Y)
            and np.array_equal(first.final.w, again.final.w)):
        return []
    return ["a repeated trial did not reproduce the first bit for bit"]
