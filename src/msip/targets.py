"""Target densities: generic unnormalized targets, Gaussian mixtures with
analytic kernel embeddings, and the named benchmark fixtures.

Everything evaluates in batch: a point set is an (n, d) array and
log-densities/scores come back as (n,) / (n, d). Single points (d,) are
accepted and squeezed back.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from ._lapack import dpotrf, dtrtrs
from .errors import EstimatorUnavailableError
from .kernel import log_omega

_LOG_2PI = math.log(2.0 * math.pi)


# ------------------------------------------------------------ gaussian mixture


def _cholesky(C):
    """Lower Cholesky factor of the covariance C.

    This is the dpotrf call scipy's cholesky(C, lower=True) makes, so the
    factor has its bits and its Fortran layout, with the upper part
    zeroed.
    """
    L, info = dpotrf(np.asarray_chkfinite(C), lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the covariance is not positive "
            "definite"
        )
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return L


def _factorize(covs):
    """(chols, logdets) of the covariances: the stacked Cholesky factors,
    and logdets[k] = sum(log(diag(chols[k]))), half the log-determinant of
    covs[k], computed here once per factor set."""
    chols = np.stack([_cholesky(C) for C in covs])
    logdets = np.array([np.sum(np.log(np.diag(L))) for L in chols])
    return chols, logdets


@dataclass
class GmmTarget:
    """Mixture sum_k m_k N(mu_k, Sigma_k) with cached Cholesky factors.

    Weights need not sum to one; everything that must be scale-free
    (scores, responsibilities) is, and everything linear in the density
    (v0, v1) scales with sum(m). ``_factors`` is the (chols, logdets)
    pair of the covariances (see :func:`_factorize`).
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    _factors: tuple | None = field(default=None, repr=False)
    _blurred: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        ws, ms, cs = self.weights.shape, self.means.shape, self.covs.shape
        if len(ws) != 1:
            raise ValueError(f"mixture weights has shape {ws}, expected (k,)")
        if len(ms) != 2 or ms[0] != ws[0]:
            raise ValueError(f"mixture means has shape {ms}, expected "
                             f"({ws[0]}, d) from weights {ws}")
        if cs != (ws[0], ms[1], ms[1]):
            raise ValueError(f"mixture covs has shape {cs}, expected "
                             f"{(ws[0], ms[1], ms[1])} from weights {ws} "
                             f"and means {ms}")
        for name in ("weights", "means", "covs"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"mixture {name} must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("mixture weights must be positive")
        if self._factors is None:
            self._factors = _factorize(self.covs)

    @property
    def k(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def blurred_factors(self, sigma):
        """(chols, logdets) of Sigma_k + sigma^2 I, cached per sigma."""
        key = float(sigma)
        if key not in self._blurred:
            eye = np.eye(self.dim)
            self._blurred[key] = _factorize(
                [C + key**2 * eye for C in self.covs])
        return self._blurred[key]


def normalized(t):
    """Copy of t with weights scaled to unit sum."""
    return GmmTarget(
        weights=t.weights / t.weights.sum(),
        means=t.means,
        covs=t.covs,
        _factors=t._factors,
        _blurred=t._blurred,
    )


def _mixture(t, X, factors, score=False):
    """(log-density, score or None) of the mixture with factors at X.

    factors is the (chols, logdets) pair of the component covariances:
    t._factors for the target itself, t.blurred_factors(sigma) for its
    embedding. The score -sum_k r_k(x) C_k^{-1} (x - mu_k) reuses the
    whitening solves of the log-density. Each factor is in Fortran order,
    as dpotrf returns it and np.stack keeps it, and the triangular solves
    call dtrtrs on it with the arguments scipy's solve_triangular passes
    for such a factor, so they give its bits.
    """
    chols, logdets = factors
    lp = np.empty((X.shape[0], t.k))
    zs = []
    for k in range(t.k):
        z = dtrtrs(chols[k], (X - t.means[k]).T, lower=1)[0]
        zs.append(z)
        lp[:, k] = -0.5 * np.einsum("ij,ij->j", z, z) - logdets[k] \
            - 0.5 * t.dim * _LOG_2PI
    lp += np.log(t.weights)
    m = lp.max(axis=1, keepdims=True)
    e = np.exp(lp - m)
    s = e.sum(axis=1)
    logp = m[:, 0] + np.log(s)
    if not score:
        return logp, None
    resp = e / s[:, None]
    out = np.zeros_like(X)
    for k in range(t.k):
        w = dtrtrs(chols[k], zs[k], lower=1, trans=1)[0]
        out -= resp[:, k, None] * w.T
    return logp, out


def _as_batch(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"point has dim {x.shape[0]}, expected {dim}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected (n, {dim}) points, got shape {x.shape}")
    return x, False


def gmm_v0(t, y, sigma):
    """Exact embedding omega * integral kappa(x,y) pi(x) dx for a mixture.

    Equals Z_sigma * sum_k m_k N(y; mu_k, Sigma_k + sigma^2 I); linear in
    the (possibly unnormalized) mixture weights.
    """
    Y, single = _as_batch(y, t.dim)
    logp, _ = _mixture(t, Y, t.blurred_factors(sigma))
    v = np.exp(logp + log_omega(sigma, t.dim))
    return v[0] if single else v


def gmm_c_pi(t, sigma):
    """Squared RKHS norm of the mixture's kernel embedding.

    C_pi = Z_sigma sum_{k,l} m_k m_l N(mu_k; mu_l, Sigma_k + Sigma_l
    + sigma^2 I); quadratic in the mixture weights, so normalize first
    when a unit-mass value is wanted.

    The whitening solve is the transposed solve with L', which rounds as
    numpy's cholesky followed by scipy's solve_triangular does
    (tests/test_targets.py keeps that as the reference); the lower solve
    with L rounds differently from d = 2 on. Up to d = 4, and for diagonal
    covariances, dpotrf's factor has the bits of numpy's cholesky too;
    for a general covariance from d = 5 on, numpy's LAPACK build can round
    the factor differently in the last bit.
    """
    d = t.dim
    blur = sigma**2 * np.eye(d)
    total = 0.0
    for a in range(t.k):
        for b in range(t.k):
            L = _cholesky(t.covs[a] + t.covs[b] + blur)
            z = dtrtrs(L.T, t.means[a] - t.means[b], trans=1)[0]
            logn = -0.5 * (z @ z) - np.log(np.diag(L)).sum() \
                - 0.5 * d * _LOG_2PI
            total += t.weights[a] * t.weights[b] * math.exp(logn)
    return math.exp(log_omega(sigma, d)) * total


def gmm_v0_and_shift(t, y, sigma):
    """(v0, m) at y from one mixture pass: the exact embedding of gmm_v0
    and the mean-shift point m(y) = y + sigma^2 grad log v0(y), where
    grad log v0 is the responsibility-weighted
    -(Sigma_k + sigma^2 I)^{-1}(y - mu_k). So v1 = v0 m."""
    Y, single = _as_batch(y, t.dim)
    logp, score = _mixture(t, Y, t.blurred_factors(sigma), score=True)
    v = np.exp(logp + log_omega(sigma, t.dim))
    m = Y + sigma**2 * score
    return (v[0], m[0]) if single else (v, m)


# ------------------------------------------------------------- target wrapper


@dataclass
class TargetDensity:
    """Unnormalized log-density with optional score and analytic embeddings.

    ``base_log_density`` maps (n, d) points to (n,) log-densities and
    ``base_log_density_and_score``, when the target has a score, to the
    pair ((n,), (n, d)) from one evaluation. The methods accept (n, d) or
    a single (d,) point and squeeze the result back for a single point.
    ``log_scale_offset`` models an unknown normalization constant: it is
    added to every log-density evaluation and leaves scores untouched.
    """

    dim: int
    base_log_density: Callable
    base_log_density_and_score: Callable | None = None
    log_scale_offset: float = 0.0
    analytic: GmmTarget | None = None
    name: str = ""

    def log_density(self, x):
        X, single = _as_batch(x, self.dim)
        logp = self.base_log_density(X) + self.log_scale_offset
        return logp[0] if single else logp

    @property
    def has_score(self):
        return self.base_log_density_and_score is not None

    def log_density_and_score(self, x):
        """(log-density, score) at x from one evaluation of the target."""
        if self.base_log_density_and_score is None:
            raise EstimatorUnavailableError(
                f"target {self.name or '<anonymous>'} has no score"
            )
        X, single = _as_batch(x, self.dim)
        logp, score = self.base_log_density_and_score(X)
        logp = logp + self.log_scale_offset
        return (logp[0], score[0]) if single else (logp, score)

    def score(self, x):
        return self.log_density_and_score(x)[1]

    def with_offset(self, log_scale_offset):
        """Same target with a different normalization offset."""
        return replace(self, log_scale_offset=log_scale_offset)


def from_gmm(t, name="gmm"):
    """Wrap a GmmTarget as a TargetDensity with analytic embeddings."""
    return TargetDensity(
        dim=t.dim,
        base_log_density=lambda X: _mixture(t, X, t._factors)[0],
        base_log_density_and_score=lambda X: _mixture(t, X, t._factors,
                                                      score=True),
        analytic=t,
        name=name,
    )


# ------------------------------------------------------------------- fixtures


def _gmm5_aniso_2d():
    angles_mean = np.deg2rad(90.0 + 72.0 * np.arange(5))
    means = 8.0 * np.stack([np.cos(angles_mean), np.sin(angles_mean)], axis=1)
    covs = []
    for k in range(5):
        th = np.deg2rad(72.0 * k)
        c, s = np.cos(th), np.sin(th)
        R = np.array([[c, -s], [s, c]])
        covs.append(R @ np.diag([1.2, 0.12]) @ R.T)
    return GmmTarget(weights=np.full(5, 0.2), means=means,
                     covs=np.stack(covs))


def _gmm_uniform(dim, seed):
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 7.5, size=(5, dim))
    covs = np.broadcast_to(0.5 * np.eye(dim), (5, dim, dim)).copy()
    return GmmTarget(weights=np.full(5, 0.2), means=means, covs=covs)


def _funnel_logp(X):
    x1, rest = X[:, 0], X[:, 1:]
    return -0.5 * (math.log(2.0 * math.pi * 9.0) + x1**2 / 9.0) - 0.5 * (
        rest.shape[1] * (_LOG_2PI + x1)
        + np.einsum("ij,ij->i", rest, rest) * np.exp(-x1))


def _funnel_logp_and_score(X):
    """_funnel_logp(X) and its gradient, from one sq and exp(-x1)."""
    x1, rest = X[:, 0], X[:, 1:]
    d_rest = rest.shape[1]
    sq = np.einsum("ij,ij->i", rest, rest)
    e = np.exp(-x1)
    out = np.empty_like(X)
    out[:, 0] = -x1 / 9.0 - 0.5 * (d_rest - sq * e)
    out[:, 1:] = -rest * e[:, None]
    return (-0.5 * (math.log(2.0 * math.pi * 9.0) + x1**2 / 9.0)
            - 0.5 * (d_rest * (_LOG_2PI + x1) + sq * e)), out


def _himmelblau_logp(X):
    a = X[:, 0] ** 2 + X[:, 1] - 11.0
    b = X[:, 0] + X[:, 1] ** 2 - 7.0
    return -(a**2) - b**2


def _himmelblau_logp_and_score(X):
    a = X[:, 0] ** 2 + X[:, 1] - 11.0
    b = X[:, 0] + X[:, 1] ** 2 - 7.0
    out = np.empty_like(X)
    out[:, 0] = -4.0 * X[:, 0] * a - 2.0 * b
    out[:, 1] = -2.0 * a - 4.0 * X[:, 1] * b
    return -(a**2) - b**2, out


BENCHMARK_NAMES = ("gmm", "gmm5-aniso-2d", "funnel", "himmelblau")


def make_benchmark(name, dim, seed=0):
    """Construct a named benchmark target.

    gmm: five components N(mu_k, 0.5 I_d), means iid Uniform([0, 7.5]^d)
    from the seed. gmm5-aniso-2d: the fixed anisotropic five-mode 2-D
    mixture. funnel: Neal's funnel with N(0, 9) first coordinate.
    himmelblau: log density minus the Himmelblau polynomial.
    """
    if name == "gmm":
        return from_gmm(_gmm_uniform(dim, seed), name="gmm")
    if name == "gmm5-aniso-2d":
        if dim != 2:
            raise ValueError("gmm5-aniso-2d is two-dimensional")
        return from_gmm(_gmm5_aniso_2d(), name="gmm5-aniso-2d")
    if name == "funnel":
        if dim < 2:
            raise ValueError("funnel requires dim >= 2")
        return TargetDensity(
            dim=dim,
            base_log_density=_funnel_logp,
            base_log_density_and_score=_funnel_logp_and_score,
            name="funnel",
        )
    if name == "himmelblau":
        if dim != 2:
            raise ValueError("himmelblau is two-dimensional")
        return TargetDensity(
            dim=2,
            base_log_density=_himmelblau_logp,
            base_log_density_and_score=_himmelblau_logp_and_score,
            name="himmelblau",
        )
    raise ValueError(
        f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}"
    )


# ---------------------------------------------------------- reference samples


def reference_samples(target, n, seed):
    """Seeded ground-truth-ish samples for metric baselines.

    Exact for mixtures and the funnel; Himmelblau uses importance
    resampling on a fine grid with in-cell jitter.
    """
    rng = np.random.default_rng(seed)
    if target.analytic is not None:
        t = target.analytic
        probs = t.weights / t.weights.sum()
        comp = rng.choice(t.k, size=n, p=probs)
        z = rng.standard_normal((n, t.dim))
        out = np.empty((n, t.dim))
        chols = t._factors[0]
        for k in range(t.k):
            sel = comp == k
            out[sel] = t.means[k] + z[sel] @ chols[k].T
        return out
    if target.name == "funnel":
        x1 = 3.0 * rng.standard_normal(n)
        rest = rng.standard_normal((n, target.dim - 1)) \
            * np.exp(0.5 * x1)[:, None]
        return np.concatenate([x1[:, None], rest], axis=1)
    if target.name == "himmelblau":
        g = 1000
        lo, hi = -6.0, 6.0
        ax = np.linspace(lo, hi, g)
        XX, YY = np.meshgrid(ax, ax, indexing="ij")
        P = np.stack([XX.ravel(), YY.ravel()], axis=1)
        lp = target.log_density(P)
        p = np.exp(lp - lp.max())
        p /= p.sum()
        idx = rng.choice(P.shape[0], size=n, p=p)
        h = (hi - lo) / (g - 1)
        return P[idx] + rng.uniform(-0.5 * h, 0.5 * h, size=(n, 2))
    raise ValueError(f"no reference sampler for target {target.name!r}")
