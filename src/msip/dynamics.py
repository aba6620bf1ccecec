"""The regularized mean-shift interacting particle (MSIP) iteration.

One step maps a configuration Y through Psi(Y) = W^{-1} K_lambda^{-1} v1(Y)
with W = diag(K_lambda^{-1} v0(Y)), damped by eta and clamped to an
optional bounds box. ``msip_step`` is the one implementation of the map:
with eta = 1 and no bounds it returns Psi(Y) itself, and the weights
come from ``kernel.solve``, the one weight solve. Weights that underflow
the representable range mark a particle degenerate: the map refuses to
move it (the runner freezes it for the iteration and continues, reporting
the frozen indices).

``iterate`` is the one run loop of the library: run_msip here and the
SVGD and CBS runners in ``baselines`` each pass it their step.

The penalized objective and its exact gradient are available for targets
with analytic embeddings (Gaussian mixtures).
"""

from dataclasses import dataclass

import numpy as np

from . import kernel as kern
from .embeddings import ESTIMATORS, estimate_embeddings, mc_inner_quadrature
from .errors import (
    AnalyticUnavailableError,
    DegenerateWeightError,
    DivergedRunError,
)
from .kernel import KernelSpec
from .targets import gmm_c_pi, gmm_grad_log_v0, gmm_v0, normalized

# Only exact underflow is treated as degenerate; tiny representable weights
# participate normally (their divisions may launch particles far out, which
# the bounds clamp projects back onto the box).
WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class MsipParams:
    """Hyperparameters of the damped MSIP iteration."""

    kernel: KernelSpec
    eta: float = 0.5
    T: int = 1000
    estimator: str = "fredholm"
    Q: int = 10
    gamma: float = 1.0
    bounds: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if self.T < 1:
            raise ValueError(f"T must be at least 1, got {self.T}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected {ESTIMATORS}"
            )
        if self.Q < 1:
            raise ValueError(f"Q must be at least 1, got {self.Q}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not lo < hi:
                raise ValueError(f"bounds must satisfy lo < hi, got {self.bounds}")


@dataclass
class ParticleConfiguration:
    """Quadrature nodes Y (M x d) and signed weights w (M,)."""

    Y: np.ndarray
    w: np.ndarray


def _inner_rule(p, d, iteration):
    """The seeded inner rule of one iteration; None where the estimator
    reads no rule (fredholm uses the one-point rule)."""
    if p.estimator in ("fredholm", "analytic"):
        return None
    return mc_inner_quadrature(p.Q, d, [p.seed, 1, iteration])


def msip_step(Y, t, p, iteration=0, degenerate="raise"):
    """One damped update (1 - eta) Y + eta Psi(Y), then bounds clamp.

    Psi(Y) solves K_lambda w = v0 and K_lambda Z = v1 (one
    ``kernel.solve`` of both blocks) and divides row i of Z by w_i; with
    eta = 1 and no bounds the step returns Psi(Y), as 0 * Y + 1 * Psi(Y)
    adds no rounding. Returns (Y_next, w, diagnostics). A particle whose
    |w_i| underflows WEIGHT_FLOOR is degenerate: degenerate="raise"
    raises DegenerateWeightError naming such particles,
    degenerate="freeze" keeps them in place for this iteration and
    reports their indices in the diagnostics. A non-finite Psi raises
    DivergedRunError.
    """
    Y = np.asarray(Y, dtype=float)
    est = estimate_embeddings(t, Y, p.kernel.sigma,
                              _inner_rule(p, Y.shape[1], iteration),
                              p.estimator, gamma=p.gamma)
    G = kern.gram(Y, p.kernel)
    w, Z = kern.solve(G, est.v0_hat, est.v1_hat)
    frozen = np.abs(w) < WEIGHT_FLOOR
    if frozen.any() and degenerate == "raise":
        raise DegenerateWeightError(np.nonzero(frozen)[0].tolist())
    wsafe = np.where(frozen, 1.0, w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        psi = Z / wsafe[:, None]
    if frozen.any():
        psi[frozen] = Y[frozen]
    # checked before the bounds clip, which would make an infinite map
    # output finite
    bad = ~np.isfinite(psi).all(axis=1)
    if bad.any():
        raise DivergedRunError(
            f"non-finite map output for particle(s) "
            f"{np.nonzero(bad)[0].tolist()} at iteration {iteration}"
        )
    Y_next = (1.0 - p.eta) * Y + p.eta * psi
    if p.bounds is not None:
        np.clip(Y_next, p.bounds[0], p.bounds[1], out=Y_next)
    diagnostics = {
        "frozen": np.nonzero(frozen)[0].tolist(),
        "density_evals": est.density_evals,
        "score_evals": est.score_evals,
    }
    return Y_next, w, diagnostics


def iterate(step, Y0, T, callbacks=()):
    """Run an interacting particle system T steps from Y0; returns Y_T.

    Iteration it calls step(Y_it, it), which returns (Y_next, w_it,
    diag_it), then calls each callback as cb(it, Y_it, w_it, diag_it):
    w_it are the weights the step solved at Y_it (None for a sampler with
    uniform weights) and diag_it is the step's dict of diagnostics. After
    the callbacks, a non-finite Y_next raises DivergedRunError naming the
    particles and the iteration, so the callbacks of the last iteration
    see its Y_it. An error the step raises itself propagates before the
    callbacks of its iteration. A non-finite Y0 raises ValueError.
    """
    Y = np.array(Y0, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise ValueError("initial configuration must be finite")
    for it in range(T):
        Y_next, w, diag = step(Y, it)
        for cb in callbacks:
            cb(it, Y, w, diag)
        bad = ~np.isfinite(Y_next).all(axis=1)
        if bad.any():
            raise DivergedRunError(
                f"non-finite update for particle(s) "
                f"{np.nonzero(bad)[0].tolist()} at iteration {it}"
            )
        Y = Y_next
    return Y


def run_msip(t, p, Y0, callbacks=()):
    """Iterate msip_step T times from Y0 with ``iterate``.

    Callbacks see the weights step it solved at Y_it, and diagnostics
    holding the indices of the particles it froze and its density and
    score evaluations. Degenerate weights freeze the affected particle
    for the iteration and the run continues; a non-finite map raises
    DivergedRunError. Returns (final, diag): the ParticleConfiguration
    at Y_T with weights re-solved there, and the density and score
    evaluations of that solve.
    """
    def step(Y, it):
        return msip_step(Y, t, p, iteration=it, degenerate="freeze")

    Y = iterate(step, Y0, p.T, callbacks)
    est = estimate_embeddings(t, Y, p.kernel.sigma,
                              _inner_rule(p, Y.shape[1], p.T),
                              p.estimator, gamma=p.gamma)
    w = kern.solve(kern.gram(Y, p.kernel), est.v0_hat)
    return ParticleConfiguration(Y=Y, w=w), {
        "density_evals": est.density_evals,
        "score_evals": est.score_evals,
    }


# ----------------------------------------------------- objective and gradient


def objective(Y, t, p):
    """Penalized squared-MMD objective F(Y) = (C_pi - <w_lambda, v0>) / 2.

    Needs analytic embeddings; the mixture is normalized to unit mass
    internally so values are comparable with the evaluation metrics.
    """
    Y = np.asarray(Y, dtype=float)
    if t.analytic is None:
        raise AnalyticUnavailableError(
            f"objective needs analytic embeddings; target {t.name!r} "
            "has none"
        )
    tn = normalized(t.analytic)
    sigma = p.kernel.sigma
    v0 = gmm_v0(tn, Y, sigma)
    w = kern.solve(kern.gram(Y, p.kernel), v0)
    return 0.5 * (gmm_c_pi(tn, sigma) - float(w @ v0))


def objective_gradient(Y, t, p):
    """Exact gradient sigma^{-2} W (K_lambda W Y - v1) with analytic v0, v1."""
    Y = np.asarray(Y, dtype=float)
    if t.analytic is None:
        raise AnalyticUnavailableError(
            f"objective gradient needs analytic embeddings; target "
            f"{t.name!r} has none"
        )
    tn = normalized(t.analytic)
    sigma = p.kernel.sigma
    v0 = gmm_v0(tn, Y, sigma)
    v1 = v0[:, None] * (Y + sigma**2 * gmm_grad_log_v0(tn, Y, sigma))
    G = kern.gram(Y, p.kernel)
    w = kern.solve(G, v0)
    WY = w[:, None] * Y
    return (w[:, None] * (G.entries @ WY - v1)) / sigma**2
