"""The regularized mean-shift interacting particle (MSIP) iteration.

One step maps a configuration Y through Psi(Y) = W^{-1} K_lambda^{-1} v1(Y)
with W = diag(K_lambda^{-1} v0(Y)), damped by eta and clamped to an
optional bounds box. Weights that underflow the representable range mark a
particle degenerate: the map refuses to move it (the runner freezes it for
the iteration and continues, recording the event).

The penalized objective and its exact gradient are available for targets
with analytic embeddings (Gaussian mixtures).
"""

from dataclasses import dataclass, field

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


@dataclass
class Trajectory:
    """Per-iteration diagnostics collected by run_msip."""

    steps: list = field(default_factory=list)
    positions: list | None = None
    density_evals: int = 0
    score_evals: int = 0
    status: str = "ok"


def _inner_rule(p, d, iteration):
    """The seeded inner rule of one iteration; None where the estimator
    reads no rule (fredholm uses the one-point rule)."""
    if p.estimator in ("fredholm", "analytic"):
        return None
    return mc_inner_quadrature(p.Q, d, [p.seed, 1, iteration])


def optimal_weights(G, v0_hat):
    """Regularized quadrature weights w = (K + lambda I)^{-1} v0."""
    return kern.solve(G, np.asarray(v0_hat, dtype=float))


def _map_parts(Y, t, p, iteration, degenerate):
    est = estimate_embeddings(t, Y, p.kernel.sigma,
                              _inner_rule(p, Y.shape[1], iteration),
                              p.estimator, gamma=p.gamma)
    G = kern.gram(Y, p.kernel)
    w = optimal_weights(G, est.v0_hat)
    frozen = np.abs(w) < WEIGHT_FLOOR
    if frozen.any() and degenerate == "raise":
        raise DegenerateWeightError(np.nonzero(frozen)[0].tolist())
    Z = kern.solve(G, est.v1_hat)
    wsafe = np.where(frozen, 1.0, w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        psi = Z / wsafe[:, None]
    if frozen.any():
        psi[frozen] = Y[frozen]
    bad = ~np.isfinite(psi)
    if bad.any():
        rows = np.unique(np.nonzero(bad)[0]).tolist()
        raise DivergedRunError(
            f"non-finite map output for particle(s) {rows} "
            f"at iteration {iteration}"
        )
    return psi, w, frozen, est


def msip_map(Y, t, p, iteration=0):
    """Psi(Y): solve K_lambda Z = v1, divide row i by w_i.

    Raises a degenerate-weight error naming the offending particles when
    any |w_i| underflows; callers choose the policy (see run_msip).
    """
    Y = np.asarray(Y, dtype=float)
    psi, _, _, _ = _map_parts(Y, t, p, iteration, degenerate="raise")
    return psi


def msip_step(Y, t, p, iteration=0, degenerate="raise"):
    """One damped update (1 - eta) Y + eta Psi(Y), then bounds clamp.

    degenerate="freeze" keeps underflowed particles in place for this
    iteration instead of raising; the frozen index set is reported in the
    diagnostics.
    """
    Y = np.asarray(Y, dtype=float)
    psi, w, frozen, est = _map_parts(Y, t, p, iteration, degenerate)
    Y_next = (1.0 - p.eta) * Y + p.eta * psi
    if p.bounds is not None:
        np.clip(Y_next, p.bounds[0], p.bounds[1], out=Y_next)
    diagnostics = {
        "v0_hat": est.v0_hat,
        "w": w,
        "frozen": np.nonzero(frozen)[0].tolist(),
        "density_evals": est.density_evals,
        "score_evals": est.score_evals,
    }
    return Y_next, w, diagnostics


def run_msip(t, p, Y0, callbacks=None, store_positions=False):
    """Iterate msip_step T times from Y0.

    Each callback is called as cb(it, Y_it, w_it, diag_it) for it = 0 ...
    T-1, right after step it returns: w_it are the weights that step solved
    at Y_it, and diag_it its diagnostics (frozen indices and the density
    and score evaluations of that step).

    Degenerate weights freeze the affected particle for the iteration and
    the run continues (status degenerate-weights-occurred). A non-finite
    map aborts with a diverged-run error carrying the partial trajectory.
    Returns (trajectory, final ParticleConfiguration) with final weights
    re-solved at Y_T.
    """
    Y = np.array(Y0, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise ValueError("initial configuration must be finite")
    traj = Trajectory(positions=[Y.copy()] if store_positions else None)
    w = None
    for it in range(p.T):
        try:
            Y_next, w, diag = msip_step(Y, t, p, iteration=it,
                                        degenerate="freeze")
        except DivergedRunError as exc:
            traj.status = "diverged"
            exc.trajectory = traj
            raise
        traj.density_evals += diag["density_evals"]
        traj.score_evals += diag["score_evals"]
        if diag["frozen"]:
            traj.status = "degenerate-weights-occurred"
        traj.steps.append({"iteration": it, "w": w, "frozen": diag["frozen"]})
        if callbacks:
            for cb in callbacks:
                cb(it, Y, w, diag)
        if store_positions:
            traj.positions.append(Y_next.copy())
        Y = Y_next
    # final weights at the last configuration
    est = estimate_embeddings(t, Y, p.kernel.sigma,
                              _inner_rule(p, Y.shape[1], p.T),
                              p.estimator, gamma=p.gamma)
    traj.density_evals += est.density_evals
    traj.score_evals += est.score_evals
    w = optimal_weights(kern.gram(Y, p.kernel), est.v0_hat)
    return traj, ParticleConfiguration(Y=Y, w=w)


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
    w = optimal_weights(kern.gram(Y, p.kernel), v0)
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
    w = optimal_weights(G, v0)
    WY = w[:, None] * Y
    return (w[:, None] * (G.entries @ WY - v1)) / sigma**2
