"""The regularized mean-shift interacting particle (MSIP) iteration.

One step maps a configuration Y through Psi(Y) = W^{-1} K_lambda^{-1} v1(Y)
with W = diag(K_lambda^{-1} v0(Y)), damped by eta and clamped to an
optional bounds box. ``msip_step`` is the one implementation of the map:
with eta = 1 and no bounds it returns Psi(Y) itself. ``_weights`` is the
one place where the system of a configuration is formed: it estimates the
embeddings, assembles the Gram matrix and solves K_lambda w = v0 and
K_lambda Z = v1 in one ``kernel.solve``, for the step and for the final
weights of a run alike. ``run_msip`` forms them all in one workspace
(``kernel.workspace``): the Gram matrix and its Cholesky factor are
written into the same two M x M arrays at every step, rather than
allocated and freed per step. Weights that underflow the representable
range mark a particle degenerate: the map refuses to move it (the runner
freezes it for the iteration and continues, reporting the frozen
indices).

``iterate`` is the one run loop of the library: run_msip here and the
SVGD and CBS runners in ``baselines`` each pass it their step.

At small M a step costs numpy and LAPACK calls more than arithmetic. At
M = 25 with msip-gf on the 2-D funnel (Q = 10, one BLAS thread) a step
takes about 0.11 ms: about 12 us to seed the iteration's inner rule,
35 us for the embeddings with their one target call, 15 us for the
Gram matrix, 16 us for the solve (one dpotrf, two dpotrs and the
residual) and 30 us for the step's own calls (``BENCH_small_m.json``).
So the step tests w, Psi and Y_next whole, and searches for the
failing rows, freezes or raises only when such a test fails.

The penalized objective and its exact gradient are available for targets
with analytic embeddings (Gaussian mixtures); ``_weights`` forms their
system too, with the analytic estimator on the mixture normalized to unit
mass.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import kernel as kern
from .embeddings import ESTIMATORS, estimate_embeddings, mc_inner_quadrature
from .errors import (
    AnalyticUnavailableError,
    DegenerateWeightError,
    DivergedRunError,
    NonFiniteDensityError,
)
from .kernel import KernelSpec
from .targets import from_gmm, gmm_c_pi, normalized

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
    gamma: float = 0.5
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
    """The seeded Q x d inner nodes of one iteration; None where the
    estimator reads no nodes (fredholm uses the one node xi = 0)."""
    if p.estimator in ("fredholm", "analytic"):
        return None
    return mc_inner_quadrature(p.Q, d, [p.seed, 1, iteration])


def _weights(Y, t, p, iteration, work=None):
    """(w, Z, est): the solutions of K_lambda w = v0 and K_lambda Z = v1 at
    Y, from one ``kernel.solve`` of both blocks, and the embedding estimate
    they read. The Gram matrix and its factor go into work, a
    ``kernel.workspace(M)`` pair, when one is given; w and Z never live
    there."""
    est = estimate_embeddings(t, Y, p.kernel.sigma,
                              _inner_rule(p, Y.shape[1], iteration),
                              p.estimator, gamma=p.gamma)
    G, L = (None, None) if work is None else work
    w, Z = kern.solve(kern.gram(Y, p.kernel, out=G), est.v0_hat, est.v1_hat,
                      factor=L)
    return w, Z, est


def msip_step(Y, t, p, iteration=0, degenerate="raise", work=None):
    """One damped update (1 - eta) Y + eta Psi(Y), then bounds clamp.

    Psi(Y) divides row i of Z by w_i, with w and Z from ``_weights``; with
    eta = 1 and no bounds the step returns Psi(Y), as 0 * Y + 1 * Psi(Y)
    adds no rounding. Returns (Y_next, w, diagnostics). A particle whose
    |w_i| underflows WEIGHT_FLOOR is degenerate: degenerate="raise"
    raises DegenerateWeightError naming such particles,
    degenerate="freeze" keeps them in place for this iteration and
    reports their indices in the diagnostics. A non-finite Psi raises
    DivergedRunError, and a non-finite log-density at a probe point
    NonFiniteDensityError; all three name the iteration. The clamp to
    the bounds box [lo, hi] is np.clip's bit for bit, except that a zero
    bound replaces a zero of the other sign. The Gram system is
    assembled and factored in work, a ``kernel.workspace(M)`` pair, when
    one is given, and in new arrays otherwise.
    """
    Y = np.asarray(Y, dtype=float)
    try:
        w, Z, est = _weights(Y, t, p, iteration, work)
    except NonFiniteDensityError as exc:
        raise NonFiniteDensityError(exc.particles, iteration) from None
    frozen = np.abs(w) < WEIGHT_FLOOR
    if frozen.any():
        frozen = np.flatnonzero(frozen).tolist()
        if degenerate == "raise":
            raise DegenerateWeightError(frozen, iteration)
        w_safe = w.copy()
        w_safe[frozen] = 1.0
    else:
        frozen, w_safe = [], w
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        psi = Z / w_safe[:, None]
    if frozen:
        psi[frozen] = Y[frozen]
    # checked before the bounds clamp, which would make an infinite map
    # output finite
    if not np.isfinite(psi).all():
        raise DivergedRunError(
            f"non-finite map output for particle(s) {_bad_rows(psi)} at "
            f"iteration {iteration}"
        )
    Y_next = (1.0 - p.eta) * Y
    psi *= p.eta
    Y_next += psi
    if p.bounds is not None:
        np.maximum(Y_next, p.bounds[0], out=Y_next)
        np.minimum(Y_next, p.bounds[1], out=Y_next)
    diagnostics = {
        "frozen": frozen,
        "density_evals": est.density_evals,
        "score_evals": est.score_evals,
    }
    return Y_next, w, diagnostics


def _bad_rows(Y):
    """The indices of the rows of Y holding a non-finite entry."""
    return np.flatnonzero(~np.isfinite(Y).all(axis=1)).tolist()


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
    if not np.isfinite(Y).all():
        raise ValueError("initial configuration must be finite")
    for it in range(T):
        Y_next, w, diag = step(Y, it)
        for cb in callbacks:
            cb(it, Y, w, diag)
        if not np.isfinite(Y_next).all():
            raise DivergedRunError(
                f"non-finite update for particle(s) {_bad_rows(Y_next)} at "
                f"iteration {it}"
            )
        Y = Y_next
    return Y


def run_msip(t, p, Y0, callbacks=(), work=None):
    """Iterate msip_step T times from Y0 with ``iterate``.

    Callbacks see the weights step it solved at Y_it, and diagnostics
    holding the indices of the particles it froze and its density and
    score evaluations. Degenerate weights freeze the affected particle
    for the iteration and the run continues; a non-finite map raises
    DivergedRunError. Returns (final, diag): the ParticleConfiguration
    at Y_T with weights re-solved there, and the density and score
    evaluations of that solve.

    Every step and the final solve assemble and factor their Gram system
    in one workspace: work, a ``kernel.workspace(M)`` pair, or one
    allocated here. Callbacks run between steps, when the workspace holds
    nothing a step still reads, so they may borrow it. Allocated once,
    its pages stay mapped; arrays allocated and freed per step are
    faulted in again at every step (``kernel``).
    """
    if work is None:
        work = kern.workspace(len(Y0))

    def step(Y, it):
        return msip_step(Y, t, p, iteration=it, degenerate="freeze",
                         work=work)

    Y = iterate(step, Y0, p.T, callbacks)
    w, _, est = _weights(Y, t, p, p.T, work)
    # w is a column of the stacked solution [w | Z]; a copy keeps the
    # result, which callers hold on to, from holding Z as well
    return ParticleConfiguration(Y=Y, w=w.copy()), {
        "density_evals": est.density_evals,
        "score_evals": est.score_evals,
    }


# ----------------------------------------------------- objective and gradient


def _analytic(t, p):
    """(tn, pa): the mixture of t normalized to unit mass, as a target,
    and p with the analytic estimator, which reads its exact embeddings."""
    if t.analytic is None:
        raise AnalyticUnavailableError(
            f"the objective needs analytic embeddings; target {t.name!r} "
            "has none"
        )
    return from_gmm(normalized(t.analytic)), replace(p, estimator="analytic")


def objective(Y, t, p):
    """Penalized squared-MMD objective F(Y) = (C_pi - <w_lambda, v0>) / 2.

    Needs analytic embeddings; the mixture is normalized to unit mass
    internally so values are comparable with the evaluation metrics.
    """
    tn, pa = _analytic(t, p)
    w, _, est = _weights(np.asarray(Y, dtype=float), tn, pa, 0)
    return 0.5 * (gmm_c_pi(tn.analytic, p.kernel.sigma)
                  - float(w @ est.v0_hat))


def objective_gradient(Y, t, p):
    """Exact gradient sigma^{-2} W (K_lambda W Y - v1) with analytic v0, v1."""
    Y = np.asarray(Y, dtype=float)
    work = kern.workspace(len(Y))
    w, _, est = _weights(Y, *_analytic(t, p), 0, work)
    G = work[0]  # the Gram matrix the weights were solved with
    return (w[:, None] * (G @ (w[:, None] * Y) - est.v1_hat)) \
        / p.kernel.sigma**2
