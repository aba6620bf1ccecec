"""Executable acceptance checks for the library's central claims.

Each criterion is a function returning a CriterionResult with a pass
flag, a human-readable detail line, and its runtime. The `msip bench`
subcommand runs the full list; the test suite asserts each criterion
individually. Every check has a stated wall-clock budget that is part of
the pass condition.
"""

import functools
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernel as kern
from ._backend import imq_stein_gram
from .dynamics import (
    MsipParams,
    msip_step,
    objective,
    objective_gradient,
)
from .embeddings import estimate_embeddings, mc_inner_quadrature
from .harness import parse_config, run_experiment, write_outputs
from .kernel import KernelSpec, log_omega
from .metrics import IMQ_BETA, IMQ_C2, SampleMmd, mmd2_vs_gmm
from .targets import (
    GmmTarget,
    from_gmm,
    gmm_v0,
    gmm_v0_and_shift,
    make_benchmark,
    reference_samples,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float


def _finish(number, name, budget, started, ok, detail):
    elapsed = time.perf_counter() - started
    passed = bool(ok) and elapsed <= budget
    if elapsed > budget:
        detail += f"; exceeded {budget:.0f}s budget"
    return CriterionResult(number, name, passed, detail, elapsed, budget)


# ------------------------------------------------------ 1: exact gradient

# The gradient check's settings and pass line; `msip grad-check` reads them
GRAD_CHECK_CONFIGS = 20
GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_SEED = 2026
GRAD_CHECK_TOL = 1e-5


def gradient_check(target, M=8, sigma=0.5, lam=1e-6, seed=GRAD_CHECK_SEED):
    """Max relative Frobenius error of the analytic objective gradient
    against central finite differences over random configurations.

    Configurations are jittered draws from the target itself so every
    particle sits where the objective varies at finite-difference scale;
    far outside the support the true gradient underflows below the
    roundoff floor of the difference quotient and the comparison would
    measure arithmetic noise instead of the formula.
    """
    p = MsipParams(kernel=KernelSpec(sigma, lam), estimator="analytic")
    rng = np.random.default_rng(seed)
    step = GRAD_CHECK_STEP
    worst = 0.0
    for c in range(GRAD_CHECK_CONFIGS):
        Y = reference_samples(target, M, [seed, c]) \
            + 0.5 * rng.standard_normal((M, target.dim))
        G = objective_gradient(Y, target, p)
        fd = np.empty_like(G)
        for i, j in np.ndindex(Y.shape):
            E = np.zeros_like(Y)
            E[i, j] = step
            fd[i, j] = (objective(Y + E, target, p)
                        - objective(Y - E, target, p)) / (2.0 * step)
        denom = max(float(np.linalg.norm(G)), 1e-30)
        worst = max(worst, float(np.linalg.norm(fd - G)) / denom)
    return worst


def criterion_1():
    started = time.perf_counter()
    target = make_benchmark("gmm5-aniso-2d", 2)
    worst = gradient_check(target)
    return _finish(
        1, "gradient-exactness", 10.0, started, worst <= GRAD_CHECK_TOL,
        f"max relative Frobenius error {worst:.3g} over {GRAD_CHECK_CONFIGS} "
        f"random configurations (tolerance {GRAD_CHECK_TOL:g})",
    )


# --------------------------------------- 2: normalization invariance of map

# The invariance check's settings and pass line; `msip invariance` reads them
INVARIANCE_OFFSETS = (-40.0, 40.0)
INVARIANCE_M = 12
INVARIANCE_SEED = 101
INVARIANCE_TOL = 1e-10


def invariance_suite():
    """Max relative change of the particle map under constant shifts of
    the unnormalized log-density, across all estimator variants."""
    variants = [
        ("fredholm", 1, 1.0),
        ("stein", 1, 1.0),
        ("stein", 10, 1.0),
        ("gf", 10, 1.0),
        ("hybrid", 10, 0.5),
    ]
    cases = [
        (make_benchmark("gmm", 2, seed=0), 0.5, np.array([4.0, 4.0]), 2.0),
        (make_benchmark("funnel", 2), 0.1, np.zeros(2), 1.0),
    ]
    rng = np.random.default_rng(INVARIANCE_SEED)
    worst = 0.0
    for target, sigma, center, spread in cases:
        Y = center + spread * rng.standard_normal((INVARIANCE_M, target.dim))
        for est, q, gamma in variants:
            # eta = 1 without bounds: the step is the map Psi itself
            p = MsipParams(kernel=KernelSpec(sigma, 1e-6), eta=1.0,
                           estimator=est, Q=q, gamma=gamma,
                           seed=INVARIANCE_SEED)
            base = msip_step(Y, target, p)[0]
            scale = max(float(np.linalg.norm(base)), 1e-30)
            for off in INVARIANCE_OFFSETS:
                shifted = msip_step(Y, target.with_offset(off), p)[0]
                worst = max(
                    worst, float(np.linalg.norm(shifted - base)) / scale
                )
    return worst


def criterion_2():
    started = time.perf_counter()
    worst = invariance_suite()
    return _finish(
        2, "normalization-invariance", 10.0, started, worst <= INVARIANCE_TOL,
        f"max relative map deviation {worst:.3g} under log-density offsets "
        f"of +/-{INVARIANCE_OFFSETS[1]:g} (tolerance {INVARIANCE_TOL:g})",
    )


# ------------------------------------------- 3: Monte Carlo estimator match


def criterion_3():
    started = time.perf_counter()
    target = make_benchmark("gmm", 2, seed=0)
    t = target.analytic
    sigma = 0.5
    q = 10_000
    rng = np.random.default_rng(314)
    probes = rng.uniform(0.0, 7.5, size=(20, 2))
    nodes = mc_inner_quadrature(q, 2, [314, 1, 0])
    omega = math.exp(log_omega(sigma, 2))

    est_gf = estimate_embeddings(target, probes, sigma, nodes, "gf")
    est_st = estimate_embeddings(target, probes, sigma, nodes, "stein")
    v0_exact, ratio_exact = gmm_v0_and_shift(t, probes, sigma)

    flat = (probes[:, None, :] + sigma * nodes[None, :, :]).reshape(-1, 2)
    dens = np.exp(target.log_density(flat)).reshape(20, q)
    scores = target.score(flat).reshape(20, q, 2)

    ok = True
    worst_z = 0.0
    glue = 0.0  # library estimates must match this direct recomputation
    for i in range(20):
        b = dens[i]
        v0_hat = omega * b.mean()
        glue = max(glue, abs(v0_hat - est_gf.v0_hat[i]) / v0_hat)
        se0 = omega * b.std(ddof=1) / math.sqrt(q)
        z = abs(v0_hat - v0_exact[i]) / se0
        worst_z = max(worst_z, z)
        ok &= z <= 3.0
        for v1_hat, f in (
            (est_gf.v1_hat, sigma * nodes * b[:, None]),
            (est_st.v1_hat, sigma**2 * scores[i] * b[:, None]),
        ):
            manual_v1 = probes[i] * v0_hat + omega * f.mean(axis=0)
            glue = max(
                glue,
                float(np.abs(manual_v1 - v1_hat[i]).max()) / v0_hat,
            )
            for d in range(2):
                rho = f[:, d].mean() / b.mean()
                se = (f[:, d] - rho * b).std(ddof=1) \
                    / (math.sqrt(q) * b.mean())
                z = abs(probes[i, d] + rho - ratio_exact[i, d]) / se
                worst_z = max(worst_z, z)
                ok &= z <= 3.0
    ok &= glue <= 1e-10
    return _finish(
        3, "estimator-consistency", 30.0, started, ok,
        f"max |estimate - exact| / SE = {worst_z:.2f} over 20 probes "
        f"(v0 and both v1/v0 ratios, Q=10^4; need <= 3); max deviation "
        f"from direct recomputation {glue:.3g}",
    )


# ------------------------------------------ 4: single-Gaussian contraction


def criterion_4():
    started = time.perf_counter()
    t = from_gmm(GmmTarget(weights=np.ones(1), means=np.zeros((1, 1)),
                           covs=np.ones((1, 1, 1))))
    p = MsipParams(kernel=KernelSpec(1.0, 1e-10), eta=0.5, T=60,
                   estimator="analytic")
    y = np.array([[2.0]])
    worst_step = 0.0
    for it in range(60):
        expected = (1.0 - p.eta / 2.0) * y
        y, _, _ = msip_step(y, t, p, iteration=it)
        worst_step = max(worst_step, float(np.abs(y - expected).max()))
    final = float(np.abs(y).max())
    ok = worst_step <= 1e-12 and final <= 1e-6
    return _finish(
        4, "single-gaussian-contraction", 1.0, started, ok,
        f"per-step deviation from (1 - eta/2) contraction {worst_step:.3g} "
        f"(tolerance 1e-12); |y_60| = {final:.3g} (tolerance 1e-06)",
    )


# ------------------------------------ 5 and 6: the seeded gate experiment


def _experiment(overrides):
    cfg = parse_config(json.dumps(overrides))
    return cfg, run_experiment(cfg)


GATE_TRIALS = 20


@functools.cache
def _gate_trials(algorithm, M):
    """(all-five-modes rate, median final MMD^2) over the trials that did
    not diverge of the one seeded experiment behind criteria 5 and 6,
    run once per process. The metric rows only borrow a trial's
    workspace between steps, so the metrics requested move no bit."""
    _, results = _experiment({
        "target": {"name": "gmm5-aniso-2d"},
        "algorithm": {"name": algorithm},
        "particles": {"M": M},
        "trials": {"count": GATE_TRIALS, "base_seed": 0},
        "metrics": {"list": ["mmd2", "coverage"], "every_n_iters": 1000},
        "output": {"formats": []},
    })
    kept = [r for r in results if r.status != "diverged"]
    rate = float(np.mean([r.coverage == 5 for r in kept])) if kept else 0.0
    finals = [r.report.rows[-1]["mmd2"] for r in kept if r.report.rows]
    return rate, float(np.median(finals))


def criterion_5():
    # The pass line sits within one seed of the long-run coverage rate, so
    # the pinned-seed outcome reproduces only under unchanged arithmetic:
    # last-ulp changes anywhere in the dynamics can flip it.
    started = time.perf_counter()
    msip_rate, asvgd_rate = (_gate_trials(a, 25)[0]
                             for a in ("msip-f", "a-svgd"))
    ok = msip_rate >= 0.90 and asvgd_rate < 0.50
    return _finish(
        5, "mode-coverage", 300.0, started, ok,
        f"all-five-modes rate over {GATE_TRIALS} trials: msip-f "
        f"{msip_rate:.2f} (need >= 0.90), a-svgd {asvgd_rate:.2f} "
        f"(need < 0.50)",
    )


def criterion_6():
    # As with the coverage criterion, the M=50 vs M=100 ordering is a small
    # margin that reordered floating-point reductions can flip seed by seed.
    started = time.perf_counter()
    ms = (10, 25, 50, 100)
    medians = [_gate_trials("msip-f", m)[1] for m in ms]
    asvgd = _gate_trials("a-svgd", 100)[1]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = decreasing and asvgd > medians[-1]
    label = ", ".join(f"M={m}: {v:.4g}" for m, v in zip(ms, medians))
    return _finish(
        6, "mmd-vs-particle-count", 900.0, started, ok,
        f"median final mmd2 over {GATE_TRIALS} trials — msip-f {label} "
        f"(need strictly decreasing); a-svgd M=100: {asvgd:.4g} "
        f"(need > msip-f M=100)",
    )


# -------------------------------------------- 7: deconvolution fixed point


def criterion_7():
    started = time.perf_counter()
    sigma = 0.5
    atoms = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.0]])
    masses = np.array([0.5, 0.3, 0.2])
    covs = np.broadcast_to(sigma**2 * np.eye(2), (3, 2, 2)).copy()
    target = from_gmm(GmmTarget(weights=masses, means=atoms, covs=covs))
    p = MsipParams(kernel=KernelSpec(sigma, 1e-6), eta=0.5,
                   estimator="fredholm", seed=5)
    rng = np.random.default_rng(5)
    Y = atoms[np.arange(6) % 3] + 0.5 * rng.standard_normal((6, 2))
    change = np.inf
    iters = 0
    while change > 1e-8 and iters < 50_000:
        Y_next, _, _ = msip_step(Y, target, p, iteration=iters)
        change = float(np.abs(Y_next - Y).max())
        Y = Y_next
        iters += 1

    # gradient of the discrete objective whose target is the atomic
    # measure sum_k m_k delta(mu_k); the one-point estimator's embeddings
    # coincide with it exactly, so the fixed point must be stationary
    sq = ((Y[:, None, :] - atoms[None, :, :]) ** 2).sum(axis=2)
    k_atoms = np.exp(-sq / (2.0 * sigma**2))
    v0 = k_atoms @ masses
    v1 = k_atoms @ (masses[:, None] * atoms)
    G = kern.gram(Y, p.kernel)
    w = kern.solve(G, v0)
    grad = (w[:, None] * (G @ (w[:, None] * Y) - v1)) / sigma**2
    fro = float(np.linalg.norm(grad))
    ok = change <= 1e-8 and fro <= 1e-6
    return _finish(
        7, "deconvolution-fixed-point", 30.0, started, ok,
        f"fixed point reached after {iters} iterations (sup change "
        f"{change:.3g}, tolerance 1e-08); atomic-measure gradient "
        f"Frobenius norm {fro:.3g} (tolerance 1e-06)",
    )


# ------------------------------------------- 8: metric cross-consistency


def criterion_8():
    started = time.perf_counter()
    target = make_benchmark("gmm", 2, seed=0)
    t = target.analytic
    sigma = 0.5
    rng = np.random.default_rng(3)
    Y = rng.uniform(0.0, 7.5, size=(25, 2))
    p0 = MsipParams(kernel=KernelSpec(sigma, 0.0), estimator="analytic")
    w = kern.solve(kern.gram(Y, p0.kernel), gmm_v0(t, Y, sigma))
    lhs = mmd2_vs_gmm(Y, w, t, sigma)
    rhs = 2.0 * objective(Y, target, p0)
    identity_gap = abs(lhs - rhs)

    X = reference_samples(target, 100_000, [99, 3])
    sampled, se = SampleMmd(X, sigma).with_se(Y, w, n_boot=200, seed=99)
    z = abs(sampled - lhs) / se
    ok = identity_gap <= 1e-10 and z <= 3.0
    return _finish(
        8, "metric-cross-consistency", 60.0, started, ok,
        f"|mmd2 - 2*objective| = {identity_gap:.3g} at lambda=0 "
        f"(tolerance 1e-10); sample estimate off by {z:.2f} bootstrap "
        f"standard errors at N=10^5 (need <= 3)",
    )


# ------------------------------------------------------- 9: KSD internals


def _imq(x, y, c2, ell2, beta):
    r2 = float(((x - y) ** 2).sum())
    return (c2 + r2 / ell2) ** beta


def criterion_9():
    started = time.perf_counter()
    c2, beta, ell = IMQ_C2, IMQ_BETA, 0.7
    ell2 = ell * ell
    rng = np.random.default_rng(17)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        x = rng.normal(0.0, 2.0, size=3)
        y = rng.normal(0.0, 2.0, size=3)
        u = c2 + float(((x - y) ** 2).sum()) / ell2
        grad_x = 2.0 * beta * u ** (beta - 1.0) * (x - y) / ell2
        trace = (
            -4.0 * beta * (beta - 1.0) * u ** (beta - 2.0)
            * float(((x - y) ** 2).sum()) / ell2**2
            - 2.0 * 3 * beta * u ** (beta - 1.0) / ell2
        )
        fd_x = np.empty(3)
        fd_y = np.empty(3)
        fd_trace = 0.0
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            fd_x[a] = (_imq(x + e, y, c2, ell2, beta)
                       - _imq(x - e, y, c2, ell2, beta)) / (2.0 * h)
            fd_y[a] = (_imq(x, y + e, c2, ell2, beta)
                       - _imq(x, y - e, c2, ell2, beta)) / (2.0 * h)
            fd_trace += (
                _imq(x + e, y + e, c2, ell2, beta)
                - _imq(x + e, y - e, c2, ell2, beta)
                - _imq(x - e, y + e, c2, ell2, beta)
                + _imq(x - e, y - e, c2, ell2, beta)
            ) / (4.0 * h * h)
        worst = max(worst, float(np.abs(fd_x - grad_x).max()))
        worst = max(worst, float(np.abs(fd_y + grad_x).max()))
        worst = max(worst, abs(fd_trace - trace))
    min_eig = np.inf
    for _ in range(20):
        Y = rng.normal(0.0, 2.0, size=(12, 2))
        S = rng.normal(0.0, 1.0, size=(12, 2))
        K0 = imq_stein_gram(Y, S, c2, ell2, beta)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(K0).min()))
    ok = worst <= 1e-6 and min_eig >= -1e-10
    return _finish(
        9, "ksd-internals", 10.0, started, ok,
        f"max finite-difference error of IMQ derivatives {worst:.3g} "
        f"(tolerance 1e-06); min Stein-Gram eigenvalue {min_eig:.3g} "
        f"over 20 point sets (need >= -1e-10)",
    )


# --------------------------------------------------- 10: harness determinism


def _blank_wall_ms(text):
    lines = text.split("\n")
    for i in range(1, len(lines)):
        parts = lines[i].split(",")
        if len(parts) == 9:
            parts[5] = ""
            lines[i] = ",".join(parts)
    return "\n".join(lines)


def criterion_10():
    started = time.perf_counter()
    overrides = {
        "target": {"name": "gmm5-aniso-2d"},
        "algorithm": {"name": "msip-f", "params": {"T": 50}},
        "particles": {"M": 8},
        "trials": {"count": 2, "base_seed": 0},
        "metrics": {"every_n_iters": 10},
        "output": {"formats": ["csv", "json", "svg"]},
    }
    outputs = []
    for _ in range(2):
        cfg, results = _experiment(overrides)
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_outputs(cfg, results, out_dir=tmp)
            record = {
                "csv": _blank_wall_ms(
                    Path(paths["csv"]).read_text(encoding="utf-8")
                ),
            }
            for key, path in paths.items():
                if key.startswith("svg:"):
                    record[key] = Path(path).read_bytes()
            outputs.append(record)
    same_keys = set(outputs[0]) == set(outputs[1])
    ok = same_keys and all(outputs[0][k] == outputs[1][k]
                           for k in outputs[0])
    n_files = len(outputs[0])
    return _finish(
        10, "harness-determinism", 60.0, started, ok,
        f"two same-seed runs produced byte-identical outputs "
        f"({n_files} files compared, wall_ms excluded)",
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(numbers=None, on_result=None):
    """Run the acceptance checks (all, or a subset by number)."""
    wanted = set(numbers) if numbers else None
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if wanted is not None and idx not in wanted:
            continue
        result = fn()
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results
