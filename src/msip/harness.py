"""Configuration-driven experiment orchestration.

A run config is a JSON document with six sections (target, algorithm,
particles, metrics, trials, output); parse_config validates it strictly
(unknown keys are rejected with a path-qualified message) against the
kind of each key (_KINDS) and fills defaults from the per-fixture table
and each algorithm's row of ALGORITHMS. run_experiment executes the
trials deterministically (trial t uses seed base_seed + t) and the emit_*
helpers write CSV, JSON summary and SVG scatter outputs.
"""

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import CbsParams, SvgdParams, run_cbs, run_svgd
from .dynamics import MsipParams, ParticleConfiguration, run_msip
from .errors import ConfigError, DivergedRunError, NonNormalizableError
from .kernel import KernelSpec, workspace
from .metrics import (
    MetricsReport,
    Mmd,
    ksd,
    normalize_weights,
    weighted_loglik,
    mode_coverage,
)
# emit_scatter_svg is re-exported: part of this surface
from .svgplot import emit_scatter_svg, emit_trial_svgs
from .targets import BENCHMARK_NAMES, make_benchmark, reference_samples

# The metrics of a metric row; coverage is taken once, at a trial's end.
ROW_METRICS = ("mmd2", "ksd", "loglik")
METRIC_NAMES = ROW_METRICS + ("coverage",)
# The keys of a row of metrics.csv, in its order; a trial's report rows
# hold all of them but trial.
COLUMNS = ("trial", "iteration", *ROW_METRICS, "wall_ms", "density_evals",
           "score_evals", "status")
CSV_HEADER = ",".join(COLUMNS)
_FORMATS = ("csv", "json", "svg")
_SECTIONS = ("target", "algorithm", "particles", "metrics", "trials", "output")

# The kind of each key of each section, in the order the keys are checked
# (check_kind); a key of kind None is checked where parse_config reads it.
# algorithm.params lists the keys of every algorithm family.
_KINDS = {
    "target": {"name": None, "dim": "count", "seed": "seed"},
    "algorithm": {"name": None, "params": None},
    "algorithm.params": {
        "T": "count", "Q": "count", "eta": "number", "sigma": "number",
        "lam": "number", "gamma": "number", "beta": "number",
        "noise_scale": "number", "bandwidth": None, "bounds": None,
    },
    "particles": {
        "M": "count", "init_mean": None, "init_cov_scale": "positive",
    },
    "metrics": {
        "list": None, "every_n_iters": "count",
        "reference_sample_size": "count", "mmd_bandwidth": "positive",
        "ksd_bandwidth": "positive", "coverage_radius": None,
    },
    "trials": {"count": "count", "base_seed": "seed"},
    "output": {"directory": None, "formats": None},
}

# Per-fixture defaults: step size, bandwidths, trial count and initial
# mean. gmm5-aniso-2d is always started far from its support, at (18, 18),
# and the funnel's step size is 0.05 above two dimensions.
_FIXTURES = {
    "gmm": dict(eta=0.5, sigma=0.5, ksd_bw=0.5, trials=10, init_mean=0.0),
    "gmm5-aniso-2d": dict(eta=0.5, sigma=0.5, ksd_bw=0.5, trials=20,
                          init_mean=18.0),
    "funnel": dict(eta=0.5, sigma=0.1, ksd_bw=0.1, trials=10, init_mean=0.0),
    "himmelblau": dict(eta=0.1, sigma=0.05, ksd_bw=0.1, trials=10,
                       init_mean=0.0),
}


@dataclass(frozen=True)
class Algorithm:
    """An algorithm's row of ALGORITHMS: its default params from the
    fixture row (their keys are the ones it accepts), its parameter object
    from the params and a trial's seed, and the name of its runner in this
    module, looked up when a trial runs (so a patched
    ``msip.harness.run_svgd`` runs). An MSIP runner takes a workspace."""

    defaults: Callable
    params: Callable
    runner: str
    msip: bool = False


def _msip_params(estimator, sigma, lam, bounds, **rest):
    return MsipParams(kernel=KernelSpec(sigma=sigma, lam=lam),
                      estimator=estimator,
                      bounds=None if bounds is None else tuple(bounds),
                      **rest)


def _msip(estimator):
    return Algorithm(
        lambda row: {"eta": row["eta"], "sigma": row["sigma"], "lam": 1e-6,
                     "T": 1000, "Q": 10, "gamma": MsipParams.gamma,
                     "bounds": [-1000.0, 1000.0]},
        partial(_msip_params, estimator), "run_msip", msip=True)


def _svgd(bandwidth):
    return Algorithm(
        lambda row: {"eta": row["eta"], "T": 1000,
                     "bandwidth": bandwidth(row)},
        SvgdParams, "run_svgd")


ALGORITHMS = {
    "msip-f": _msip("fredholm"),
    "msip-gi": _msip("stein"),
    "msip-gf": _msip("gf"),
    "msip-hybrid": _msip("hybrid"),
    "svgd": _svgd(lambda row: row["sigma"] ** 2),
    "a-svgd": _svgd(lambda row: "median"),
    "cbs": Algorithm(
        lambda row: {"beta": 0.9, "eta": row["eta"], "T": 1000,
                     "noise_scale": 1.0},
        CbsParams, "run_cbs"),
}
ALGORITHM_NAMES = tuple(ALGORITHMS)


@dataclass
class RunConfig:
    """Fully-defaulted, validated experiment description (six sections)."""

    target: dict
    algorithm: dict
    particles: dict
    metrics: dict
    trials: dict
    output: dict

    def as_dict(self):
        return {name: getattr(self, name) for name in _SECTIONS}


@dataclass
class TrialResult:
    """One trial's metric report, final configuration and outcome."""

    trial: int
    seed: int
    report: MetricsReport
    final: ParticleConfiguration
    status: str
    coverage: int | None = None


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def check_kind(value, kind, path):
    """value if it is of the kind, a ConfigError naming path otherwise.

    "count" is an integer >= 1 and "seed" an integer >= 0; "number" is a
    finite number and "positive" a positive one, both returned as floats.
    """
    if kind in ("count", "seed"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        minimum = 1 if kind == "count" else 0
        if value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if kind == "positive" and not number > 0:
        raise ConfigError(f"{path}: must be positive")
    return number


def _read(section, path, defaults, keys=None):
    """The section, an object, over its defaults, each value checked
    against its kind in _KINDS[path]. Its keys must be among keys, by
    default those of _KINDS[path]; one of them without a default is
    required."""
    _require(isinstance(section, dict),
             f"{path}: expected an object, got {section!r}")
    kinds = _KINDS[path]
    keys = kinds if keys is None else keys
    for key in section:
        _require(key in keys, f"{path}.{key}: unknown key")
    out = {**defaults, **section}
    for key, kind in kinds.items():
        if key in keys:  # not a key of another algorithm family
            _require(key in out, f"{path}.{key}: key is required")
            if kind is not None:
                out[key] = check_kind(out[key], kind, f"{path}.{key}")
    return out


def _known(value, names, path, noun, expected="one of"):
    _require(value in names,
             f"{path}: unknown {noun} {value!r}; expected {expected} {names}")
    return value


def _subset(values, names, path, noun):
    """values, a list of some of the names, as a new list."""
    _require(isinstance(values, list), f"{path}: expected a list")
    return [_known(v, names, path, noun, "a subset of") for v in values]


def parse_config(text):
    """Parse and validate a JSON run config, filling fixture defaults."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        data = json.loads(text)
    except ValueError as exc:  # bad JSON or UTF-8, or a too-long integer
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "config: expected a JSON object")
    for key in data:
        _require(key in _SECTIONS, f"{key}: unknown key")
    _require("target" in data, "target: section is required")
    _require("algorithm" in data, "algorithm: section is required")

    tsec = _read(data.get("target", {}), "target", {"dim": 2, "seed": 0})
    name = _known(tsec["name"], BENCHMARK_NAMES, "target.name", "benchmark")
    dim = tsec["dim"]
    try:
        target = make_benchmark(**tsec)
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from exc
    row = _FIXTURES[name]
    if name == "funnel" and dim != 2:
        row = {**row, "eta": 0.05}

    asec = _read(data.get("algorithm", {}), "algorithm", {"params": {}})
    aname = _known(asec["name"], ALGORITHM_NAMES, "algorithm.name",
                   "algorithm")
    _require(isinstance(asec["params"], dict),
             "algorithm.params: expected an object")
    defaults = ALGORITHMS[aname].defaults(row)
    params = _read(asec["params"], "algorithm.params", defaults, defaults)
    if params.get("bandwidth", "median") != "median":
        params["bandwidth"] = check_kind(params["bandwidth"], "number",
                                         "algorithm.params.bandwidth")
    if params.get("bounds") is not None:
        b = params["bounds"]
        _require(isinstance(b, list) and len(b) == 2,
                 "algorithm.params.bounds: expected [lo, hi] or null")
        params["bounds"] = [check_kind(v, "number", "algorithm.params.bounds")
                            for v in b]
    asec["params"] = params

    psec = _read(data.get("particles", {}), "particles", {
        "M": 25, "init_mean": row["init_mean"], "init_cov_scale": 1.0,
    })
    mean = psec["init_mean"]
    if isinstance(mean, list):
        _require(len(mean) == dim, f"particles.init_mean: expected a number "
                                   f"or a list of length {dim}")
    else:
        mean = [mean] * dim
    psec["init_mean"] = [check_kind(v, "number", "particles.init_mean")
                         for v in mean]

    analytic = target.analytic
    msec = _read(data.get("metrics", {}), "metrics", {
        "list": ["mmd2", "ksd", "loglik"]
        + (["coverage"] if analytic is not None else []),
        "every_n_iters": 100,
        "reference_sample_size": 10000,
        "mmd_bandwidth": row["sigma"],
        "ksd_bandwidth": row["ksd_bw"],
        "coverage_radius": None,
    })
    msec["list"] = _subset(msec["list"], METRIC_NAMES, "metrics.list",
                           "metric")
    _require(analytic is not None or "coverage" not in msec["list"],
             "metrics.list: coverage requires a Gaussian-mixture target "
             "with known modes")
    if msec["coverage_radius"] is None and analytic is not None:
        # an explicit null is the default too: twice the widest mode's
        # largest standard deviation
        msec["coverage_radius"] = 2.0 * max(
            math.sqrt(max(np.linalg.eigvalsh(C).max(), 0.0))
            for C in analytic.covs
        )
    if msec["coverage_radius"] is not None:
        msec["coverage_radius"] = check_kind(
            msec["coverage_radius"], "positive", "metrics.coverage_radius")

    trsec = _read(data.get("trials", {}), "trials",
                  {"count": row["trials"], "base_seed": 0})

    osec = _read(data.get("output", {}), "output", {
        "directory": "results",
        "formats": ["csv", "json", "svg"] if dim == 2 else ["csv", "json"],
    })
    _require(isinstance(osec["directory"], str) and osec["directory"],
             "output.directory: expected a nonempty string")
    osec["formats"] = _subset(osec["formats"], _FORMATS, "output.formats",
                              "format")
    _require(dim == 2 or "svg" not in osec["formats"],
             "output.formats: svg requires a 2-D target")

    cfg = RunConfig(tsec, asec, psec, msec, trsec, osec)
    try:  # the parameter object checks the ranges of the params
        build_params(cfg, seed=0)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"algorithm.params: {exc}") from exc
    return cfg


def serialize_config(cfg):
    """Canonical JSON text; parse_config(serialize_config(c)) == c."""
    return json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n"


def build_params(cfg, seed):
    """The per-trial parameter object for the configured algorithm."""
    return ALGORITHMS[cfg.algorithm["name"]].params(
        **cfg.algorithm["params"], seed=seed)


# ------------------------------------------------------------------ execution


def _metric_row(cfg, target, mmd, Y, w, work):
    """{metric: value} of (Y, w) for each of ROW_METRICS, None where the
    metric is not requested and NaN for each requested one when w cannot
    be normalized. One target evaluation at Y serves ksd and loglik.
    work is the trial's Gram workspace (None outside MSIP), which the
    MMD^2 and the KSD borrow: rows are taken between steps."""
    requested = cfg.metrics["list"]
    try:
        wn = normalize_weights(w)
    except NonNormalizableError:
        return {m: math.nan if m in requested else None for m in ROW_METRICS}
    row = dict.fromkeys(ROW_METRICS)
    if "ksd" in requested:
        logp, S = target.log_density_and_score(Y)
    elif "loglik" in requested:
        logp = target.log_density(Y)
    if "mmd2" in requested:
        row["mmd2"] = mmd(Y, wn, work=work)
    if "ksd" in requested:
        try:
            row["ksd"] = ksd(Y, wn, S, cfg.metrics["ksd_bandwidth"],
                             work=work)
        except ValueError:  # the score is not finite at some y_i
            row["ksd"] = math.nan
    if "loglik" in requested:
        row["loglik"] = weighted_loglik(wn, logp)
    return row


def _run_trial(cfg, target, trial, mmd):
    """One trial; mmd is the experiment's Mmd, or None without mmd2."""
    seed = cfg.trials["base_seed"] + trial
    d = cfg.target["dim"]
    M = cfg.particles["M"]
    every = cfg.metrics["every_n_iters"]
    rng = np.random.default_rng([seed, 0])
    Y0 = np.asarray(cfg.particles["init_mean"], dtype=float) \
        + math.sqrt(cfg.particles["init_cov_scale"]) \
        * rng.standard_normal((M, d))
    params = build_params(cfg, seed)
    algorithm = ALGORITHMS[cfg.algorithm["name"]]
    # one Gram workspace per MSIP trial: every step's system and the
    # metric rows between steps
    work = workspace(M) if algorithm.msip else None
    t0 = time.perf_counter()
    uniform = np.full(M, 1.0 / M)
    rows = []
    counts = {"density_evals": 0, "score_evals": 0}
    status = "ok"
    last = None  # the last (Y_it, w_it) the callback saw

    def record(iteration, Y, w):
        rows.append({
            "iteration": iteration,
            **_metric_row(cfg, target, mmd, Y, w, work),
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            **counts,
            "status": status,
        })

    def count(diag):
        for key in counts:
            counts[key] += diag[key]

    def cb(it, Y, w, diag):
        nonlocal last, status
        last = (Y, uniform if w is None else w)
        if it % every == 0:
            record(it, *last)
        count(diag)
        if diag["frozen"]:
            status = "degenerate-weights-occurred"

    run = globals()[algorithm.runner]
    if work is not None:
        run = partial(run, work=work)
    try:
        final, after = run(target, params, Y0, callbacks=[cb])
    except DivergedRunError:
        status = "diverged"
        if rows:
            rows[-1]["status"] = "diverged"
        Y, w = (Y0, uniform) if last is None else last
        final = ParticleConfiguration(Y=Y, w=w)
    else:
        # the final row's counters include the work after the last step
        count(after)
        record(params.T, final.Y, final.w)

    coverage = None
    if "coverage" in cfg.metrics["list"] and target.analytic is not None:
        try:
            covered, _ = mode_coverage(
                final.Y, final.w, target.analytic.means,
                cfg.metrics["coverage_radius"],
            )
            coverage = covered
        except NonNormalizableError:
            coverage = 0

    return TrialResult(trial=trial, seed=seed,
                       report=MetricsReport(rows=rows), final=final,
                       status=status, coverage=coverage)


def run_experiment(cfg, on_trial=None):
    """Execute all configured trials sequentially and deterministically.

    Per-trial divergence is recorded (partial rows retained) rather than
    raised; callers decide how to treat fully-failed experiments. Trials
    are independent, so they could run concurrently; sequential execution
    keeps the implementation simple and the outputs identical.
    """
    target = make_benchmark(**cfg.target)
    mmd = None
    if "mmd2" in cfg.metrics["list"]:
        # exact against a mixture, else against one seeded reference sample
        reference = target.analytic
        if reference is None:
            reference = reference_samples(
                target, cfg.metrics["reference_sample_size"],
                [cfg.trials["base_seed"], 3],
            )
        mmd = Mmd(reference, cfg.metrics["mmd_bandwidth"])
    results = []
    for trial in range(cfg.trials["count"]):
        result = _run_trial(cfg, target, trial, mmd)
        results.append(result)
        if on_trial is not None:
            on_trial(result)
    return results


# ------------------------------------------------------------------- emission


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(results, path):
    """One row per (trial, recorded iteration); fixed header and order."""
    lines = [CSV_HEADER]
    for r in results:
        for row in r.report.rows:
            cells = {**row, "trial": r.trial}
            lines.append(",".join(_fmt_cell(cells[c]) for c in COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _stats(values):
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "p05": float(np.percentile(arr, 5.0)),
        "p95": float(np.percentile(arr, 95.0)),
    }


def summarize(cfg, results):
    """Aggregate final-iteration metrics over surviving trials.

    The statistics of a metric cover its finite finals; ``non_finite``
    counts, per requested metric, the surviving trials whose final value
    is NaN or infinite. p05/p95 are empirical quantiles (not parametric
    confidence bounds).
    """
    survived = [r for r in results if r.status != "diverged"]
    per_metric = {}
    non_finite = {}
    for m in ROW_METRICS:
        if m not in cfg.metrics["list"]:
            continue
        values = [r.report.rows[-1][m] for r in survived if r.report.rows]
        finals = [v for v in values if math.isfinite(v)]
        non_finite[m] = len(values) - len(finals)
        if finals:
            per_metric[m] = _stats(finals)
    summary = {
        "config": cfg.as_dict(),
        "n_trials": len(results),
        "n_survived": len(survived),
        "metrics": per_metric,
        "non_finite": non_finite,
        "coverage": None,
        "trials": [],
    }
    if "coverage" in cfg.metrics["list"]:
        covered = [r.coverage for r in survived if r.coverage is not None]
        if covered:
            target = make_benchmark(**cfg.target)
            k = int(target.analytic.k)
            stats = _stats(covered)
            stats["n_modes"] = k
            stats["all_modes_rate"] = float(
                np.mean([c == k for c in covered])
            )
            summary["coverage"] = stats
    for r in results:
        finals = {}
        if r.report.rows:
            last = r.report.rows[-1]
            finals = {
                m: last[m] for m in ROW_METRICS if last[m] is not None
            }
            finals["iteration"] = last["iteration"]
        summary["trials"].append({
            "trial": r.trial,
            "seed": r.seed,
            "status": r.status,
            "finals": finals,
            "coverage": r.coverage,
        })
    return summary


def _finite_or_null(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _dump_json(obj, path):
    """Strict JSON: non-finite floats are written as null."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    return path


def write_outputs(cfg, results, out_dir=None):
    """Write the configured output files; returns {kind: path}."""
    outdir = Path(out_dir if out_dir is not None else
                  cfg.output["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    formats = cfg.output["formats"]
    paths = {}
    if "csv" in formats:
        paths["csv"] = emit_csv(results, outdir / "metrics.csv")
    if "json" in formats:
        paths["summary"] = _dump_json(summarize(cfg, results),
                                      outdir / "summary.json")
        payload = [
            {
                "trial": r.trial,
                "seed": r.seed,
                "status": r.status,
                "Y": r.final.Y.tolist(),
                "w": r.final.w.tolist(),
            }
            for r in results
        ]
        paths["final_particles"] = _dump_json(
            payload, outdir / "final_particles.json")
    if "svg" in formats and cfg.target["dim"] == 2:
        finals = [(r.trial, r.final) for r in results]
        for trial, spath, _ in emit_trial_svgs(
                finals, make_benchmark(**cfg.target), outdir):
            if spath is not None:
                paths[f"svg:{trial}"] = spath
    return paths
