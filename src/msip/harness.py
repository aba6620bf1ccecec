"""Configuration-driven experiment orchestration.

A run config is a JSON document with six sections (target, algorithm,
particles, metrics, trials, output); parse_config validates it strictly
(unknown keys are rejected with a path-qualified message) and fills
defaults from the per-fixture hyperparameter table. run_experiment
executes the trials deterministically (trial t uses seed base_seed + t)
and the emit_* helpers write CSV, JSON summary and SVG scatter outputs.
"""

import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import CbsParams, SvgdParams, run_cbs, run_svgd
from .dynamics import MsipParams, ParticleConfiguration, run_msip
from .errors import ConfigError, DivergedRunError, NonNormalizableError
from .kernel import KernelSpec, workspace
from .metrics import (
    MetricsReport,
    SampleMmd,
    ksd,
    mmd2_vs_gmm,
    normalize_weights,
    weighted_loglik,
    mode_coverage,
)
from .svgplot import emit_scatter_svg  # re-exported: part of this surface
from .targets import BENCHMARK_NAMES, make_benchmark, reference_samples

CSV_HEADER = (
    "trial,iteration,mmd2,ksd,loglik,wall_ms,density_evals,"
    "score_evals,status"
)

ALGORITHM_NAMES = (
    "msip-f", "msip-gi", "msip-gf", "msip-hybrid", "svgd", "a-svgd", "cbs",
)
_MSIP_ESTIMATOR = {
    "msip-f": "fredholm",
    "msip-gi": "stein",
    "msip-gf": "gf",
    "msip-hybrid": "hybrid",
}
METRIC_NAMES = ("mmd2", "ksd", "loglik", "coverage")
_FORMATS = ("csv", "json", "svg")

_BOUNDS = [-1000.0, 1000.0]


def _fixture_row(name, dim):
    """Per-fixture default hyperparameters (step size, bandwidths, budget)."""
    if name == "gmm":
        return dict(eta=0.5, sigma=0.5, ksd_bw=0.5, T=1000, trials=10,
                    init_mean=0.0)
    if name == "gmm5-aniso-2d":
        # the five-mode anisotropic benchmark is always started far from
        # the support, at (18, 18)
        return dict(eta=0.5, sigma=0.5, ksd_bw=0.5, T=1000, trials=20,
                    init_mean=18.0)
    if name == "funnel":
        return dict(eta=0.5 if dim == 2 else 0.05, sigma=0.1, ksd_bw=0.1,
                    T=1000, trials=10, init_mean=0.0)
    # himmelblau: parse_config has rejected unknown names before this call
    return dict(eta=0.1, sigma=0.05, ksd_bw=0.1, T=1000, trials=10,
                init_mean=0.0)


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
        return {
            "target": self.target,
            "algorithm": self.algorithm,
            "particles": self.particles,
            "metrics": self.metrics,
            "trials": self.trials,
            "output": self.output,
        }


@dataclass
class TrialResult:
    """One trial's metric report, final configuration and outcome."""

    trial: int
    seed: int
    report: MetricsReport
    final: ParticleConfiguration
    status: str
    coverage: int | None = None


def _reject_unknown(section, allowed, path):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}{key}: unknown key")


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _section(data, key):
    """A copy of the config section data[key], which must be an object;
    an absent optional section is empty."""
    value = data.get(key, {})
    _require(isinstance(value, dict),
             f"{key}: expected an object, got {value!r}")
    return dict(value)


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _algorithm_defaults(name, row):
    if name in _MSIP_ESTIMATOR:
        return {
            "eta": row["eta"],
            "sigma": row["sigma"],
            "lam": 1e-6,
            "T": row["T"],
            "Q": 10,
            "gamma": 0.5,
            "bounds": list(_BOUNDS),
        }
    if name in ("svgd", "a-svgd"):
        return {
            "eta": row["eta"],
            "T": row["T"],
            "bandwidth": "median" if name == "a-svgd" else row["sigma"] ** 2,
        }
    return {
        "beta": 0.9,
        "eta": row["eta"],
        "T": row["T"],
        "noise_scale": 1.0,
    }


def _validate_params(cfg):
    """Construct the parameter object once so invariants are checked."""
    try:
        build_params(cfg, seed=0)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"algorithm.params: {exc}") from exc


def parse_config(text):
    """Parse and validate a JSON run config, filling fixture defaults."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        data = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "config: expected a JSON object")
    _reject_unknown(
        data,
        ("target", "algorithm", "particles", "metrics", "trials", "output"),
        "",
    )
    _require("target" in data, "target: section is required")
    _require("algorithm" in data, "algorithm: section is required")

    # target ------------------------------------------------------------
    tsec = _section(data, "target")
    _reject_unknown(tsec, ("name", "dim", "seed"), "target.")
    _require("name" in tsec, "target.name: key is required")
    name = tsec["name"]
    _require(
        name in BENCHMARK_NAMES,
        f"target.name: unknown benchmark {name!r}; expected one of "
        f"{BENCHMARK_NAMES}",
    )
    dim = _as_int(tsec.get("dim", 2), "target.dim", minimum=1)
    tseed = _as_int(tsec.get("seed", 0), "target.seed")
    try:
        target = make_benchmark(name, dim, tseed)
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from exc
    row = _fixture_row(name, dim)
    target_sec = {"name": name, "dim": dim, "seed": tseed}

    # algorithm ----------------------------------------------------------
    asec = _section(data, "algorithm")
    _reject_unknown(asec, ("name", "params"), "algorithm.")
    _require("name" in asec, "algorithm.name: key is required")
    aname = asec["name"]
    _require(
        aname in ALGORITHM_NAMES,
        f"algorithm.name: unknown algorithm {aname!r}; expected one of "
        f"{ALGORITHM_NAMES}",
    )
    params = _algorithm_defaults(aname, row)
    overrides = asec.get("params", {})
    _require(
        isinstance(overrides, dict),
        "algorithm.params: expected an object",
    )
    _reject_unknown(overrides, tuple(params), "algorithm.params.")
    params.update(overrides)
    for key in ("T", "Q"):
        if key in params:
            _as_int(params[key], f"algorithm.params.{key}", minimum=1)
    for key in ("eta", "sigma", "lam", "gamma", "beta", "noise_scale"):
        if key in params:
            params[key] = _as_number(params[key], f"algorithm.params.{key}")
    if params.get("bandwidth", "median") != "median":
        params["bandwidth"] = _as_number(params["bandwidth"],
                                         "algorithm.params.bandwidth")
    if params.get("bounds") is not None and aname in _MSIP_ESTIMATOR:
        b = params["bounds"]
        _require(
            isinstance(b, (list, tuple)) and len(b) == 2,
            "algorithm.params.bounds: expected [lo, hi] or null",
        )
        params["bounds"] = [_as_number(b[0], "algorithm.params.bounds"),
                            _as_number(b[1], "algorithm.params.bounds")]
    algorithm_sec = {"name": aname, "params": params}

    # particles ----------------------------------------------------------
    psec = _section(data, "particles")
    _reject_unknown(psec, ("M", "init_mean", "init_cov_scale"), "particles.")
    M = _as_int(psec.get("M", 25), "particles.M", minimum=1)
    init_mean = psec.get("init_mean", row["init_mean"])
    if isinstance(init_mean, list):
        _require(
            len(init_mean) == dim,
            f"particles.init_mean: expected a number or a list of length "
            f"{dim}",
        )
        init_mean = [_as_number(v, "particles.init_mean") for v in init_mean]
    else:
        init_mean = [_as_number(init_mean, "particles.init_mean")] * dim
    init_cov_scale = _as_number(
        psec.get("init_cov_scale", 1.0), "particles.init_cov_scale"
    )
    _require(init_cov_scale > 0, "particles.init_cov_scale: must be positive")
    particles_sec = {
        "M": M, "init_mean": init_mean, "init_cov_scale": init_cov_scale,
    }

    # metrics -------------------------------------------------------------
    msec = _section(data, "metrics")
    _reject_unknown(
        msec,
        ("list", "every_n_iters", "reference_sample_size",
         "mmd_bandwidth", "ksd_bandwidth", "coverage_radius"),
        "metrics.",
    )
    default_list = ["mmd2", "ksd", "loglik"]
    if target.analytic is not None:
        default_list.append("coverage")
    mlist = msec.get("list", default_list)
    _require(isinstance(mlist, list), "metrics.list: expected a list")
    for m in mlist:
        _require(
            m in METRIC_NAMES,
            f"metrics.list: unknown metric {m!r}; expected a subset of "
            f"{METRIC_NAMES}",
        )
    if "coverage" in mlist and target.analytic is None:
        raise ConfigError(
            "metrics.list: coverage requires a Gaussian-mixture target "
            "with known modes"
        )
    every = _as_int(msec.get("every_n_iters", 100), "metrics.every_n_iters",
                    minimum=1)
    ref_n = _as_int(
        msec.get("reference_sample_size", 10000),
        "metrics.reference_sample_size", minimum=1,
    )
    mmd_bw = _as_number(
        msec.get("mmd_bandwidth", row["sigma"]), "metrics.mmd_bandwidth"
    )
    _require(mmd_bw > 0, "metrics.mmd_bandwidth: must be positive")
    ksd_bw = _as_number(
        msec.get("ksd_bandwidth", row["ksd_bw"]), "metrics.ksd_bandwidth"
    )
    _require(ksd_bw > 0, "metrics.ksd_bandwidth: must be positive")
    cov_radius = msec.get("coverage_radius")
    if cov_radius is None and target.analytic is not None:
        stds = [
            math.sqrt(max(np.linalg.eigvalsh(C).max(), 0.0))
            for C in target.analytic.covs
        ]
        cov_radius = 2.0 * max(stds)
    if cov_radius is not None:
        cov_radius = _as_number(cov_radius, "metrics.coverage_radius")
        _require(cov_radius > 0, "metrics.coverage_radius: must be positive")
    metrics_sec = {
        "list": list(mlist),
        "every_n_iters": every,
        "reference_sample_size": ref_n,
        "mmd_bandwidth": mmd_bw,
        "ksd_bandwidth": ksd_bw,
        "coverage_radius": cov_radius,
    }

    # trials ----------------------------------------------------------------
    trsec = _section(data, "trials")
    _reject_unknown(trsec, ("count", "base_seed"), "trials.")
    count = _as_int(trsec.get("count", row["trials"]), "trials.count",
                    minimum=1)
    base_seed = _as_int(trsec.get("base_seed", 0), "trials.base_seed")
    trials_sec = {"count": count, "base_seed": base_seed}

    # output ------------------------------------------------------------
    osec = _section(data, "output")
    _reject_unknown(osec, ("directory", "formats"), "output.")
    directory = osec.get("directory", "results")
    _require(isinstance(directory, str) and directory,
             "output.directory: expected a nonempty string")
    formats = osec.get(
        "formats",
        ["csv", "json", "svg"] if dim == 2 else ["csv", "json"],
    )
    _require(isinstance(formats, list), "output.formats: expected a list")
    for f in formats:
        _require(
            f in _FORMATS,
            f"output.formats: unknown format {f!r}; expected a subset of "
            f"{_FORMATS}",
        )
    if "svg" in formats and dim != 2:
        raise ConfigError("output.formats: svg requires a 2-D target")
    output_sec = {"directory": directory, "formats": list(formats)}

    cfg = RunConfig(
        target=target_sec,
        algorithm=algorithm_sec,
        particles=particles_sec,
        metrics=metrics_sec,
        trials=trials_sec,
        output=output_sec,
    )
    _validate_params(cfg)
    return cfg


def serialize_config(cfg):
    """Canonical JSON text; parse_config(serialize_config(c)) == c."""
    return json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n"


def build_params(cfg, seed):
    """The per-trial parameter object for the configured algorithm."""
    name = cfg.algorithm["name"]
    a = cfg.algorithm["params"]
    if name in _MSIP_ESTIMATOR:
        bounds = a.get("bounds")
        return MsipParams(
            kernel=KernelSpec(sigma=a["sigma"], lam=a["lam"]),
            eta=a["eta"],
            T=a["T"],
            estimator=_MSIP_ESTIMATOR[name],
            Q=a["Q"],
            gamma=a["gamma"],
            bounds=tuple(bounds) if bounds is not None else None,
            seed=seed,
        )
    if name in ("svgd", "a-svgd"):
        return SvgdParams(eta=a["eta"], T=a["T"], bandwidth=a["bandwidth"],
                          seed=seed)
    return CbsParams(beta=a["beta"], eta=a["eta"], T=a["T"],
                     noise_scale=a["noise_scale"], seed=seed)


# ------------------------------------------------------------------ execution


class _TrialRecorder:
    """Accumulates metric rows and cumulative counters for one trial.

    work is the trial's Gram workspace (None outside MSIP), which the
    exact MMD^2 and the KSD borrow: rows are recorded between steps.
    """

    def __init__(self, cfg, target, ksd_bandwidth, ref_mmd, t0, work=None):
        self.cfg = cfg
        self.target = target
        self.ksd_bandwidth = ksd_bandwidth
        self.ref_mmd = ref_mmd
        self.work = work
        self.t0 = t0
        self.rows = []
        self.status = "ok"
        self.density_evals = 0
        self.score_evals = 0
        self.last = None  # the last (Y_it, w_it) the callback saw

    def record(self, iteration, Y, w):
        requested = self.cfg.metrics["list"]
        mmd_bw = self.cfg.metrics["mmd_bandwidth"]
        try:
            wn = normalize_weights(w)
        except NonNormalizableError:
            wn = None
        vals = {"mmd2": None, "ksd": None, "loglik": None}
        # One target evaluation at Y serves both ksd and loglik.
        if wn is not None and "ksd" in requested:
            logp, S = self.target.log_density_and_score(Y)
        elif wn is not None and "loglik" in requested:
            logp = self.target.log_density(Y)
        if "mmd2" in requested:
            if wn is None:
                vals["mmd2"] = float("nan")
            elif self.target.analytic is not None:
                vals["mmd2"] = mmd2_vs_gmm(
                    Y, wn, self.target.analytic, mmd_bw, work=self.work
                )
            else:
                vals["mmd2"] = self.ref_mmd(Y, wn)
        if "ksd" in requested:
            vals["ksd"] = float("nan")
            if wn is not None:
                try:
                    vals["ksd"] = ksd(Y, wn, S, self.ksd_bandwidth,
                                     work=self.work)
                except ValueError:  # the score is not finite at some y_i
                    pass
        if "loglik" in requested:
            vals["loglik"] = (
                weighted_loglik(wn, logp) if wn is not None
                else float("nan")
            )
        self.rows.append({
            "iteration": iteration,
            "mmd2": vals["mmd2"],
            "ksd": vals["ksd"],
            "loglik": vals["loglik"],
            "wall_ms": (time.perf_counter() - self.t0) * 1e3,
            "density_evals": self.density_evals,
            "score_evals": self.score_evals,
            "status": self.status,
        })


def _run_trial(cfg, target, trial, ref_mmd):
    seed = cfg.trials["base_seed"] + trial
    d = cfg.target["dim"]
    M = cfg.particles["M"]
    every = cfg.metrics["every_n_iters"]
    rng = np.random.default_rng([seed, 0])
    Y0 = np.asarray(cfg.particles["init_mean"], dtype=float) \
        + math.sqrt(cfg.particles["init_cov_scale"]) \
        * rng.standard_normal((M, d))
    params = build_params(cfg, seed)
    name = cfg.algorithm["name"]
    # one Gram workspace per MSIP trial: every step's system and the
    # metric rows between steps
    work = workspace(M) if name in _MSIP_ESTIMATOR else None
    rec = _TrialRecorder(cfg, target, cfg.metrics["ksd_bandwidth"], ref_mmd,
                         t0=time.perf_counter(), work=work)
    uniform = np.full(M, 1.0 / M)

    def cb(it, Y, w, diag):
        rec.last = (Y, uniform if w is None else w)
        if it % every == 0:
            rec.record(it, *rec.last)
        rec.density_evals += diag["density_evals"]
        rec.score_evals += diag["score_evals"]
        if diag["frozen"]:
            rec.status = "degenerate-weights-occurred"

    if name in _MSIP_ESTIMATOR:
        run = partial(run_msip, work=work)
    elif name in ("svgd", "a-svgd"):
        run = run_svgd
    else:
        run = run_cbs
    try:
        final, after = run(target, params, Y0, callbacks=[cb])
    except DivergedRunError:
        rec.status = "diverged"
        if rec.rows:
            rec.rows[-1]["status"] = "diverged"
        Y, w = (Y0, uniform) if rec.last is None else rec.last
        final = ParticleConfiguration(Y=Y, w=w)
    else:
        # the final row's counters include the work after the last step
        rec.density_evals += after["density_evals"]
        rec.score_evals += after["score_evals"]
        rec.record(params.T, final.Y, final.w)

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
                       report=MetricsReport(rows=rec.rows), final=final,
                       status=rec.status, coverage=coverage)


def run_experiment(cfg, on_trial=None):
    """Execute all configured trials sequentially and deterministically.

    Per-trial divergence is recorded (partial rows retained) rather than
    raised; callers decide how to treat fully-failed experiments. Trials
    are independent, so they could run concurrently; sequential execution
    keeps the implementation simple and the outputs identical.
    """
    target = make_benchmark(
        cfg.target["name"], cfg.target["dim"], cfg.target["seed"]
    )
    ref_mmd = None
    if "mmd2" in cfg.metrics["list"] and target.analytic is None:
        X = reference_samples(
            target, cfg.metrics["reference_sample_size"],
            [cfg.trials["base_seed"], 3],
        )
        ref_mmd = SampleMmd(X, cfg.metrics["mmd_bandwidth"])
    results = []
    for trial in range(cfg.trials["count"]):
        result = _run_trial(cfg, target, trial, ref_mmd)
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
            lines.append(",".join([
                str(r.trial),
                str(row["iteration"]),
                _fmt_cell(row["mmd2"]),
                _fmt_cell(row["ksd"]),
                _fmt_cell(row["loglik"]),
                _fmt_cell(row["wall_ms"]),
                str(row["density_evals"]),
                str(row["score_evals"]),
                row["status"],
            ]))
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
    for m in ("mmd2", "ksd", "loglik"):
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
            target = make_benchmark(
                cfg.target["name"], cfg.target["dim"], cfg.target["seed"]
            )
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
                m: last[m] for m in ("mmd2", "ksd", "loglik")
                if last[m] is not None
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
        target = make_benchmark(
            cfg.target["name"], cfg.target["dim"], cfg.target["seed"]
        )
        for r in results:
            spath = outdir / f"trial{r.trial:03d}.svg"
            try:
                emit_scatter_svg(r.final, target, spath)
            except NonNormalizableError:
                continue
            paths[f"svg:{r.trial}"] = spath
    return paths
