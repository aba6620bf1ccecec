"""Command-line interface.

Subcommands: run (execute a config end to end), grad-check (finite-
difference check of the analytic objective gradient), invariance
(normalization-invariance check of the particle map), plot (re-emit SVG
scatter plots from a result directory), bench (run the acceptance
matrix). Exit codes: 0 success, 1 configuration error, 2 numerical
failure. The environment variable MSIP_SEED, when set, overrides the
base seed last (after the --seed flag).
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dynamics import ParticleConfiguration
from .errors import ConfigError, MsipError
from .harness import (ALGORITHMS, check_kind, parse_config, run_experiment,
                      write_outputs)
from .svgplot import emit_trial_svgs
from .targets import make_benchmark


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser():
    parser = _Parser(
        prog="msip",
        description=(
            "Weighted quadrature rules for unnormalized densities via a "
            "regularized mean-shift particle iteration, with SVGD and "
            "consensus-based sampling baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    run_p = sub.add_parser("run", help="execute a run config end to end")
    run_p.add_argument("config", help="path to a JSON run config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override trials.base_seed")
    run_p.add_argument("--out", default=None,
                       help="override output.directory")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")

    grad_p = sub.add_parser(
        "grad-check",
        help="finite-difference check of the analytic objective gradient",
    )
    grad_p.add_argument("config", help="path to a JSON run config")
    grad_p.add_argument("--seed", type=int, default=None,
                        help="seed for the random configurations")

    sub.add_parser(
        "invariance",
        help="check the particle map ignores the normalization constant",
    )

    plot_p = sub.add_parser(
        "plot", help="emit SVG scatter plots from a result directory"
    )
    plot_p.add_argument("result_dir", help="directory written by `msip run`")
    plot_p.add_argument("--out", default=None,
                        help="write SVGs here instead of result_dir")
    plot_p.add_argument("--quiet", action="store_true")

    bench_p = sub.add_parser("bench", help="run the acceptance matrix")
    bench_p.add_argument(
        "--only", default=None,
        help="comma-separated criterion numbers (default: all)",
    )
    bench_p.add_argument("--quiet", action="store_true")
    return parser


def _load_config(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_bytes())


def _apply_seed_overrides(cfg, flag_seed):
    if flag_seed is not None:
        cfg.trials["base_seed"] = check_kind(flag_seed, "seed", "--seed")
    env = os.environ.get("MSIP_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(
                f"MSIP_SEED must be an integer, got {env!r}"
            ) from exc
        cfg.trials["base_seed"] = check_kind(seed, "seed", "MSIP_SEED")
    return cfg


def _cmd_run(args):
    cfg = _apply_seed_overrides(_load_config(args.config), args.seed)
    if args.out is not None:
        cfg.output["directory"] = args.out

    def progress(result):
        line = f"trial {result.trial}: status={result.status}"
        if result.coverage is not None:
            line += f" coverage={result.coverage}"
        if result.report.rows:
            last = result.report.rows[-1]
            if last["mmd2"] is not None:
                line += f" mmd2={last['mmd2']:.6g}"
        print(line)

    results = run_experiment(cfg, on_trial=None if args.quiet else progress)
    paths = write_outputs(cfg, results)
    if not args.quiet:
        for kind, path in sorted(paths.items()):
            print(f"wrote {kind}: {path}")
    if results and all(r.status == "diverged" for r in results):
        print("error: every trial diverged", file=sys.stderr)
        return 2
    return 0


def _cmd_grad_check(args):
    from .acceptance import GRAD_CHECK_SEED, GRAD_CHECK_TOL, gradient_check

    cfg = _load_config(args.config)
    target = make_benchmark(**cfg.target)
    if target.analytic is None:
        raise ConfigError(
            "grad-check needs a Gaussian-mixture target (analytic "
            "embeddings required)"
        )
    if not ALGORITHMS[cfg.algorithm["name"]].msip:
        raise ConfigError("grad-check needs an msip-* algorithm config")
    params = cfg.algorithm["params"]
    seed = GRAD_CHECK_SEED if args.seed is None else args.seed
    worst = gradient_check(
        target,
        M=cfg.particles["M"],
        sigma=params["sigma"],
        lam=params["lam"],
        seed=check_kind(seed, "seed", "--seed"),
    )
    print(f"max relative gradient error: {worst:.6g}")
    if worst > GRAD_CHECK_TOL:
        print(f"error: gradient check failed (tolerance "
              f"{GRAD_CHECK_TOL:g})", file=sys.stderr)
        return 2
    return 0


def _cmd_invariance(args):
    from .acceptance import (INVARIANCE_OFFSETS, INVARIANCE_TOL,
                             invariance_suite)

    worst = invariance_suite()
    print(f"max relative map deviation under "
          f"+/-{INVARIANCE_OFFSETS[1]:g} offsets: {worst:.6g}")
    if worst > INVARIANCE_TOL:
        print(f"error: invariance check failed (tolerance "
              f"{INVARIANCE_TOL:g})", file=sys.stderr)
        return 2
    return 0


def _read_json(path):
    """The JSON document in the file at path; ConfigError naming the file
    if it is not valid UTF-8 JSON or holds an integer too long to read."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or UTF-8, or a too-long integer
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def _cmd_plot(args):
    rdir = Path(args.result_dir)
    summary_path = rdir / "summary.json"
    finals_path = rdir / "final_particles.json"
    if not summary_path.is_file() or not finals_path.is_file():
        raise ConfigError(
            f"{rdir} does not contain summary.json and "
            f"final_particles.json (was it written by `msip run`?)"
        )
    summary = _read_json(summary_path)
    if not (isinstance(summary, dict) and "config" in summary):
        raise ConfigError(f"{summary_path}: no config section")
    try:
        cfg = parse_config(json.dumps(summary["config"]))
    except ConfigError as exc:
        raise ConfigError(f"{summary_path}: {exc}") from exc
    if cfg.target["dim"] != 2:
        raise ConfigError("plot requires a 2-D target")
    target = make_benchmark(**cfg.target)
    outdir = Path(args.out) if args.out is not None else rdir
    outdir.mkdir(parents=True, exist_ok=True)
    for trial, path, skip in emit_trial_svgs(_final_particles(finals_path),
                                             target, outdir):
        if skip is not None:
            print(f"skipped trial {trial}: {skip}", file=sys.stderr)
        elif not args.quiet:
            print(f"wrote {path}")
    return 0


def _final_particles(path):
    """[(trial, ParticleConfiguration)] of a final_particles.json, each
    entry an object with an integer trial, a finite n x 2 Y and a finite
    w of length n; ConfigError naming the file and the entry otherwise.
    Every entry is checked before any plot is written."""
    entries = _read_json(path)
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: expected a list of trials")
    out = []
    for i, entry in enumerate(entries):
        where = f"{path}: entry {i}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        trial = entry.get("trial")
        if not isinstance(trial, int) or isinstance(trial, bool):
            raise ConfigError(f"{where}: trial must be an integer")
        Y, w = _finite_array(entry, "Y"), _finite_array(entry, "w")
        if Y is None or Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] != 2:
            raise ConfigError(f"{where}: Y must be a finite n x 2 array")
        if w is None or w.shape != (Y.shape[0],):
            raise ConfigError(
                f"{where}: w must be a finite array of length "
                f"{Y.shape[0]}, one weight per row of Y")
        out.append((trial, ParticleConfiguration(Y=Y, w=w)))
    return out


def _finite_array(entry, key):
    """entry[key] as a float array if it is a (nested) list of finite
    JSON numbers, else None."""
    try:
        a = np.asarray(entry[key])
    except (KeyError, ValueError):  # missing, or ragged lists
        return None
    if a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        return None
    return a.astype(float)


def _cmd_bench(args):
    from .acceptance import CRITERIA, run_all

    numbers = None
    if args.only is not None:
        try:
            numbers = [int(tok) for tok in args.only.split(",") if tok]
        except ValueError as exc:
            raise ConfigError(
                f"--only expects comma-separated integers, got "
                f"{args.only!r}"
            ) from exc
        if not numbers:
            raise ConfigError(f"--only: no criterion number in "
                              f"{args.only!r}")
        unknown = [n for n in numbers if not 1 <= n <= len(CRITERIA)]
        if unknown:
            raise ConfigError(
                f"--only: no criterion {', '.join(map(str, unknown))}; the "
                f"criteria are numbered 1-{len(CRITERIA)}"
            )

    def announce(result):
        flag = "PASS" if result.passed else "FAIL"
        print(f"criterion {result.number:2d} {result.name:<28s} {flag} "
              f"({result.seconds:.1f}s): {result.detail}")

    results = run_all(numbers, on_result=None if args.quiet else announce)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 2 if failed else 0


_COMMANDS = {
    "run": _cmd_run,
    "grad-check": _cmd_grad_check,
    "invariance": _cmd_invariance,
    "plot": _cmd_plot,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError(
                f"a subcommand is required\n"
                f"{parser.format_usage().rstrip()}"
            )
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MsipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
