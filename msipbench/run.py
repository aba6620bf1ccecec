"""The msip benchmark: one workload per process, timed or traced.

    python3 msipbench/run.py --workload gram-d10 --seed 1 \\
        --seconds 50 --trace 0

Run from the root of a checkout; msip is imported from its ``src``. The
run repeats one round until ``--seconds`` have passed, and always finishes
the round it is in. A round times a set-up probe, then runs one experiment
the way ``msip run`` does (parse_config, run_experiment over the
workload's trials, write_outputs), closed loop, one trial after the other.
Every round runs the same trials, seeded from ``--seed``. Outside the
timed region, the first round's trials are checked against computations
made apart from msip (see checks.py), and every later round must
reproduce them bit for bit. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics, end-to-end
ones with ``--trace 0`` and per-layer ones from spans with ``--trace 1``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

OUT_DIR = Path(".msipbench_out")
IMPORT_RUNS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import msip.harness; "
                "print(time.perf_counter() - t)")

# Per-layer metrics: name -> (span name, field of the per-trial totals).
SPAN_METRICS = {
    "targets.logp_s": ("targets.logp", 0),
    "targets.score_s": ("targets.score", 0),
    "targets.logp_points": ("targets.logp", 2),
    "targets.score_points": ("targets.score", 2),
    "embeddings.s": ("embeddings", 0),
    "embeddings.calls": ("embeddings", 1),
    "dynamics.s": ("dynamics", 0),
    "dynamics.steps": ("dynamics", 1),
    "kernel.gram_s": ("kernel.gram", 0),
    "kernel.gram_calls": ("kernel.gram", 1),
    "kernel.solve_s": ("kernel.solve", 0),
    "kernel.solve_calls": ("kernel.solve", 1),
    "backend.sym_sq_dists_s": ("backend.sym_sq_dists", 0),
    "metrics.mmd2_s": ("metrics.mmd2", 0),
    "metrics.ksd_s": ("metrics.ksd", 0),
    "metrics.loglik_s": ("metrics.loglik", 0),
    "metrics.coverage_s": ("metrics.coverage", 0),
    "backend.cross_rowsums_s": ("backend.cross_rowsums", 0),
    "backend.stein_gram_s": ("backend.stein_gram", 0),
    "harness.resolve_s": ("harness.resolve", 0),
    "harness.resolve_calls": ("harness.resolve", 1),
}
# Set-up spans, per round rather than per trial.
SETUP_METRICS = {
    "backend.self_rowsums_s": "backend.self_rowsums",
    "targets.reference_s": "targets.reference",
}


@dataclass
class Round:
    cfg: object
    results: list
    probe_s: float
    start: float  # before parse_config
    trial_ends: list  # one time per trial, taken in on_trial
    emit_start: float
    end: float

    def trial_times(self):
        """Durations of trials 1.. of the round; the first trial shares
        its start with the end of run_experiment's set-up, which no
        public hook marks."""
        e = self.trial_ends
        return [b - a for a, b in zip(e, e[1:])]


def import_seconds(src):
    """Median time of `import msip.harness` in fresh interpreters."""
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                             check=True, capture_output=True,
                             text=True).stdout)
        for _ in range(IMPORT_RUNS))


def run_rounds(workload, seed, seconds, out_dir, tracer=None):
    """Rounds until `seconds` have passed; trials base, base + 1, ..."""
    import msip.harness as harness

    mark = tracer.segment if tracer is not None else (lambda label: None)
    rounds = []
    base = seed * workload.trials_per_round
    t_end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < t_end:
        r = len(rounds)
        mark(["probe", r])
        t = time.perf_counter()
        harness.run_experiment(
            harness.parse_config(workload.probe_config(base, out_dir)))
        probe_s = time.perf_counter() - t

        mark(["setup", r])
        start = time.perf_counter()
        cfg = harness.parse_config(workload.config(base, out_dir))
        ends = []

        def on_trial(result):
            ends.append(time.perf_counter())
            mark(["trial", r, result.trial + 1])

        results = harness.run_experiment(cfg, on_trial=on_trial)
        mark(["emit", r])
        emit_start = time.perf_counter()
        harness.write_outputs(cfg, results)
        rounds.append(Round(cfg, results, probe_s, start, ends, emit_start,
                            time.perf_counter()))
    return rounds


def end_to_end(rounds, import_s):
    med = statistics.median
    return {
        "setup_s": (import_s + med(r.probe_s for r in rounds), "s"),
        "trial_s": (med(t for r in rounds for t in r.trial_times()), "s"),
        "run_s": (import_s + med(r.end - r.start for r in rounds), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def per_layer(rounds, tracer):
    """Per-trial medians over trials 1.. of every round, from the spans."""
    totals = tracer.by_segment()
    index = {tuple(label): i for i, (label, _) in enumerate(tracer.segments)}
    empty = ({}, 0.0)
    trials = []  # (layer totals, top-level span time, duration, result)
    for r, rd in enumerate(rounds):
        for k, dur in enumerate(rd.trial_times(), start=1):
            layers, top = totals.get(index[("trial", r, k)], empty)
            trials.append((layers, top, dur, rd.results[k]))

    def med(values):
        return float(statistics.median(values))

    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = med(layers.get(span, (0.0, 0, 0))[field]
                          for layers, _, _, _ in trials)
    for metric, span in SETUP_METRICS.items():
        out[metric] = med(
            totals.get(index[("setup", r)], empty)[0].get(span, (0.0,))[0]
            for r in range(len(rounds)))
    out["metrics.rows"] = med(len(res.report.rows) for *_, res in trials)
    out["harness.emit_s"] = med(rd.end - rd.emit_start for rd in rounds)
    out["harness.other_s"] = med(dur - top for _, top, dur, _ in trials)
    out["harness.reported_density_evals"] = med(
        res.report.rows[-1]["density_evals"] for *_, res in trials)
    out["harness.reported_score_evals"] = med(
        res.report.rows[-1]["score_evals"] for *_, res in trials)
    out["traced.trial_s"] = med(dur for _, _, dur, _ in trials)
    return {name: (value, "s" if name.endswith(("_s", ".s")) else "count")
            for name, value in out.items()}


def check_rounds(rounds):
    """(trials attempted, trials failed, every output correct)."""
    import checks

    cfg = rounds[0].cfg
    target = checks.target_for(cfg)
    ref = checks.reference(cfg) if cfg.target["name"] == "funnel" else None
    attempted = failed = left_out = 0
    correct = True
    for k, first in enumerate(rounds[0].results):
        if first.status == "diverged":
            errors = None
        else:
            errors, left_out_k = checks.check_trial(cfg, target, first, ref)
            left_out += left_out_k
        for rd in rounds:
            attempted += 1
            res = rd.results[k]
            if errors is None:
                failed += 1
                print(f"trial seed {res.seed}: diverged", file=sys.stderr)
                continue
            bad = errors + checks.check_repeat(first, res)
            if bad:
                failed += 1
                correct = False
                for e in bad:
                    print(f"trial seed {res.seed}: {e}", file=sys.stderr)
    if left_out:
        print(f"checks: a log-density offset of +-40 flipped the weight "
              f"freeze of {left_out} particles in "
              f"{len(rounds[0].results)} trials; the offset check left them "
              "out", file=sys.stderr)
    return attempted, failed, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = Path.cwd() / "src"
    if not (src / "msip" / "__init__.py").is_file():
        print(f"msipbench: no msip package in {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller says otherwise. Under the default
    # of one thread per CPU, aniso-modes trials on a shared 2-CPU machine
    # jumped between levels as far apart as 0.8 and 1.3 s, and gram-d10
    # trials took 2.6 times as long as with one thread.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    out_dir = OUT_DIR / workload.name
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        rounds = run_rounds(workload, args.seed, args.seconds, str(out_dir),
                            tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        metrics = end_to_end(rounds, import_seconds(src))
    else:
        metrics = per_layer(rounds, tracer)
        tracer.write(out_dir / "spans.jsonl")
        layer_sum = sum(v for k, (v, u) in metrics.items()
                        if u == "s" and k in SPAN_METRICS
                        or k == "harness.other_s")
        print(f"trace: layer self times sum to {layer_sum:.6f} s of "
              f"{metrics['traced.trial_s'][0]:.6f} s per trial",
              file=sys.stderr)

    attempted, failed, correct = check_rounds(rounds)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.9g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
