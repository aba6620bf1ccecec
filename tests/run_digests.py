"""Print one SHA-256 per config of a fixed matrix of short runs.

Each digest covers a config's metric rows (without the wall-clock column
``wall_ms``), the trial statuses, the mode coverage and the bytes of the
final Y and w. Two checkouts that print the same lines behave the same
on every config, wall time aside, at the same BLAS thread count:

    OPENBLAS_NUM_THREADS=1 python3 tests/run_digests.py > digests.txt

tests/digests.txt holds the lines for one thread; tests/test_digests.py
checks them. Named configs print only their own lines, in the order of
the matrix, and --list prints the names:

    OPENBLAS_NUM_THREADS=1 python3 tests/run_digests.py msip-gf/funnel
    python3 tests/run_digests.py --list

The matrix: every algorithm on every benchmark at T = 40 with M = 6,
SVGD and a-SVGD runs that diverge, degenerate weights, a 10-D mixture,
msip-gf without bounds, three runs at T = 10 with M > 128, whose
kernel matrices span several row blocks of 64, and msip-f in the box
[-12, 12]^2 from the start (18, 18), so that steps are clamped to the
bounds (no other config reaches its +/-1000 box); 2 trials each.
"""

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msip.harness import (  # noqa: E402
    ALGORITHM_NAMES,
    parse_config,
    run_experiment,
)
from msip.targets import BENCHMARK_NAMES  # noqa: E402

BASE = {
    "particles": {"M": 6},
    "metrics": {"every_n_iters": 10, "reference_sample_size": 1000},
    "trials": {"count": 2, "base_seed": 0},
    "output": {"formats": ["csv"]},
}


def _doc(target, algorithm, params=None, **over):
    doc = {**BASE, "target": target,
           "algorithm": {"name": algorithm, "params": params or {"T": 40}}}
    doc.update(over)
    return doc


def matrix():
    """(name, config document) for every config of the matrix."""
    out = [(f"{a}/{t}", _doc({"name": t, "dim": 2}, a))
           for t in BENCHMARK_NAMES for a in ALGORITHM_NAMES]
    every3 = {**BASE["metrics"], "every_n_iters": 3}
    # trial 0 diverges at a recording iteration, trial 1 at another
    out.append(("svgd/himmelblau/diverged", _doc(
        {"name": "himmelblau", "dim": 2}, "svgd", {"eta": 0.5, "T": 30},
        metrics=every3)))
    out.append(("a-svgd/himmelblau/diverged", _doc(
        {"name": "himmelblau", "dim": 2}, "a-svgd", {"eta": 0.3, "T": 30},
        metrics=every3)))
    out.append(("msip-f/gmm/degenerate", _doc(
        {"name": "gmm", "dim": 2}, "msip-f",
        particles={"M": 6, "init_cov_scale": 400.0})))
    out.append(("msip-f/gmm-d10", _doc({"name": "gmm", "dim": 10},
                                       "msip-f")))
    out.append(("msip-gf/funnel/unbounded", _doc(
        {"name": "funnel", "dim": 2}, "msip-gf",
        {"T": 40, "bounds": None})))
    for name, target, algorithm, M in (
            ("msip-f/gmm-d10/M150", {"name": "gmm", "dim": 10}, "msip-f", 150),
            ("svgd/gmm/M150", {"name": "gmm", "dim": 2}, "svgd", 150),
            ("msip-gf/funnel/M130", {"name": "funnel", "dim": 2}, "msip-gf",
             130)):
        out.append((name, _doc(target, algorithm, {"T": 10},
                               particles={"M": M})))
    out.append(("msip-f/gmm5-aniso-2d/box12", _doc(
        {"name": "gmm5-aniso-2d", "dim": 2}, "msip-f",
        {"T": 40, "bounds": [-12, 12]})))
    return out


def digest(results):
    h = hashlib.sha256()
    for r in results:
        rows = [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in r.report.rows]
        h.update(repr((r.trial, r.status, r.coverage, rows)).encode())
        for a in (r.final.Y, r.final.w):
            a = np.ascontiguousarray(a, dtype=float)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="configs to run (default: the whole matrix)")
    parser.add_argument("--list", action="store_true",
                        help="print the config names and exit")
    args = parser.parse_args(argv)
    configs = matrix()
    unknown = set(args.names) - {name for name, _ in configs}
    if unknown:
        parser.error(f"unknown config(s) {sorted(unknown)}; see --list")
    if args.list:
        print("\n".join(name for name, _ in configs))
        return
    warnings.simplefilter("ignore")
    for name, doc in configs:
        if args.names and name not in args.names:
            continue
        with np.errstate(all="ignore"):
            results = run_experiment(parse_config(json.dumps(doc)))
        print(f"{name} {digest(results)}")


if __name__ == "__main__":
    main()
