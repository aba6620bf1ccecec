"""The three workloads: one msip run config each, and how many trials a
round runs.

Each workload loads one layer. Everything not written here is the fixture
default that ``msip.harness.parse_config`` fills in.
"""

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    target: dict
    algorithm: dict
    M: int
    metrics: dict
    formats: tuple
    trials_per_round: int

    def config(self, base_seed, out_dir, count=None):
        """The run config of one round: trials base_seed, base_seed + 1, ..."""
        return json.dumps({
            "target": self.target,
            "algorithm": self.algorithm,
            "particles": {"M": self.M},
            "metrics": self.metrics,
            "trials": {"count": count or self.trials_per_round,
                       "base_seed": base_seed},
            "output": {"directory": out_dir, "formats": list(self.formats)},
        })

    def probe_config(self, base_seed, out_dir):
        """The same set-up with one trial of one particle and one step.

        run_experiment gives no way to tell where its set-up ends and its
        first trial starts, so the set-up is timed on a run whose only
        trial costs milliseconds.
        """
        cfg = json.loads(self.config(base_seed, out_dir, count=1))
        cfg["algorithm"]["params"]["T"] = 1
        cfg["particles"]["M"] = 1
        cfg["metrics"]["every_n_iters"] = 1
        return json.dumps(cfg)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's multi-modal anisotropic showcase. GMM target
        # evaluation dominates; the 25 x 25 Gram is cheap.
        Workload(
            name="aniso-modes",
            target={"name": "gmm5-aniso-2d", "dim": 2, "seed": 0},
            algorithm={"name": "msip-f", "params": {"T": 1000}},
            M=25,
            metrics={"list": ["mmd2", "ksd", "loglik", "coverage"],
                     "every_n_iters": 100},
            formats=("csv", "json", "svg"),
            trials_per_round=5,
        ),
        # Gram assembly, Cholesky and solves at M = 400 in 10-D; T is cut
        # from the fixture's 1000 so that a trial takes seconds.
        Workload(
            name="gram-d10",
            target={"name": "gmm", "dim": 10, "seed": 0},
            algorithm={"name": "msip-f", "params": {"T": 200}},
            M=400,
            metrics={"list": ["mmd2", "ksd", "loglik", "coverage"],
                     "every_n_iters": 100},
            formats=("csv", "json"),
            trials_per_round=4,
        ),
        # No analytic embedding: sample MMD^2 against 10^4 reference
        # points, its set-up self-sum and 100 harness re-solves per trial.
        Workload(
            name="funnel-sample-mmd",
            target={"name": "funnel", "dim": 2, "seed": 0},
            algorithm={"name": "msip-gf", "params": {"Q": 10, "T": 1000}},
            M=25,
            metrics={"list": ["mmd2", "ksd", "loglik"], "every_n_iters": 10,
                     "reference_sample_size": 10000},
            formats=("csv", "json", "svg"),
            trials_per_round=4,
        ),
    )
}
