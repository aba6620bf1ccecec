"""Config parsing, trial execution, aggregation, and file emission."""

import csv
import dataclasses
import inspect
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import conftest
import numpy as np
import pytest

import msip.harness
import msip.kernel
import msip.metrics
from msip import svgplot
from msip.acceptance import _blank_wall_ms
from msip.baselines import CbsParams, SvgdParams, run_svgd
from msip.dynamics import MsipParams, ParticleConfiguration
from msip.errors import ConfigError, UnsupportedDimensionError
from msip.harness import (
    ALGORITHM_NAMES,
    CSV_HEADER,
    _metric_row,
    _run_trial,
    build_params,
    emit_csv,
    emit_scatter_svg,
    parse_config,
    run_experiment,
    serialize_config,
    summarize,
    write_outputs,
)
from msip.embeddings import estimate_embeddings
from msip.metrics import (
    Mmd,
    ksd,
    normalize_weights,
    weighted_loglik,
)
from msip.targets import TargetDensity, make_benchmark, reference_samples

GOLDEN_DIR = Path(__file__).parent / "golden"

# Frozen input of the golden-file regression; regenerate the expectation
# with `python tests/regen_golden.py` after an intentional change.
GOLDEN_DOC = {
    "target": {"name": "gmm", "dim": 2, "seed": 0},
    "algorithm": {"name": "msip-f", "params": {"T": 30}},
    "particles": {"M": 6},
    "metrics": {"every_n_iters": 10},
    "trials": {"count": 2, "base_seed": 0},
    "output": {"formats": ["csv"]},
}


# Golden file stem -> frozen config. Beyond msip-f, these cover the sample
# MMD^2 of a target without analytic embeddings and both baselines.
GOLDEN_CASES = {
    "metrics": GOLDEN_DOC,
    "msip-gf-funnel": {
        **GOLDEN_DOC,
        "target": {"name": "funnel", "dim": 2},
        "algorithm": {"name": "msip-gf", "params": {"T": 30}},
        "metrics": {"every_n_iters": 10, "reference_sample_size": 500},
    },
    "svgd-gmm": {**GOLDEN_DOC,
                 "algorithm": {"name": "svgd", "params": {"T": 30}}},
    "cbs-gmm": {**GOLDEN_DOC,
                "algorithm": {"name": "cbs", "params": {"T": 30}}},
    # Trial 0 diverges at step 6, a recording iteration, trial 1 at
    # step 7, which is not one; both end on row 6 with status diverged.
    "svgd-himmelblau-diverged": {
        **GOLDEN_DOC,
        "target": {"name": "himmelblau", "dim": 2},
        "algorithm": {"name": "svgd", "params": {"eta": 0.5, "T": 30}},
        "metrics": {"every_n_iters": 3},
    },
}


def make_golden_csv(directory, name="metrics"):
    cfg = parse_config(json.dumps(GOLDEN_CASES[name]))
    results = run_experiment(cfg)
    return emit_csv(results, Path(directory) / f"{name}.csv")


def parse(doc):
    return parse_config(json.dumps(doc))


def small_config(**over):
    doc = {
        "target": {"name": "gmm", "dim": 2, "seed": 0},
        "algorithm": {"name": "msip-f", "params": {"T": 20}},
        "particles": {"M": 5},
        "metrics": {"every_n_iters": 5},
        "trials": {"count": 2, "base_seed": 0},
        "output": {"formats": ["csv", "json"]},
    }
    doc.update(over)
    return parse(doc)


class TestParseDefaults:
    def test_minimal_gmm_fills_benchmark_defaults(self):
        cfg = parse({"target": {"name": "gmm", "dim": 5},
                     "algorithm": {"name": "msip-f"}})
        assert cfg.target == {"name": "gmm", "dim": 5, "seed": 0}
        assert cfg.algorithm["params"] == {
            "eta": 0.5, "sigma": 0.5, "lam": 1e-6, "T": 1000, "Q": 10,
            "gamma": 0.5, "bounds": [-1000.0, 1000.0],
        }
        assert cfg.particles == {
            "M": 25, "init_mean": [0.0] * 5, "init_cov_scale": 1.0,
        }
        assert cfg.metrics["list"] == ["mmd2", "ksd", "loglik", "coverage"]
        assert cfg.metrics["every_n_iters"] == 100
        assert cfg.metrics["reference_sample_size"] == 10000
        assert cfg.metrics["mmd_bandwidth"] == 0.5
        assert cfg.metrics["ksd_bandwidth"] == 0.5
        assert cfg.metrics["coverage_radius"] == pytest.approx(
            2.0 * math.sqrt(0.5)
        )
        assert cfg.trials == {"count": 10, "base_seed": 0}
        assert cfg.output == {"directory": "results",
                              "formats": ["csv", "json"]}

    def test_anisotropic_fixture_defaults(self):
        cfg = parse({"target": {"name": "gmm5-aniso-2d"},
                     "algorithm": {"name": "msip-gi"}})
        assert cfg.target["dim"] == 2
        assert cfg.particles["init_mean"] == [18.0, 18.0]
        assert cfg.trials["count"] == 20
        assert cfg.output["formats"] == ["csv", "json", "svg"]
        assert cfg.metrics["coverage_radius"] == pytest.approx(
            2.0 * math.sqrt(1.2)
        )

    def test_funnel_step_size_depends_on_dimension(self):
        low = parse({"target": {"name": "funnel", "dim": 2},
                     "algorithm": {"name": "msip-gf"}})
        high = parse({"target": {"name": "funnel", "dim": 5},
                      "algorithm": {"name": "msip-gf"}})
        assert low.algorithm["params"]["eta"] == 0.5
        assert high.algorithm["params"]["eta"] == 0.05
        assert low.algorithm["params"]["sigma"] == 0.1
        assert low.metrics["ksd_bandwidth"] == 0.1
        # no analytic embeddings: no coverage metric, no radius
        assert low.metrics["list"] == ["mmd2", "ksd", "loglik"]
        assert low.metrics["coverage_radius"] is None
        assert high.output["formats"] == ["csv", "json"]

    def test_himmelblau_defaults(self):
        cfg = parse({"target": {"name": "himmelblau"},
                     "algorithm": {"name": "msip-f"}})
        assert cfg.algorithm["params"]["eta"] == 0.1
        assert cfg.algorithm["params"]["sigma"] == 0.05
        assert cfg.metrics["ksd_bandwidth"] == 0.1

    def test_svgd_bandwidth_conventions(self):
        fixed = parse({"target": {"name": "gmm", "dim": 2},
                       "algorithm": {"name": "svgd"}})
        adaptive = parse({"target": {"name": "gmm", "dim": 2},
                          "algorithm": {"name": "a-svgd"}})
        assert fixed.algorithm["params"]["bandwidth"] == 0.25
        assert adaptive.algorithm["params"]["bandwidth"] == "median"

    def test_cbs_defaults(self):
        cfg = parse({"target": {"name": "gmm", "dim": 2},
                     "algorithm": {"name": "cbs"}})
        assert cfg.algorithm["params"] == {
            "beta": 0.9, "eta": 0.5, "T": 1000, "noise_scale": 1.0,
        }

    def test_overrides_survive(self):
        cfg = parse({
            "target": {"name": "gmm", "dim": 3, "seed": 4},
            "algorithm": {"name": "msip-hybrid",
                          "params": {"gamma": 0.25, "T": 77}},
            "particles": {"M": 12, "init_mean": [1.0, 2.0, 3.0]},
            "metrics": {"list": ["loglik"], "every_n_iters": 7},
            "trials": {"count": 3, "base_seed": 11},
            "output": {"directory": "out", "formats": ["json"]},
        })
        assert cfg.algorithm["params"]["gamma"] == 0.25
        assert cfg.algorithm["params"]["T"] == 77
        assert cfg.particles["init_mean"] == [1.0, 2.0, 3.0]
        assert cfg.metrics["list"] == ["loglik"]
        assert cfg.trials == {"count": 3, "base_seed": 11}
        assert cfg.output == {"directory": "out", "formats": ["json"]}

    def test_null_coverage_radius_is_the_default(self):
        for name, radius in (("gmm5-aniso-2d", 2.0 * math.sqrt(1.2)),
                             ("funnel", None)):
            doc = {"target": {"name": name},
                   "algorithm": {"name": "msip-gf"}}
            explicit = parse({**doc, "metrics": {"coverage_radius": None}})
            assert explicit.as_dict() == parse(doc).as_dict()
            assert explicit.metrics["coverage_radius"] == (
                None if radius is None else pytest.approx(radius))

    def test_bounds_can_be_disabled(self):
        cfg = parse({"target": {"name": "gmm", "dim": 2},
                     "algorithm": {"name": "msip-f",
                                   "params": {"bounds": None}}})
        assert cfg.algorithm["params"]["bounds"] is None
        assert build_params(cfg, seed=0).bounds is None


class TestParseValidation:
    @pytest.mark.parametrize("doc,fragment", [
        ({"target": {"name": "gmm", "dim": 2},
          "algorithm": {"name": "msip-f"}, "extra": {}}, "extra"),
        ({"target": {"name": "gmm", "dim": 2, "sedd": 0},
          "algorithm": {"name": "msip-f"}}, "target.sedd"),
        ({"target": {"name": "gmm", "dim": 2},
          "algorithm": {"name": "msip-f", "params": {"etaa": 0.5}}},
         "algorithm.params.etaa"),
        ({"target": {"name": "gmm", "dim": 2},
          "algorithm": {"name": "msip-f"}, "particles": {"n": 3}},
         "particles.n"),
        ({"target": {"name": "gmm", "dim": 2},
          "algorithm": {"name": "msip-f"}, "metrics": {"cadence": 5}},
         "metrics.cadence"),
        ({"target": {"name": "gmm", "dim": 2},
          "algorithm": {"name": "msip-f"}, "trials": {"seed": 1}},
         "trials.seed"),
        ({"target": {"name": "gmm", "dim": 2},
          "algorithm": {"name": "msip-f"}, "output": {"dir": "x"}},
         "output.dir"),
    ])
    def test_unknown_keys_report_their_path(self, doc, fragment):
        with pytest.raises(ConfigError, match="unknown key") as info:
            parse(doc)
        assert fragment in str(info.value)

    def test_required_sections(self):
        with pytest.raises(ConfigError, match="target"):
            parse({"algorithm": {"name": "msip-f"}})
        with pytest.raises(ConfigError, match="algorithm"):
            parse({"target": {"name": "gmm", "dim": 2}})

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            parse({"target": {"name": "volcano"},
                   "algorithm": {"name": "msip-f"}})
        with pytest.raises(ConfigError, match="unknown algorithm"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "hmc"}})
        with pytest.raises(ConfigError, match="unknown metric"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f"},
                   "metrics": {"list": ["entropy"]}})
        with pytest.raises(ConfigError, match="unknown format"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f"},
                   "output": {"formats": ["pdf"]}})

    def test_type_and_range_checks(self):
        with pytest.raises(ConfigError, match="target.dim"):
            parse({"target": {"name": "gmm", "dim": True},
                   "algorithm": {"name": "msip-f"}})
        with pytest.raises(ConfigError, match="particles.M"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f"},
                   "particles": {"M": 0}})
        with pytest.raises(ConfigError, match="every_n_iters"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f"},
                   "metrics": {"every_n_iters": 0}})
        with pytest.raises(ConfigError, match="mmd_bandwidth"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f"},
                   "metrics": {"mmd_bandwidth": -1.0}})
        with pytest.raises(ConfigError, match="init_cov_scale"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f"},
                   "particles": {"init_cov_scale": 0}})
        with pytest.raises(ConfigError, match="init_mean"):
            parse({"target": {"name": "gmm", "dim": 3},
                   "algorithm": {"name": "msip-f"},
                   "particles": {"init_mean": [1.0, 2.0]}})
        with pytest.raises(ConfigError, match="trials.count"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f"},
                   "trials": {"count": 0}})
        # a seed seeds numpy's generators, which take no negative seed
        for target in ("gmm", "funnel"):
            with pytest.raises(ConfigError,
                               match=r"^target\.seed: must be >= 0, got -1$"):
                parse({"target": {"name": target, "seed": -1},
                       "algorithm": {"name": "msip-gf"}})
        with pytest.raises(ConfigError,
                           match=r"^trials\.base_seed: must be >= 0, got -1$"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f"},
                   "trials": {"base_seed": -1}})

    def test_invalid_algorithm_params_are_config_errors(self):
        with pytest.raises(ConfigError, match="algorithm.params"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f",
                                 "params": {"eta": 0.0}}})
        with pytest.raises(ConfigError, match="bounds"):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "msip-f",
                                 "params": {"bounds": [3.0]}}})

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    @pytest.mark.parametrize("value", [3.0, True, 0, "3"])
    def test_step_count_must_be_a_positive_integer(self, algorithm, value):
        with pytest.raises(ConfigError, match=r"algorithm\.params\.T: "):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": algorithm,
                                 "params": {"T": value}}})

    @pytest.mark.parametrize("algorithm",
                             ["msip-f", "msip-gi", "msip-gf", "msip-hybrid"])
    @pytest.mark.parametrize("value", [2.0, True, 0])
    def test_inner_nodes_must_be_a_positive_integer(self, algorithm, value):
        with pytest.raises(ConfigError, match=r"algorithm\.params\.Q: "):
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": algorithm,
                                 "params": {"Q": value}}})

    def test_cross_section_consistency(self):
        with pytest.raises(ConfigError, match="svg requires a 2-D"):
            parse({"target": {"name": "gmm", "dim": 3},
                   "algorithm": {"name": "msip-f"},
                   "output": {"formats": ["svg"]}})
        with pytest.raises(ConfigError, match="coverage"):
            parse({"target": {"name": "funnel", "dim": 2},
                   "algorithm": {"name": "msip-gf"},
                   "metrics": {"list": ["coverage"]}})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="two-dimensional"):
            parse({"target": {"name": "himmelblau", "dim": 3},
                   "algorithm": {"name": "msip-f"}})

    def test_malformed_documents(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(b'{"target": "\xff"}')

    def test_too_long_integer_is_a_config_error(self):
        # json.loads raises a plain ValueError past 4300 digits
        doc = ('{"target": {"name": "gmm", "dim": 1' + "0" * 5000
               + '}, "algorithm": {"name": "msip-f"}}')
        with pytest.raises(ConfigError, match=r"^config is not valid JSON: "
                           r"Exceeds the limit \(4300 digits\)"):
            parse_config(doc)

    @pytest.mark.parametrize("section,value", [
        ("target", "gmm"),
        ("target", 5),
        ("target", [["name", "gmm"]]),
        ("algorithm", None),
        ("algorithm", "msip-f"),
        ("particles", [["M", 5]]),
        ("metrics", None),
        ("trials", 3),
        ("output", "results"),
    ])
    def test_sections_must_be_objects(self, section, value):
        # a string, a number, null or a list of pairs is not a section
        doc = {"target": {"name": "gmm", "dim": 2},
               "algorithm": {"name": "msip-f"}}
        doc[section] = value
        with pytest.raises(ConfigError,
                           match=rf"^{section}: expected an object, got "):
            parse(doc)


def readme_config():
    """The example run config of README.md."""
    text = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    start = text.index("```json\n", text.index("A run config is a JSON"))
    return json.loads(text[start + 8:text.index("```", start + 8)])


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        for doc in (
            {"target": {"name": "gmm", "dim": 4},
             "algorithm": {"name": "msip-hybrid"}},
            {"target": {"name": "gmm5-aniso-2d"},
             "algorithm": {"name": "a-svgd"}},
            {"target": {"name": "funnel", "dim": 3},
             "algorithm": {"name": "cbs"}},
            readme_config(),
        ):
            cfg = parse(doc)
            text = serialize_config(cfg)
            assert text.endswith("\n")
            assert parse_config(text).as_dict() == cfg.as_dict()

    def test_bytes_input_accepted(self):
        cfg = parse({"target": {"name": "gmm", "dim": 2},
                     "algorithm": {"name": "msip-f"}})
        again = parse_config(serialize_config(cfg).encode("utf-8"))
        assert again.as_dict() == cfg.as_dict()


class TestBuildParams:
    def test_msip_variants_map_to_estimators(self):
        expected = {"msip-f": "fredholm", "msip-gi": "stein",
                    "msip-gf": "gf", "msip-hybrid": "hybrid"}
        for name, estimator in expected.items():
            cfg = parse({"target": {"name": "gmm", "dim": 2},
                         "algorithm": {"name": name}})
            p = build_params(cfg, seed=17)
            assert isinstance(p, MsipParams)
            assert p.estimator == estimator
            assert p.seed == 17
            assert p.kernel.sigma == 0.5 and p.kernel.lam == 1e-6
            assert p.bounds == (-1000.0, 1000.0)

    def test_gamma_has_one_default(self):
        # A config's gamma, MsipParams' and estimate_embeddings' agree.
        cfg = parse({"target": {"name": "gmm", "dim": 2},
                     "algorithm": {"name": "msip-hybrid"}})
        default = inspect.signature(estimate_embeddings) \
            .parameters["gamma"].default
        assert cfg.algorithm["params"]["gamma"] == MsipParams.gamma \
            == default == 0.5

    def test_baseline_params(self):
        svgd = build_params(
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "svgd"}}), seed=3)
        assert isinstance(svgd, SvgdParams) and svgd.bandwidth == 0.25
        cbs = build_params(
            parse({"target": {"name": "gmm", "dim": 2},
                   "algorithm": {"name": "cbs"}}), seed=3)
        assert isinstance(cbs, CbsParams) and cbs.beta == 0.9
        assert set(ALGORITHM_NAMES) == {
            "msip-f", "msip-gi", "msip-gf", "msip-hybrid",
            "svgd", "a-svgd", "cbs",
        }


class TestRunExperiment:
    def test_traced_peak_of_a_trial_at_m400_d10(self):
        # One workspace holds every step's Gram matrix and factor and
        # lends them to the metric rows, so a trial peaks while a KSD row
        # adds its row blocks to it. Steps that allocated the pair anew
        # and a KSD that allocated three M x M arrays peaked at 3.86 here.
        cfg = small_config(
            target={"name": "gmm", "dim": 10, "seed": 0},
            algorithm={"name": "msip-f", "params": {"T": 4}},
            particles={"M": 400},
            metrics={"every_n_iters": 1},
            trials={"count": 1, "base_seed": 0},
        )
        target = make_benchmark("gmm", 10, 0)
        mmd = Mmd(target.analytic, cfg.metrics["mmd_bandwidth"])
        # the first run fills the target's caches; its last rows hold a KSD
        rows = _run_trial(cfg, target, 0, mmd).report.rows
        assert math.isfinite(rows[-1]["ksd"])
        peak = conftest.traced_peak(_run_trial, cfg, target, 0, mmd)
        assert peak <= 3.25 * 400 * 400 * 8

    def test_row_cadence(self):
        cfg = small_config(
            algorithm={"name": "msip-f", "params": {"T": 1000}},
            metrics={"every_n_iters": 100},
            trials={"count": 1, "base_seed": 0},
        )
        results = run_experiment(cfg)
        iters = [row["iteration"] for row in results[0].report.rows]
        assert iters == list(range(0, 1001, 100))
        assert len(iters) == 11

    def test_deterministic_across_calls(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.final.Y, rb.final.Y)
            assert np.array_equal(ra.final.w, rb.final.w)
            for rowa, rowb in zip(ra.report.rows, rb.report.rows):
                for key in ("iteration", "mmd2", "ksd", "loglik",
                            "density_evals", "score_evals", "status"):
                    assert rowa[key] == rowb[key]

    def test_trial_seed_isolation(self):
        # trial t of a batch equals trial 0 of a run based at seed + t
        batch = run_experiment(small_config())
        single = run_experiment(
            small_config(trials={"count": 1, "base_seed": 1})
        )
        a, b = batch[1], single[0]
        assert a.seed == b.seed == 1
        assert np.array_equal(a.final.Y, b.final.Y)
        for rowa, rowb in zip(a.report.rows, b.report.rows):
            assert rowa["mmd2"] == rowb["mmd2"]
            assert rowa["ksd"] == rowb["ksd"]

    def test_counters_accumulate_per_iteration(self):
        # M = 5, T = 20, every 5; row i counts steps 0 ... i-1, and msip-f's
        # final row also counts the final weight solve
        expected = {
            "msip-f": ([0, 25, 50, 75, 105], [0, 25, 50, 75, 105]),
            "svgd": ([0, 0, 0, 0, 0], [0, 25, 50, 75, 100]),
            "cbs": ([0, 25, 50, 75, 100], [0, 0, 0, 0, 0]),
        }
        for name, (density, score) in expected.items():
            cfg = small_config(algorithm={"name": name, "params": {"T": 20}},
                               trials={"count": 1, "base_seed": 0})
            rows = run_experiment(cfg)[0].report.rows
            assert [r["iteration"] for r in rows] == [0, 5, 10, 15, 20]
            assert [r["density_evals"] for r in rows] == density, name
            assert [r["score_evals"] for r in rows] == score, name
            assert all(r["status"] == "ok" for r in rows)

    def test_metric_subset_leaves_other_columns_none(self):
        cfg = small_config(metrics={"list": ["loglik"],
                                    "every_n_iters": 10})
        rows = run_experiment(cfg)[0].report.rows
        for row in rows:
            assert row["mmd2"] is None and row["ksd"] is None
            assert isinstance(row["loglik"], float)

    def test_coverage_reported_from_final_configuration(self):
        cfg = small_config(
            algorithm={"name": "msip-f", "params": {"T": 200}},
            particles={"M": 10},
            trials={"count": 1, "base_seed": 0},
        )
        result = run_experiment(cfg)[0]
        assert result.coverage is not None
        assert 0 <= result.coverage <= 5

    def test_sample_mmd_used_without_analytic_embeddings(self, monkeypatch):
        cfg = small_config(
            target={"name": "funnel", "dim": 2},
            algorithm={"name": "msip-gf", "params": {"T": 10}},
            metrics={"list": ["mmd2", "loglik"], "every_n_iters": 5,
                     "reference_sample_size": 400},
            trials={"count": 1, "base_seed": 0},
        )
        calls = []
        self_rowsums = msip.metrics.se_self_rowsums

        def counted(*args):
            calls.append(args)
            return self_rowsums(*args)

        grams = []
        gram = msip.kernel.gram

        def counted_gram(*args, **kwargs):
            grams.append(args)
            return gram(*args, **kwargs)

        points = []
        log_density = TargetDensity.log_density

        def counted_log_density(self, x):
            points.append(np.atleast_2d(x).shape[0])
            return log_density(self, x)

        monkeypatch.setattr(msip.metrics, "se_self_rowsums", counted)
        monkeypatch.setattr(msip.kernel, "gram", counted_gram)
        monkeypatch.setattr(TargetDensity, "log_density",
                            counted_log_density)
        result = run_experiment(cfg)[0]
        rows = result.report.rows
        assert len(rows) == 3
        # the N x N self term is computed once per experiment, not per row
        assert len(calls) == 1
        # rows reuse the weights of the step: one Gram per step and one for
        # the final solve, and every density evaluation is either counted
        # or one of the M points of a loglik row
        assert len(grams) == 10 + 1
        assert sum(points) == rows[-1]["density_evals"] + 5 * len(rows)
        assert all(row["mmd2"] >= 0.0 for row in rows)
        assert all(math.isfinite(row["mmd2"]) for row in rows)
        target = make_benchmark("funnel", 2, cfg.target["seed"])
        X = reference_samples(target, 400, [0, 3])
        mmd = Mmd(X, cfg.metrics["mmd_bandwidth"])
        final = result.final
        assert rows[-1]["mmd2"] == mmd(final.Y, normalize_weights(final.w))

    def test_mixture_norm_computed_once_per_experiment(self, monkeypatch):
        # The exact MMD^2's C_pi depends on neither Y nor w.
        cfg = small_config()
        calls = []
        c_pi = msip.metrics.gmm_c_pi

        def counted(*args):
            calls.append(args)
            return c_pi(*args)

        monkeypatch.setattr(msip.metrics, "gmm_c_pi", counted)
        results = run_experiment(cfg)
        assert sum(len(r.report.rows) for r in results) == 10
        assert len(calls) == 1

    @staticmethod
    def counted_target(target, calls):
        def counted(fn):
            def wrapped(X):
                calls.append(X.shape[0])
                return fn(X)
            return wrapped

        return dataclasses.replace(
            target,
            base_log_density=counted(target.base_log_density),
            base_log_density_and_score=counted(
                target.base_log_density_and_score),
        )

    def test_metric_row_evaluates_target_once(self):
        # ksd and loglik share one log_density_and_score call at Y.
        cfg = small_config(metrics={"list": ["mmd2", "ksd", "loglik"],
                                    "every_n_iters": 5})
        target = make_benchmark("gmm", 2, cfg.target["seed"])
        calls = []
        mmd = Mmd(target.analytic, cfg.metrics["mmd_bandwidth"])
        Y = reference_samples(target, 5, seed=3)
        row = _metric_row(cfg, self.counted_target(target, calls), mmd, Y,
                          np.full(5, 0.2), None)
        assert calls == [5]
        S = target.score(Y)
        assert row["ksd"] == ksd(Y, np.full(5, 0.2), S,
                                 cfg.metrics["ksd_bandwidth"])
        assert row["loglik"] == weighted_loglik(np.full(5, 0.2),
                                                target.log_density(Y))

    def test_unnormalizable_weights_give_nan_row(self):
        # Weights summing to zero: every requested metric reads NaN, the
        # others None, and the target is never evaluated.
        cfg = small_config(metrics={"list": ["mmd2", "ksd"],
                                    "every_n_iters": 5})
        target = make_benchmark("gmm", 2, cfg.target["seed"])
        calls = []
        mmd = Mmd(target.analytic, cfg.metrics["mmd_bandwidth"])
        Y = reference_samples(target, 4, seed=3)
        row = _metric_row(cfg, self.counted_target(target, calls), mmd, Y,
                          np.array([1.0, -1.0, 0.5, -0.5]), None)
        assert list(row) == ["mmd2", "ksd", "loglik"]
        assert math.isnan(row["mmd2"]) and math.isnan(row["ksd"])
        assert row["loglik"] is None
        assert calls == []

    def test_non_finite_score_records_nan_ksd(self):
        # CBS throws funnel particles so far out that the score overflows
        # at some rows; those rows report ksd as NaN and the run goes on.
        cfg = small_config(
            target={"name": "funnel", "dim": 2},
            algorithm={"name": "cbs", "params": {"T": 50}},
            metrics={"list": ["ksd"], "every_n_iters": 10},
            trials={"count": 1, "base_seed": 0},
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(cfg)[0]
        ksds = [row["ksd"] for row in result.report.rows]
        assert len(ksds) == 6
        assert any(math.isnan(v) for v in ksds)
        assert result.status == "ok"

    def test_divergence_is_recorded_not_raised(self):
        cfg = small_config(
            algorithm={"name": "svgd",
                       "params": {"eta": 1e308, "T": 5}},
            trials={"count": 2, "base_seed": 0},
        )
        with np.errstate(invalid="ignore", over="ignore"):
            results = run_experiment(cfg)
        assert [r.status for r in results] == ["diverged", "diverged"]
        for r in results:
            assert r.report.rows[-1]["status"] == "diverged"
            assert np.all(np.isfinite(r.final.Y))
        summary = summarize(cfg, results)
        assert summary["n_trials"] == 2
        assert summary["n_survived"] == 0
        assert summary["metrics"] == {}

    def test_diverged_trial_ends_on_last_finite_configuration(self,
                                                             monkeypatch):
        # Trial 1 of this config diverges at step 7; its last recorded row
        # is step 6, but the callbacks saw the finite Y_7 last.
        seen = {}

        def spy(t, p, Y0, callbacks=()):
            def last(it, Y, w, diag):
                seen[p.seed] = Y
            return run_svgd(t, p, Y0, callbacks=[*callbacks, last])

        monkeypatch.setattr(msip.harness, "run_svgd", spy)
        doc = GOLDEN_CASES["svgd-himmelblau-diverged"]
        cfg = parse_config(json.dumps(doc))
        with np.errstate(invalid="ignore", over="ignore"):
            results = run_experiment(cfg)
        for r in results:
            assert r.status == "diverged"
            assert np.array_equal(r.final.Y, seen[r.seed])
            assert np.array_equal(r.final.w, np.full(6, 1.0 / 6))
        assert results[1].report.rows[-1]["iteration"] == 6

    def test_on_trial_callback_sees_results_in_order(self):
        cfg = small_config()
        seen = []
        run_experiment(cfg, on_trial=lambda r: seen.append(r.trial))
        assert seen == [0, 1]


class TestSummarize:
    def test_statistics_recompute(self):
        cfg = small_config(trials={"count": 4, "base_seed": 0})
        results = run_experiment(cfg)
        summary = summarize(cfg, results)
        finals = [r.report.rows[-1]["mmd2"] for r in results]
        stats = summary["metrics"]["mmd2"]
        assert stats["mean"] == pytest.approx(np.mean(finals), rel=1e-12)
        assert stats["std"] == pytest.approx(np.std(finals, ddof=1),
                                             rel=1e-12)
        assert stats["p05"] == pytest.approx(
            np.percentile(finals, 5.0), rel=1e-12
        )
        assert stats["p95"] == pytest.approx(
            np.percentile(finals, 95.0), rel=1e-12
        )
        cov = summary["coverage"]
        assert cov["n_modes"] == 5
        assert cov["mean"] == pytest.approx(
            np.mean([r.coverage for r in results]), rel=1e-12
        )
        assert 0.0 <= cov["all_modes_rate"] <= 1.0

    def test_trial_entries(self):
        cfg = small_config()
        results = run_experiment(cfg)
        summary = summarize(cfg, results)
        assert summary["config"] == cfg.as_dict()
        assert len(summary["trials"]) == 2
        for i, entry in enumerate(summary["trials"]):
            assert entry["trial"] == i
            assert entry["seed"] == i
            assert entry["status"] == "ok"
            assert entry["finals"]["iteration"] == 20
            assert "mmd2" in entry["finals"]

    def test_single_trial_has_zero_std(self):
        cfg = small_config(trials={"count": 1, "base_seed": 0})
        results = run_experiment(cfg)
        assert summarize(cfg, results)["metrics"]["mmd2"]["std"] == 0.0


class TestEmitCsv:
    def test_layout_and_round_trip(self, tmp_path):
        cfg = small_config()
        results = run_experiment(cfg)
        path = emit_csv(results, tmp_path / "metrics.csv")
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\r" not in text
        lines = text.rstrip("\n").split("\n")
        assert lines[0] == CSV_HEADER
        n_rows = sum(len(r.report.rows) for r in results)
        assert len(lines) == 1 + n_rows
        reader = csv.DictReader(io.StringIO(text))
        parsed = list(reader)
        assert len(parsed) == n_rows
        # float cells round-trip exactly through the %.17g format
        first = parsed[0]
        assert float(first["mmd2"]) == results[0].report.rows[0]["mmd2"]
        assert first["trial"] == "0"
        assert first["status"] == "ok"

    def test_unrequested_metrics_are_empty_cells(self, tmp_path):
        cfg = small_config(metrics={"list": ["mmd2"],
                                    "every_n_iters": 10})
        results = run_experiment(cfg)
        path = emit_csv(results, tmp_path / "metrics.csv")
        rows = list(csv.DictReader(io.StringIO(
            path.read_text(encoding="utf-8")
        )))
        assert all(row["ksd"] == "" and row["loglik"] == ""
                   for row in rows)
        assert all(row["mmd2"] != "" for row in rows)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_matches_golden_file(self, tmp_path, name):
        # Byte-for-byte regression (wall-clock column excluded). SVGD
        # overflows on its way to diverging, on purpose.
        quiet = {"over": "ignore", "invalid": "ignore"} \
            if name.endswith("-diverged") else {}
        with np.errstate(**quiet):
            path = make_golden_csv(tmp_path, name)
        got = _blank_wall_ms(path.read_text(encoding="utf-8"))
        want = _blank_wall_ms((GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8"))
        assert got == want


PLANAR_FIXTURES = ("gmm", "gmm5-aniso-2d", "funnel", "himmelblau")


class TestScatterSvg:
    def make_pc(self, m=7, seed=171):
        rng = np.random.default_rng(seed)
        Y = rng.uniform(0.0, 7.5, size=(m, 2))
        w = rng.standard_normal(m)
        w[0] = abs(w[0]) + 1.0  # keep the sum normalizable
        return ParticleConfiguration(Y=Y, w=w)

    def test_emits_parseable_svg(self, tmp_path):
        target = make_benchmark("gmm", 2, seed=0)
        pc = self.make_pc()
        path = emit_scatter_svg(pc, target, tmp_path / "plot.svg")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        particle_circles = [c for c in circles if c.get("r") == "4"]
        assert len(particle_circles) == 7

    def test_single_particle(self, tmp_path):
        target = make_benchmark("gmm", 2, seed=0)
        pc = ParticleConfiguration(Y=np.array([[1.0, 2.0]]),
                                   w=np.array([1.0]))
        path = emit_scatter_svg(pc, target, tmp_path / "one.svg")
        root = ET.parse(path).getroot()
        assert root is not None

    def test_byte_deterministic(self, tmp_path):
        target = make_benchmark("gmm", 2, seed=0)
        pc = self.make_pc()
        a = emit_scatter_svg(pc, target, tmp_path / "a.svg")
        b = emit_scatter_svg(pc, target, tmp_path / "b.svg")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_sign_of_weight_changes_color(self, tmp_path):
        target = make_benchmark("gmm", 2, seed=0)
        pc = ParticleConfiguration(
            Y=np.array([[1.0, 1.0], [5.0, 5.0]]),
            w=np.array([2.0, -1.0]),
        )
        path = emit_scatter_svg(pc, target, tmp_path / "signs.svg")
        root = ET.parse(path).getroot()
        fills = [el.get("fill") for el in root.iter()
                 if el.tag.endswith("circle") and el.get("r") == "4"]
        assert len(set(fills)) == 2

    @pytest.mark.parametrize("lo,hi", [
        ([-1.0, -2.0], [8.0, 9.0]),
        ([-12.0, -12.0], [12.0, 12.0]),
        ([2.5, 0.3], [2.6, 0.31]),
        ([-800.0, -5.0], [-700.0, 5.0]),
    ], ids=["data-box", "wide", "narrow", "far"])
    @pytest.mark.parametrize("name", PLANAR_FIXTURES)
    def test_density_blocks_give_the_whole_grid_bytes(self, name, lo, hi):
        # the reference evaluates all GRID x GRID points in one call; the
        # far box makes the funnel's exp(-x1) overflow to -inf and nan
        target = make_benchmark(name, 2)
        lo, hi = np.array(lo), np.array(hi)
        with np.errstate(over="ignore", invalid="ignore"):
            gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], svgplot.GRID),
                                 np.linspace(lo[1], hi[1], svgplot.GRID))
            logp = target.log_density(
                np.column_stack([gx.ravel(), gy.ravel()])
            ).reshape(svgplot.GRID, svgplot.GRID)
            finite = np.isfinite(logp)
            dens = np.zeros_like(logp)
            if finite.any():
                dens[finite] = np.exp(logp[finite] - logp[finite].max())
            gray = np.round(255.0 - 170.0 * dens[::-1]).astype(np.uint8)
            got = svgplot._density_png(target, lo, hi)
        assert got == svgplot._png_gray(gray)

    @pytest.mark.parametrize("name", PLANAR_FIXTURES)
    def test_traced_peak_of_a_plot(self, tmp_path, name):
        # Evaluated on the whole 200 x 200 grid at once, the mixtures'
        # temporaries took a plot to 9.6 MB; in blocks of 25 rows every
        # fixture stays near 1.4 MB.
        target = make_benchmark(name, 2)
        peak = conftest.traced_peak(emit_scatter_svg, self.make_pc(),
                                    target, tmp_path / "plot.svg")
        assert peak <= 2e6

    def test_rejects_non_planar_configurations(self, tmp_path):
        target = make_benchmark("gmm", 3, seed=0)
        pc = ParticleConfiguration(Y=np.zeros((3, 3)), w=np.ones(3))
        with pytest.raises(UnsupportedDimensionError, match="2"):
            emit_scatter_svg(pc, target, tmp_path / "bad.svg")


class TestWriteOutputs:
    def test_writes_configured_formats(self, tmp_path):
        cfg = small_config(
            output={"directory": str(tmp_path / "res"),
                    "formats": ["csv", "json", "svg"]},
        )
        results = run_experiment(cfg)
        paths = write_outputs(cfg, results)
        assert set(paths) == {"csv", "summary", "final_particles",
                              "svg:0", "svg:1"}
        for p in paths.values():
            assert Path(p).is_file()
        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["n_trials"] == 2
        finals = json.loads(Path(paths["final_particles"]).read_text())
        assert [f["trial"] for f in finals] == [0, 1]
        Y = np.asarray(finals[0]["Y"])
        assert Y.shape == (5, 2)
        np.testing.assert_array_equal(Y, results[0].final.Y)

    def test_non_finite_finals_counted_and_written_as_null(self, tmp_path):
        # CBS throws funnel particles so far out that the final ksd is NaN
        # and the final loglik +inf; the files must stay strict JSON.
        cfg = small_config(
            target={"name": "funnel", "dim": 2},
            algorithm={"name": "cbs", "params": {"T": 50}},
            trials={"count": 1, "base_seed": 0},
            output={"directory": str(tmp_path), "formats": ["json"]},
        )
        with np.errstate(over="ignore", invalid="ignore"):
            results = run_experiment(cfg)
        last = results[0].report.rows[-1]
        assert math.isnan(last["ksd"]) and last["loglik"] == math.inf
        paths = write_outputs(cfg, results)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        summary = json.loads(Path(paths["summary"]).read_text(),
                             parse_constant=reject)
        json.loads(Path(paths["final_particles"]).read_text(),
                   parse_constant=reject)
        assert summary["non_finite"] == {"mmd2": 0, "ksd": 1, "loglik": 1}
        assert set(summary["metrics"]) == {"mmd2"}
        finals = summary["trials"][0]["finals"]
        assert finals["ksd"] is None and finals["loglik"] is None

    def test_out_dir_override(self, tmp_path):
        cfg = small_config(output={"directory": str(tmp_path / "a"),
                                   "formats": ["csv"]})
        results = run_experiment(cfg)
        paths = write_outputs(cfg, results, out_dir=tmp_path / "b")
        assert Path(paths["csv"]).parent == tmp_path / "b"
        assert not (tmp_path / "a").exists()

    def test_unnormalizable_final_weights_skip_their_svg(self, tmp_path):
        cfg = small_config(
            output={"directory": str(tmp_path / "res"),
                    "formats": ["csv", "json", "svg"]},
        )
        results = run_experiment(cfg)
        results[1].final.w = np.array([0.5, -0.5, 0.3, -0.3, 0.0])
        paths = write_outputs(cfg, results)
        assert "svg:0" in paths and "svg:1" not in paths
