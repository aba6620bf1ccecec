"""End-to-end command-line interface behavior and exit codes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from msip.acceptance import _blank_wall_ms
from msip.cli import main
from msip.harness import parse_config, run_experiment, write_outputs


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    monkeypatch.delenv("MSIP_SEED", raising=False)


def run_doc(tmp_path, **over):
    doc = {
        "target": {"name": "gmm", "dim": 2, "seed": 0},
        "algorithm": {"name": "msip-f", "params": {"T": 20}},
        "particles": {"M": 5},
        "metrics": {"every_n_iters": 10},
        "trials": {"count": 2, "base_seed": 0},
        "output": {"directory": str(tmp_path / "res"),
                   "formats": ["csv", "json", "svg"]},
    }
    doc.update(over)
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_run_requires_config_argument(self, capsys):
        assert main(["run"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_reports_path_qualified_message(
        self, tmp_path, capsys
    ):
        path = write_cfg(tmp_path, {
            "target": {"name": "gmm", "dim": 2},
            "algorithm": {"name": "msip-f"},
            "particles": {"count": 3},
        })
        assert main(["run", path]) == 1
        assert "particles.count" in capsys.readouterr().err

    def test_too_long_integer_exits_1(self, tmp_path, capsys):
        # json.loads refuses integers of more than 4300 digits with a
        # plain ValueError
        path = tmp_path / "cfg.json"
        path.write_text('{"target": {"name": "gmm", "dim": 1' + "0" * 5000
                        + '}, "algorithm": {"name": "msip-f"}}',
                        encoding="utf-8")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON:")
        assert "4300" in err

    @pytest.mark.parametrize("section,value", [("target", "gmm"),
                                               ("target", 5),
                                               ("metrics", None)])
    def test_section_not_an_object_exits_1(self, tmp_path, capsys, section,
                                           value):
        doc = run_doc(tmp_path, **{section: value})
        assert main(["run", write_cfg(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}: expected an object")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("params,path", [({"T": 3.0}, "params.T"),
                                             ({"T": True}, "params.T"),
                                             ({"Q": 2.0}, "params.Q")])
    def test_non_integer_counts_exit_1(self, tmp_path, capsys, params, path):
        doc = run_doc(tmp_path, algorithm={"name": "msip-gf",
                                           "params": params})
        assert main(["run", write_cfg(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"algorithm.{path}" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("section,path", [
        ({"algorithm": {"name": "msip-f", "params": {"eta": True}}},
         "algorithm.params.eta"),
        ({"algorithm": {"name": "cbs", "params": {"eta": math.nan}}},
         "algorithm.params.eta"),
        ({"algorithm": {"name": "msip-f", "params": {"sigma": math.inf}}},
         "algorithm.params.sigma"),
        ({"algorithm": {"name": "msip-f", "params": {"lam": math.nan}}},
         "algorithm.params.lam"),
        ({"algorithm": {"name": "msip-hybrid",
                        "params": {"gamma": -math.inf}}},
         "algorithm.params.gamma"),
        ({"algorithm": {"name": "cbs", "params": {"beta": math.nan}}},
         "algorithm.params.beta"),
        ({"algorithm": {"name": "cbs", "params": {"noise_scale": math.inf}}},
         "algorithm.params.noise_scale"),
        ({"algorithm": {"name": "svgd", "params": {"bandwidth": math.inf}}},
         "algorithm.params.bandwidth"),
        ({"algorithm": {"name": "svgd", "params": {"bandwidth": True}}},
         "algorithm.params.bandwidth"),
        ({"particles": {"M": 5, "init_mean": [math.nan, 0.0]}},
         "particles.init_mean"),
        ({"particles": {"M": 5, "init_mean": math.inf}},
         "particles.init_mean"),
        ({"metrics": {"mmd_bandwidth": math.inf}},
         "metrics.mmd_bandwidth"),
        ({"algorithm": {"name": "msip-f", "params": {"eta": 10**400}}},
         "algorithm.params.eta"),
    ])
    def test_non_finite_or_boolean_numbers_exit_1(self, tmp_path, capsys,
                                                  section, path):
        # json reads NaN, Infinity and -Infinity as floats
        doc = run_doc(tmp_path, **section)
        assert main(["run", write_cfg(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: expected a")
        assert not (tmp_path / "res").exists()


class TestRun:
    def test_end_to_end(self, tmp_path, capsys):
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "trial 0: status=ok" in out
        assert "wrote csv:" in out
        res = tmp_path / "res"
        for name in ("metrics.csv", "summary.json",
                     "final_particles.json", "trial000.svg",
                     "trial001.svg"):
            assert (res / name).is_file()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["run", path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_deterministic_outputs(self, tmp_path):
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["run", path, "--quiet"]) == 0
        first = _blank_wall_ms(
            (tmp_path / "res" / "metrics.csv").read_text(encoding="utf-8")
        )
        assert main(["run", path, "--quiet"]) == 0
        second = _blank_wall_ms(
            (tmp_path / "res" / "metrics.csv").read_text(encoding="utf-8")
        )
        assert first == second

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["run", path, "--seed", "5", "--quiet"]) == 0
        summary = json.loads(
            (tmp_path / "res" / "summary.json").read_text(encoding="utf-8")
        )
        assert summary["config"]["trials"]["base_seed"] == 5
        assert summary["trials"][0]["seed"] == 5

    def test_env_seed_beats_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MSIP_SEED", "9")
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["run", path, "--seed", "5", "--quiet"]) == 0
        summary = json.loads(
            (tmp_path / "res" / "summary.json").read_text(encoding="utf-8")
        )
        assert summary["config"]["trials"]["base_seed"] == 9

    def test_invalid_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MSIP_SEED", "not-a-seed")
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["run", path]) == 1
        assert "MSIP_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,env,key", [
        (["run", "CFG", "--seed", "-1", "--quiet"], None, "--seed"),
        (["run", "CFG", "--quiet"], "-5", "MSIP_SEED"),
        (["grad-check", "CFG", "--seed", "-1"], None, "--seed"),
    ], ids=["run-flag", "env", "grad-check-flag"])
    def test_negative_seeds_are_config_errors(self, tmp_path, monkeypatch,
                                              capsys, argv, env, key):
        if env is not None:
            monkeypatch.setenv("MSIP_SEED", env)
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main([path if a == "CFG" else a for a in argv]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {key}: must be >= 0, got -")
        assert not (tmp_path / "res").exists()

    def test_out_flag_overrides_directory(self, tmp_path):
        path = write_cfg(tmp_path, run_doc(tmp_path))
        other = tmp_path / "elsewhere"
        assert main(["run", path, "--out", str(other), "--quiet"]) == 0
        assert (other / "metrics.csv").is_file()
        assert not (tmp_path / "res").exists()

    def test_all_trials_diverging_exits_2(self, tmp_path, capsys):
        doc = run_doc(
            tmp_path,
            algorithm={"name": "svgd", "params": {"eta": 1e308, "T": 5}},
        )
        path = write_cfg(tmp_path, doc)
        with np.errstate(invalid="ignore", over="ignore"):
            assert main(["run", path, "--quiet"]) == 2
        assert "every trial diverged" in capsys.readouterr().err


class TestGradCheck:
    def test_passes_on_mixture_target(self, tmp_path, capsys):
        doc = run_doc(tmp_path, particles={"M": 6})
        path = write_cfg(tmp_path, doc)
        assert main(["grad-check", path]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_rejects_targets_without_analytic_embeddings(
        self, tmp_path, capsys
    ):
        doc = run_doc(tmp_path, target={"name": "funnel", "dim": 2},
                      algorithm={"name": "msip-gf", "params": {"T": 20}},
                      metrics={"list": ["ksd"], "every_n_iters": 10})
        path = write_cfg(tmp_path, doc)
        assert main(["grad-check", path]) == 1
        assert "Gaussian-mixture" in capsys.readouterr().err

    def test_rejects_baseline_configs(self, tmp_path, capsys):
        doc = run_doc(tmp_path, algorithm={"name": "svgd"})
        path = write_cfg(tmp_path, doc)
        assert main(["grad-check", path]) == 1
        assert "msip-" in capsys.readouterr().err


class TestInvariance:
    def test_reports_deviation(self, tmp_path, capsys):
        assert main(["invariance"]) == 0
        assert "max relative map deviation" in capsys.readouterr().out
        # the check runs a fixed suite and takes no config
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["invariance", path]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestPlot:
    def test_reemits_svgs(self, tmp_path, capsys):
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["run", path, "--quiet"]) == 0
        res = tmp_path / "res"
        original = (res / "trial000.svg").read_bytes()
        out = tmp_path / "plots"
        assert main(["plot", str(res), "--out", str(out), "--quiet"]) == 0
        assert (out / "trial000.svg").read_bytes() == original
        assert (out / "trial001.svg").is_file()

    def test_skips_trials_that_cannot_be_normalized(self, tmp_path, capsys):
        path = write_cfg(tmp_path, run_doc(tmp_path))
        assert main(["run", path, "--quiet"]) == 0
        res = tmp_path / "res"
        original = (res / "trial000.svg").read_bytes()
        finals_path = res / "final_particles.json"
        finals = json.loads(finals_path.read_text(encoding="utf-8"))
        finals[1]["w"] = [1.0, -1.0, 0.0, 0.0, 0.0]
        finals_path.write_text(json.dumps(finals), encoding="utf-8")
        out = tmp_path / "plots"
        capsys.readouterr()
        assert main(["plot", str(res), "--out", str(out)]) == 0
        std = capsys.readouterr()
        assert std.out == f"wrote {out / 'trial000.svg'}\n"
        assert std.err.startswith("skipped trial 1: weight sum 0 too close "
                                  "to zero to normalize")
        assert (out / "trial000.svg").read_bytes() == original
        assert not (out / "trial001.svg").exists()
        # msip run applies the same rule: the trial gets no plot
        cfg = parse_config(json.dumps(run_doc(tmp_path)))
        results = run_experiment(cfg)
        results[1].final.w[:] = finals[1]["w"]
        paths = write_outputs(cfg, results, out_dir=tmp_path / "rerun")
        assert "svg:0" in paths and "svg:1" not in paths
        assert not (tmp_path / "rerun" / "trial001.svg").exists()

    def test_requires_run_outputs(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["plot", str(empty)]) == 1
        assert "summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize("summary,message", [
        (b"{not json", "summary.json: not valid JSON"),
        (b"\xff\xfe", "summary.json: not valid JSON"),
        (b"[1, 2]", "summary.json: no config section"),
        (b'{"algorithm": "msip-f"}', "summary.json: no config section"),
        (b'{"config": {"target": "gmm", "algorithm": {"name": "msip-f"}}}',
         "summary.json: target: expected an object"),
        (b'{"config": ' + b"1" * 5000 + b"}",
         "summary.json: not valid JSON: Exceeds the limit (4300 digits)"),
    ], ids=["not-json", "not-utf8", "not-an-object", "no-config",
            "bad-config", "too-long-integer"])
    def test_malformed_summary_exits_1(self, tmp_path, capsys, summary,
                                       message):
        (tmp_path / "summary.json").write_bytes(summary)
        (tmp_path / "final_particles.json").write_text("[]", encoding="utf-8")
        assert main(["plot", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_malformed_final_particles_exits_1(self, tmp_path, capsys):
        summary = {"config": run_doc(tmp_path)}
        (tmp_path / "summary.json").write_text(json.dumps(summary),
                                               encoding="utf-8")
        (tmp_path / "final_particles.json").write_text("[{", encoding="utf-8")
        assert main(["plot", str(tmp_path), "--quiet"]) == 1
        assert ("final_particles.json: not valid JSON"
                in capsys.readouterr().err)

    def test_too_long_integer_in_final_particles_exits_1(self, tmp_path,
                                                          capsys):
        summary = {"config": run_doc(tmp_path)}
        (tmp_path / "summary.json").write_text(json.dumps(summary),
                                               encoding="utf-8")
        (tmp_path / "final_particles.json").write_text(
            '[{"trial": 1' + "0" * 5000 + "}]", encoding="utf-8")
        assert main(["plot", str(tmp_path), "--quiet"]) == 1
        assert ("final_particles.json: not valid JSON: Exceeds the limit "
                "(4300 digits)" in capsys.readouterr().err)

    @pytest.mark.parametrize("finals,message", [
        ({"trial": 0}, "final_particles.json: expected a list of trials"),
        ([{}], "entry 0: trial must be an integer"),
        ([5], "entry 0: expected an object"),
        ([{"trial": True, "Y": [[0, 0]], "w": [1]}],
         "entry 0: trial must be an integer"),
        ([{"trial": 0, "Y": [[0, 0]], "w": [1]},
          {"trial": 1.5, "Y": [[0, 0]], "w": [1]}],
         "entry 1: trial must be an integer"),
        ([{"trial": 0, "w": [1]}], "entry 0: Y must be a finite n x 2"),
        ([{"trial": 0, "Y": [[0, None]], "w": [1]}],
         "entry 0: Y must be a finite n x 2"),
        ([{"trial": 0, "Y": [[0, 1, 2]], "w": [1]}],
         "entry 0: Y must be a finite n x 2"),
        ([{"trial": 0, "Y": [[0, 1], [2]], "w": [1, 1]}],
         "entry 0: Y must be a finite n x 2"),
        ([{"trial": 0, "Y": [["0", "1"]], "w": [1]}],
         "entry 0: Y must be a finite n x 2"),
        ([{"trial": 0, "Y": [], "w": []}], "entry 0: Y must be a finite n x 2"),
        ([{"trial": 0, "Y": [[0, 0]], "w": [1, 2]}],
         "entry 0: w must be a finite array of length 1"),
        ([{"trial": 0, "Y": [[0, 0]]}],
         "entry 0: w must be a finite array of length 1"),
        ([{"trial": 0, "Y": [[0, 0], [1, 1]], "w": [1, None]}],
         "entry 0: w must be a finite array of length 2"),
    ], ids=["not-a-list", "empty-entry", "not-an-object", "bool-trial",
            "float-trial-second-entry", "no-Y", "null-in-Y", "three-columns",
            "ragged-Y", "string-Y", "no-particles", "w-too-long", "no-w",
            "null-in-w"])
    def test_malformed_final_entries_exit_1(self, tmp_path, capsys, finals,
                                            message):
        summary = {"config": run_doc(tmp_path)}
        (tmp_path / "summary.json").write_text(json.dumps(summary),
                                               encoding="utf-8")
        (tmp_path / "final_particles.json").write_text(json.dumps(finals),
                                                       encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot", str(tmp_path), "--out", str(out),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "final_particles.json" in err
        # no plot is written before every entry is checked
        assert not list(out.glob("*.svg"))


class TestBench:
    def test_single_criterion(self, capsys):
        assert main(["bench", "--only", "10"]) == 0
        out = capsys.readouterr().out
        assert "criterion 10" in out
        assert "1/1 criteria passed" in out

    def test_malformed_only(self, capsys):
        assert main(["bench", "--only", "ten"]) == 1
        assert "comma-separated integers" in capsys.readouterr().err

    def test_only_matching_nothing(self, capsys):
        assert main(["bench", "--only", "99"]) == 1
        assert "no criterion 99;" in capsys.readouterr().err

    @pytest.mark.parametrize("only", [",", "", ",,"])
    def test_empty_selection_is_rejected_before_any_runs(self, monkeypatch,
                                                         capsys, only):
        import msip.acceptance

        monkeypatch.setattr(msip.acceptance, "run_all", None)
        assert main(["bench", "--only", only]) == 1
        assert capsys.readouterr().err == (
            f"error: --only: no criterion number in {only!r}\n")

    def test_unknown_criteria_are_rejected_before_any_runs(self, monkeypatch,
                                                           capsys):
        import msip.acceptance

        monkeypatch.setattr(msip.acceptance, "run_all", None)
        assert main(["bench", "--only", "4,11,0"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: --only: no criterion 11, 0; the criteria "
                       "are numbered 1-10\n")
