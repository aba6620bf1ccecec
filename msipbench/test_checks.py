"""Tests of the benchmark's own checks: each accepts the program's output
and rejects a slightly wrong one.

    python3 -m pytest msipbench -q
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import msip.dynamics  # noqa: E402
import msip.harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _one_trial(name, tmp_path_factory):
    cfg = msip.harness.parse_config(WORKLOADS[name].config(
        7, str(tmp_path_factory.mktemp(name)), count=1))
    (result,) = msip.harness.run_experiment(cfg)
    ref = checks.reference(cfg) if cfg.target["name"] == "funnel" else None
    return cfg, checks.target_for(cfg), result, ref


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def trial(request, tmp_path_factory):
    return _one_trial(request.param, tmp_path_factory)


@pytest.fixture(scope="module")
def aniso(tmp_path_factory):
    return _one_trial("aniso-modes", tmp_path_factory)


@pytest.fixture(scope="module")
def funnel(tmp_path_factory):
    return _one_trial("funnel-sample-mmd", tmp_path_factory)


def test_program_output_passes(trial):
    cfg, target, result, ref = trial
    errors, _ = checks.check_trial(cfg, target, result, ref)
    assert errors == []


def test_scaled_weights_rejected(trial):
    cfg, target, result, _ = trial
    bad = copy.deepcopy(result)
    bad.final.w *= 1.0 + 1e-6
    assert checks.check_weights(cfg, target, bad)


def test_moved_particle_rejected(trial):
    cfg, target, result, ref = trial
    bad = copy.deepcopy(result)
    bad.final.Y[np.argmax(np.abs(bad.final.w))] += 1e-3
    assert checks.check_weights(cfg, target, bad)
    if ref is None:
        errors = checks.check_gmm(cfg, target, bad)
    else:
        errors = checks.check_sample_mmd(cfg, target, bad, *ref)
    assert any("final mmd2" in e for e in errors)


def test_counters_rejected(aniso):
    cfg, _, result, _ = aniso
    bad = copy.deepcopy(result)
    bad.report.rows[-1]["density_evals"] += 1
    assert checks.check_counters(cfg, bad)
    bad = copy.deepcopy(result)
    del bad.report.rows[3]
    assert checks.check_counters(cfg, bad)


def test_repeat_must_match_bit_for_bit(aniso):
    _, _, result, _ = aniso
    again = copy.deepcopy(result)
    assert checks.check_repeat(result, again) == []
    again.final.w[0] = np.nextafter(again.final.w[0], np.inf)
    assert checks.check_repeat(result, again)


def test_no_decrease_rejected(aniso, funnel):
    for cfg, target, result, ref in (aniso, funnel):
        bad = copy.deepcopy(result)
        bad.final.Y = checks.initial_particles(cfg, result.seed)
        K, v0 = checks.weight_system(cfg, target, bad.final.Y, result.seed, 0)
        bad.final.w = np.linalg.solve(K, v0)
        if ref is None:
            errors = checks.check_gmm(cfg, target, bad)
        else:
            errors = checks.check_sample_mmd(cfg, target, bad, *ref)
        assert any("not below" in e for e in errors)


def test_offset_dependent_step_rejected(aniso):
    cfg, _, result, _ = aniso

    def step(Y, t, p, **kwargs):
        Y_next, w, diag = msip.dynamics.msip_step(Y, t, p, **kwargs)
        return Y_next + 1e-8 * t.log_scale_offset, w, diag

    errors, _ = checks.check_offset_invariance(cfg, result, step=step)
    assert len(errors) == 2


@pytest.mark.parametrize("target", [checks.gmm5_aniso_2d(),
                                    checks.gmm_uniform(10, 0)])
def test_closed_form_mmd2_matches_monte_carlo(target):
    rng = np.random.default_rng(0)
    sigma = 0.5
    Y = target.sample(25, rng) + 0.3 * rng.standard_normal((25, target.dim))
    w = checks.normalized(rng.uniform(0.5, 1.5, 25))
    n = 200_000
    X, X2 = target.sample(n, rng), target.sample(n, rng)
    # unbiased per-sample terms of c_pi - 2 w.v0 + w'Kw
    pair = np.exp(-((X - X2) ** 2).sum(axis=1) / (2 * sigma**2))
    f = pair - 2.0 * checks.se_gram(X, Y, sigma) @ w \
        + w @ checks.se_gram(Y, Y, sigma) @ w
    se = f.std(ddof=1) / np.sqrt(n)
    exact = checks.gmm_mmd2(target, Y, w, sigma)
    assert abs(f.mean() - exact) <= 4.0 * se
