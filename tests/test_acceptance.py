"""Acceptance matrix: every check must pass within its time budget.

Each test runs one end-to-end acceptance criterion and reports its
one-line detail on failure. These are the binding quality gates for the
package; the statistical ones (mode coverage, quadrature-error decay)
execute many full runs and dominate the suite's runtime.
"""

from types import SimpleNamespace

import pytest

from msip import acceptance


def check(result):
    assert result.passed, (
        f"{result.name}: {result.detail} "
        f"[{result.seconds:.1f}s of {result.budget:.0f}s budget]"
    )


def test_gradient_exactness():
    check(acceptance.criterion_1())


def test_normalization_invariance():
    check(acceptance.criterion_2())


def test_estimator_consistency():
    check(acceptance.criterion_3())


def test_single_gaussian_contraction():
    check(acceptance.criterion_4())


def test_mode_coverage():
    check(acceptance.criterion_5())


def test_mmd_vs_particle_count():
    check(acceptance.criterion_6())


def test_deconvolution_fixed_point():
    check(acceptance.criterion_7())


def test_metric_cross_consistency():
    check(acceptance.criterion_8())


def test_ksd_internals():
    check(acceptance.criterion_9())


def test_harness_determinism():
    check(acceptance.criterion_10())


@pytest.fixture
def stub_gate_runs(monkeypatch):
    """Replace the gate experiment's runs by instant fakes and record the
    (algorithm, M) of each; the gate cache is cleared before and after,
    so no other test reads a fake trial."""
    calls = []

    def run_experiment(cfg):
        name, M = cfg.algorithm["name"], cfg.particles["M"]
        calls.append((name, M))
        msip = name == "msip-f"
        row = {"mmd2": 1.0 / M if msip else 1.0}
        return [SimpleNamespace(status="ok", coverage=5 if msip else 1,
                                report=SimpleNamespace(rows=[row]))] * 20

    acceptance._gate_trials.cache_clear()
    monkeypatch.setattr(acceptance, "run_experiment", run_experiment)
    yield calls
    acceptance._gate_trials.cache_clear()


def test_criteria_5_and_6_share_the_gate_runs(stub_gate_runs):
    five, six = acceptance.criterion_5(), acceptance.criterion_6()
    assert five.passed and six.passed
    assert "msip-f 1.00" in five.detail and "M=25: 0.04" in six.detail
    assert sorted(stub_gate_runs) == [
        ("a-svgd", 25), ("a-svgd", 100),
        ("msip-f", 10), ("msip-f", 25), ("msip-f", 50), ("msip-f", 100)]
