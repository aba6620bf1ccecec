"""The selection options of tests/run_digests.py: --list and named
configs, and the purpose of the box12 config. The whole matrix is
checked in tests/test_digests.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import msip.harness
from run_digests import matrix

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "run_digests.py"


def _run(*args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_list_prints_the_names_of_the_matrix():
    names = [line.split()[0] for line in
             (HERE / "digests.txt").read_text(encoding="utf-8").splitlines()]
    out = _run("--list")
    assert out.returncode == 0
    assert out.stdout.splitlines() == names


def test_named_configs_print_their_committed_lines_in_matrix_order():
    lines = (HERE / "digests.txt").read_text(encoding="utf-8").splitlines()
    wanted = {"msip-gf/funnel", "cbs/himmelblau"}
    out = _run("msip-gf/funnel", "cbs/himmelblau")
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        line for line in lines if line.split()[0] in wanted]


def test_unknown_name_is_a_usage_error():
    out = _run("msip-gf/nowhere")
    assert out.returncode == 2
    assert "msip-gf/nowhere" in out.stderr


def test_box12_config_clamps_steps_to_its_bounds(monkeypatch):
    # the one config of the matrix whose runs reach their bounds box: a
    # clamped step puts a coordinate exactly on a face
    on_face = []

    def run_msip(t, p, Y0, callbacks=(), work=None):
        def cb(it, Y, w, diag):
            on_face.append(bool((np.abs(Y) == 12.0).any()))
        return run(t, p, Y0, callbacks=[*callbacks, cb], work=work)

    run = msip.harness.run_msip
    monkeypatch.setattr(msip.harness, "run_msip", run_msip)
    doc = dict(matrix())["msip-f/gmm5-aniso-2d/box12"]
    assert doc["algorithm"]["params"]["bounds"] == [-12, 12]
    msip.harness.run_experiment(msip.harness.parse_config(json.dumps(doc)))
    assert len(on_face) == 80 and any(on_face)
