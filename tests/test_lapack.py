"""msip._lapack: scipy's LAPACK wrappers without the scipy.linalg import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from msip import _lapack

SRC = Path(__file__).resolve().parent.parent / "src"
ROUTINES = ("dpotrf", "dpotrs", "dtrtrs")


def run_python(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout.split()


def test_import_leaves_scipy_linalg_unloaded():
    out = run_python(
        "import sys; import msip, msip.harness, msip.cli; "
        "print(*sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out == ["scipy.linalg._flapack"]


def test_routines_are_scipys():
    lapack = pytest.importorskip("scipy.linalg.lapack")
    for name in ROUTINES:
        assert getattr(_lapack, name) is getattr(lapack, name)


def test_scipy_imported_afterwards_reuses_the_routines():
    out = run_python(
        "import msip._lapack as m; import scipy.linalg.lapack as l; "
        f"print(all(getattr(m, n) is getattr(l, n) for n in {ROUTINES}))")
    assert out == ["True"]


def test_fallback_yields_the_same_routines():
    # With no extension suffix to try, the file lookup finds nothing and
    # the routines come through scipy.linalg.lapack.
    out = run_python(
        "import importlib.machinery, sys; "
        "importlib.machinery.EXTENSION_SUFFIXES[:] = []; "
        "import msip._lapack as m; print('scipy.linalg' in sys.modules); "
        "import scipy.linalg.lapack as l; "
        f"print(all(getattr(m, n) is getattr(l, n) for n in {ROUTINES}))")
    assert out == ["True", "True"]
