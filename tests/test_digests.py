"""The digest matrix of tests/run_digests.py against tests/digests.txt.

digests.txt holds one SHA-256 per config of the matrix: metric rows,
statuses, coverage and the final Y and w of short seeded runs. A change
that leaves every line equal kept every output bit for bit. A change
meant to move the arithmetic regenerates the file, with one BLAS thread,

    OPENBLAS_NUM_THREADS=1 python3 tests/run_digests.py > tests/digests.txt

and records the reason in CHANGES.md, as for the golden CSVs.

The script runs in a subprocess with OPENBLAS_NUM_THREADS=1: the thread
count is read when numpy loads, and the configs with M > 128 give other
digests with two OpenBLAS threads than with one.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_digest_matrix_matches_committed_lines():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, str(HERE / "run_digests.py")],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    expected = (HERE / "digests.txt").read_text(encoding="utf-8").splitlines()
    assert len(out) == len(expected)
    for got, want in zip(out, expected):
        assert got == want
