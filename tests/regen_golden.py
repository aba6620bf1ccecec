"""Regenerate golden CSVs in tests/golden/ from their frozen configs.

Run after an intentional behavior change, naming the files to rewrite
(stems of test_harness.GOLDEN_CASES); with no names, all are rewritten:

    python tests/regen_golden.py [metrics msip-gf-funnel ...]
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_harness


def main(names):
    for name in names or sorted(test_harness.GOLDEN_CASES):
        golden = test_harness.GOLDEN_DIR / f"{name}.csv"
        golden.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            path = test_harness.make_golden_csv(tmp, name)
            golden.write_bytes(Path(path).read_bytes())
        print(f"wrote {golden}")


if __name__ == "__main__":
    main(sys.argv[1:])
