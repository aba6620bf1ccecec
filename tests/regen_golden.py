"""Regenerate golden CSVs in tests/golden/ from their frozen configs.

Run after an intentional behavior change, naming the files to rewrite
(stems of test_harness.GOLDEN_CASES); with no names, all are rewritten:

    python tests/regen_golden.py [metrics msip-gf-funnel ...]

For each file it rewrites, it prints which columns changed, how many
values of each, and the largest relative change per column, leaving out
the wall-clock column ``wall_ms``.
"""

import csv
import io
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import test_harness

IGNORED = ("wall_ms",)


def _relative(old, new):
    """|new - old| / |old| for numbers (inf when old is 0); None if either
    cell is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def column_changes(old_text, new_text):
    """Lines describing the columns that differ between two golden CSVs."""
    old = list(csv.DictReader(io.StringIO(old_text)))
    new = list(csv.DictReader(io.StringIO(new_text)))
    if len(old) != len(new):
        return [f"  rows: {len(old)} -> {len(new)}"]
    lines = []
    for col in new[0].keys() if new else ():
        if col in IGNORED:
            continue
        changed = [(o.get(col), n[col]) for o, n in zip(old, new)
                   if o.get(col) != n[col]]
        if not changed:
            continue
        rels = [_relative(o, n) for o, n in changed]
        largest = ("not numeric" if None in rels
                   else f"largest relative change {max(rels):.3g}")
        lines.append(f"  {col}: {len(changed)} of {len(new)} values, "
                     f"{largest}")
    return lines or ["  no column changed"]


def main(names):
    for name in names or sorted(test_harness.GOLDEN_CASES):
        golden = test_harness.GOLDEN_DIR / f"{name}.csv"
        golden.parent.mkdir(parents=True, exist_ok=True)
        old = golden.read_text(encoding="utf-8") if golden.exists() else ""
        with tempfile.TemporaryDirectory() as tmp:
            path = test_harness.make_golden_csv(tmp, name)
            data = Path(path).read_bytes()
        golden.write_bytes(data)
        print(f"wrote {golden.relative_to(ROOT)}")
        print("\n".join(column_changes(old, data.decode("utf-8"))))


if __name__ == "__main__":
    main(sys.argv[1:])
