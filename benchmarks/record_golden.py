"""Record the golden convergence tables the benchmark checks against.

    python3 benchmarks/record_golden.py

Runs each workload once at seed 0 in a fresh interpreter and writes
golden.json.  For the peak workload it also runs one seed per symmetry
image of the source centre and refuses to write unless every image's
table matches seed 0's within the tolerance, since one table serves
every seed.
"""

from __future__ import annotations

import json
import random
import sys

from run import GOLDEN, NAMES, run_rep
from workloads import table_mismatch

# round-off tolerance of float columns: |a - b| <= RTOL |b| + ATOL
RTOL = 1e-10
ATOL = 1e-13


def main() -> int:
    tables = {}
    for name in NAMES:
        rec = run_rep(name, 0)
        if "error" in rec:
            print(f"{name}: {rec['error']}", file=sys.stderr)
            return 1
        tables[name] = rec["rows"]
        print(f"{name}: {len(rec['rows'])} iterations, "
              f"{rec['rows'][-1][2]} dofs, {rec['run_s']:.2f} s")

    golden = {"rtol": RTOL, "atol": ATOL, "rows": tables["peak-conf-r2"]}
    seen = {random.Random(0).randrange(8)}
    seed = 0
    while len(seen) < 8:
        seed += 1
        image = random.Random(seed).randrange(8)
        if image in seen:
            continue
        seen.add(image)
        rec = run_rep("peak-conf-r2", seed)
        bad = rec.get("error") or table_mismatch(rec["rows"], golden)
        if bad is not None:
            print(f"peak-conf-r2 seed {seed}: {bad}", file=sys.stderr)
            return 1
        print(f"peak-conf-r2 seed {seed} (image {image}) matches seed 0")

    GOLDEN.write_text(format_golden(tables))
    return 0


def format_golden(tables: dict) -> str:
    """golden.json with one table row per line."""
    parts = []
    for name, rows in tables.items():
        body = ",\n".join("   " + json.dumps(row) for row in rows)
        parts.append(f"  {json.dumps(name)}: [\n{body}\n  ]")
    return (f'{{\n "rtol": {RTOL!r},\n "atol": {ATOL!r},\n "tables": {{\n'
            + ",\n".join(parts) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
