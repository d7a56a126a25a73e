"""Golden-run regression: the benchmark workloads reproduce their tables.

Every kernel refactor must leave the adaptive loop's convergence table
where it was.  This runs the three benchmark configurations through
``benchmarks/workloads.py`` and compares each table with the recorded
``benchmarks/golden.json``: integer columns (dofs, cells, marked counts)
exactly, float columns to the benchmark's relative tolerance.  Both
files are only read.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

from afem.driver import run  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_matches_golden_table(name, golden):
    cfg, prob = workloads.build(name, 0)
    rows = workloads.table(run(cfg, prob))
    assert workloads.table_mismatch(
        rows, dict(golden, rows=golden["tables"][name])) is None
