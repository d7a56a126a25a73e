"""Checks of the benchmark itself.

    python3 -m pytest benchmarks -q

Tracing must not change a result, every per-layer metric must be
recorded on some workload (a new ``from .x import y`` binding that
escapes the spans shows up as a zero), the peak source must depend on
the seed alone, and the golden-table check must catch a wrong table.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import workloads
from run import BENCH, GOLDEN, NAMES, ROOT, run_rep


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """An untraced and a traced run of every workload at seed 0."""
    spans = tmp_path_factory.mktemp("spans")
    out = {}
    for name in NAMES:
        plain = run_rep(name, 0)
        traced = run_rep(name, 0, spans=spans / f"{name}.jsonl")
        assert "error" not in plain and "error" not in traced
        out[name] = (plain, traced, spans / f"{name}.jsonl")
    return out


def golden(name):
    data = json.loads(GOLDEN.read_text())
    return dict(data, rows=data["tables"][name])


@pytest.mark.parametrize("name", NAMES)
def test_traced_table_equals_untraced(runs, name):
    plain, traced, _ = runs[name]
    assert traced["rows"] == plain["rows"]
    assert workloads.table_mismatch(plain["rows"], golden(name)) is None


def test_every_per_layer_metric_is_recorded(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    for name in NAMES:
        assert set(runs[name][1]["layers"]) == wanted
    for metric in sorted(wanted):
        assert any(runs[name][1]["layers"][metric] > 0 for name in NAMES), \
            metric


def test_spans_are_written(runs):
    _, traced, path = runs["sin2-nitsche-r3"]
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    per_name = {}
    for s in spans:
        per_name[s[0]] = per_name.get(s[0], 0) + 1
    for metric, calls in traced["layers"].items():
        if metric.endswith("_calls"):
            assert per_name[metric[:-len("_calls")]] == calls, metric
    assert {"driver.run", "assembly.assemble", "solver.solve",
            "driver.nitsche_energy_sq"} <= set(per_name)
    for k, (_, start, end, parent, run_id) in enumerate(spans):
        assert start <= end and -1 <= parent < len(spans) and parent != k
        assert run_id == "sin2-nitsche-r3/seed0"
    assert len(traced["phases"]) == traced["layers"]["driver.iterations"]


def test_peak_centre_is_a_pure_function_of_the_seed():
    centres = [workloads.peak_centre(s) for s in range(16)]
    assert centres == [workloads.peak_centre(s) for s in range(16)]
    assert len(set(centres)) > 1
    for cx, cy in centres:
        assert 0.25 <= cx <= 0.75 and 0.25 <= cy <= 0.75

    xs = np.linspace(0.0, 1.0, 41)
    x, y = np.meshgrid(xs, xs)
    moved = next(s for s in range(1, 16) if centres[s] != centres[0])
    cfg0, p0 = workloads.build("peak-conf-r2", 0)
    cfg1, p1 = workloads.build("peak-conf-r2", moved)
    cfg0b, p0b = workloads.build("peak-conf-r2", 0)
    # the seed reaches afem through the source term only
    assert cfg0 == cfg1 == cfg0b
    assert np.array_equal(p0.f(x, y), p0b.f(x, y))
    assert not np.array_equal(p0.f(x, y), p1.f(x, y))


def test_sin2_workloads_ignore_the_seed():
    xs = np.linspace(0.0, 1.0, 11)
    for name in ("sin2-conf-r2", "sin2-nitsche-r3"):
        cfg0, p0 = workloads.build(name, 0)
        cfg1, p1 = workloads.build(name, 12345)
        assert cfg0 == cfg1
        assert np.array_equal(p0.f(xs, xs), p1.f(xs, xs))


def test_peak_table_depends_on_seed_only_through_symmetry(runs):
    again = run_rep("peak-conf-r2", 0)
    assert again["rows"] == runs["peak-conf-r2"][0]["rows"]
    moved = next(s for s in range(1, 16) if workloads.peak_centre(s)
                 != workloads.peak_centre(0))
    other = run_rep("peak-conf-r2", moved)
    assert workloads.table_mismatch(other["rows"],
                                    golden("peak-conf-r2")) is None


def test_golden_check_catches_wrong_tables():
    ref = golden("sin2-nitsche-r3")
    rows = [list(r) for r in ref["rows"]]
    assert workloads.table_mismatch(rows, ref) is None

    def bad(k, col, value):
        changed = [list(r) for r in rows]
        changed[k][workloads.COLUMNS.index(col)] = value
        return workloads.table_mismatch(changed, ref)

    assert bad(3, "n_dofs", rows[3][2] + 1)
    assert bad(2, "marked", rows[2][9] - 1)
    assert bad(1, "eta", rows[1][5] * (1 + 1e-8))
    assert bad(1, "eta", math.nan)
    assert bad(0, "energy_error", math.inf)
    assert bad(4, "eta", rows[4][5] * (1 + 1e-12)) is None
    assert workloads.table_mismatch(rows[:-1], ref)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sin2-conf-r2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
