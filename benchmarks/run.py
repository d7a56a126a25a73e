"""Benchmark of the adaptive loop on fixed workloads.

    python3 benchmarks/run.py --workload sin2-conf-r2 --seed 0 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all

Runs repetitions of one workload, each in a fresh interpreter, for about
``--seconds`` seconds, checks every convergence table against the
recorded golden table, and prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` traced and
untraced repetitions alternate and the metrics are the per-layer ones
plus the tracing overhead.  Exits 1 if any repetition failed and 2 if
the program under test is missing.  README.md documents the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES, table_mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = BENCH / "golden.json"
OUT = ROOT / ".bench_out"

MIN_REPS = {0: 3, 1: 4}   # per window, even past --seconds
HARD_LIMIT_S = 150.0      # start no repetition after this; exit well within 180 s


def run_rep(workload: str, seed: int, spans: Path | None = None,
            timeout: float = 120.0) -> dict:
    """One repetition in a fresh interpreter; returns the child's record.

    A crash, a timeout or unreadable output yields ``{"error": ...}``.
    """
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s",
                "wall_s": time.perf_counter() - start}
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}",
                "wall_s": wall_s}
    try:
        rec = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "unreadable child output", "wall_s": wall_s}
    rec["wall_s"] = wall_s
    return rec


def check(rec: dict, golden: dict) -> dict:
    """Mark a repetition failed if it errored or left the golden table."""
    if "error" not in rec:
        bad = table_mismatch(rec["rows"], golden)
        if bad is not None:
            rec["error"] = f"golden mismatch: {bad}"
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions for about ``seconds``; odd ones are traced with --trace 1."""
    golden = json.loads(GOLDEN.read_text())
    golden = dict(golden, rows=golden["tables"][workload])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            break
        if len(reps) >= MIN_REPS[trace]:
            typical = statistics.median(r["wall_s"] for r in reps)
            if elapsed + typical > seconds:
                break
        traced = trace and len(reps) % 2 == 1
        rec = run_rep(workload, seed, spans if traced else None,
                      timeout=max(10.0, HARD_LIMIT_S + 20.0 - elapsed))
        rec["traced"] = traced
        reps.append(check(rec, golden))
    return reps


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summarize(workload: str, seed: int, reps: list, trace: bool,
              spec: dict) -> dict:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = [r for r in reps if "error" not in r]
    failed = len(reps) - len(ok)
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    print(f"{workload} seed={seed}: fail_share {failed / len(reps):.3f} "
          f"(failed/attempted = {failed}/{len(reps)})")
    for r in reps:
        if "error" in r:
            print(f"  FAILED: {r['error']}")
    for name, unit in end_to_end.items():
        vals = [r[name] for r in plain]
        if not vals:
            continue
        hp = high_percentile(vals)
        tail = (f"p{hp[0]:.0f} {hp[1]:.4f}" if hp
                else "no percentile with 10 samples above")
        print(f"  {name:<12} median {statistics.median(vals):.4f} {unit}, "
              f"{tail}, n={len(vals)}")
    if plain:
        ref = [0.5 * (r["ref_before_s"] + r["ref_after_s"]) for r in plain]
        drift = [r["ref_after_s"] / r["ref_before_s"] for r in plain]
        norm = [r["run_s"] / x for r, x in zip(plain, ref)]
        print(f"  speed reference (CPU s, not a metric): median "
              f"{statistics.median(ref):.4f} s, after/before "
              f"{min(drift):.3f}..{max(drift):.3f}; run_s / reference "
              f"median {statistics.median(norm):.2f}")

    metrics: dict[str, dict] = {}
    if not trace and plain:
        for name, unit in end_to_end.items():
            metrics[name] = {"value": statistics.median(r[name] for r in plain),
                             "unit": unit}
    if trace and plain and traced:
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in plain))
        for name, unit in per_layer.items():
            vals = [overhead] if name == "trace.overhead_s" else \
                [r["layers"][name] for r in traced]
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
        _print_phases(traced[-1]["phases"])
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")

    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"reps": [{k: v for k, v in r.items() if k != "rows"}
                             for r in reps], "metrics": metrics}, indent=1))
    return {"attempted": len(reps), "failed": failed, "metrics": metrics}


def _print_phases(phases: list[dict]) -> None:
    total = {k: sum(it[k] for it in phases) for k in phases[0]}
    wall = sum(total.values())
    split = ", ".join(f"{k} {100 * v / wall:.0f}%" for k, v in total.items())
    print(f"  phase split over {len(phases)} iterations: {split}")
    for k, it in enumerate(phases):
        print(f"    iter {k:>2}: " + " ".join(f"{name}={v:.3f}"
                                            for name, v in it.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "afem" / "__init__.py").is_file():
        print(f"no afem package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())

    names = NAMES if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        reps = measure(name, args.seed, args.seconds, bool(args.trace))
        part = summarize(name, args.seed, reps, bool(args.trace), spec)
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for key, m in part["metrics"].items():
            result["metrics"][prefix + key] = m
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
