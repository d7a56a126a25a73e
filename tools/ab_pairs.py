"""Paired fresh-process comparison of this tree against another one.

    python3 tools/ab_pairs.py OTHER_TREE WORKLOADS [--pairs N] [--seed S]

``WORKLOADS`` is a comma-separated list of names from
``benchmarks/workloads.py`` (or ``all``).  Each pair runs, workload after
workload, one ``benchmarks/child.py`` repetition of this tree and one of
``OTHER_TREE`` (for example a ``git archive`` export of the parent
commit), each tree with its own ``child.py`` and sources.  The side that
goes first alternates from pair to pair, so a drift of the machine's
speed hits both sides, and every workload, alike.  Per workload, for
``run_s``, ``setup_s`` and ``peak_rss_mb``, this prints each side's
median and quartiles, the pairs in which this tree is lower, the ratio
of the medians (this tree over the other) and a verdict: ``gain`` when
this tree is lower in at least 9 of 10 pairs and its median is lower by
more than the other tree's quartile distance, ``loss`` when the same
holds with the trees swapped, and ``unresolved`` otherwise.  A failed
repetition stops the script with its error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
METRICS = ("run_s", "setup_s", "peak_rss_mb")


def repetition(tree: Path, workload: str, seed: int) -> dict:
    """One ``benchmarks/child.py`` run of ``tree`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "child.py"), workload,
         str(seed)], cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        sys.exit(f"{tree}: exit {proc.returncode}: {tail[0]}")
    rec = json.loads(lines[-1])
    if "error" in rec:
        sys.exit(f"{tree}: {rec['error']}")
    return rec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(this: list[float], other: list[float]) -> str:
    """``gain``, ``loss`` or ``unresolved`` for a lower-is-better metric:
    one side is lower in at least 9/10 of the pairs, and the medians
    differ by more than the other side's quartile distance."""
    for word, low, high in (("gain", this, other), ("loss", other, this)):
        won = sum(a < b for a, b in zip(low, high))
        h1, hm, h3 = quartiles(high)
        if 10 * won >= 9 * len(low) and hm - quartiles(low)[1] > h3 - h1:
            return word
    return "unresolved"


def workload_names(spec: str) -> list[str]:
    """The names of ``spec``, checked against this tree's workloads."""
    path = HERE / "benchmarks" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("ab_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    names = list(workloads.NAMES) if spec == "all" else spec.split(",")
    unknown = [n for n in names if n not in workloads.NAMES]
    if unknown:
        sys.exit(f"unknown workload {unknown[0]!r}; choose from "
                 f"{', '.join(workloads.NAMES)}")
    return names


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the tree to compare against")
    ap.add_argument("workloads", help="comma-separated names, or 'all'")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    other = args.other.resolve()
    if not (other / "benchmarks" / "child.py").is_file():
        sys.exit(f"{other} has no benchmarks/child.py")
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2")
    names = workload_names(args.workloads)

    sides = {n: {"this": [], "other": []} for n in names}
    for k in range(args.pairs):
        order = [("this", HERE), ("other", other)]
        for n in names:
            for name, tree in order if k % 2 == 0 else order[::-1]:
                sides[n][name].append(repetition(tree, n, args.seed))
            print(f"pair {k + 1}, {n}: " + ", ".join(
                f"{name} {runs[-1]['run_s']:.4f} s"
                for name, runs in sides[n].items()), file=sys.stderr)

    print(f"{args.pairs} pairs: this tree {HERE}, other tree {other}")
    for n in names:
        print(f"{n}:")
        for metric in METRICS:
            this = [rec[metric] for rec in sides[n]["this"]]
            that = [rec[metric] for rec in sides[n]["other"]]
            won = sum(a < b for a, b in zip(this, that))
            (a1, am, a3), (b1, bm, b3) = quartiles(this), quartiles(that)
            print(f"  {metric}: this {am:.4f} [{a1:.4f}, {a3:.4f}], "
                  f"other {bm:.4f} [{b1:.4f}, {b3:.4f}], this lower in "
                  f"{won}/{args.pairs}, ratio {am / bm:.3f}: "
                  f"{verdict(this, that)}")


if __name__ == "__main__":
    main()
