"""In-process paired comparison of two trees on the benchmark workloads.

    python3 tools/ab_inproc.py TREE_A TREE_B WORKLOADS [--rounds N] [--seed S]

``WORKLOADS`` is a comma-separated list of names from
``benchmarks/workloads.py`` (or ``all``).  Both trees' ``afem`` packages
are loaded into this one interpreter, under the names ``afem_a`` and
``afem_b``, so both see the same machine state at the same time.  Each
workload's configuration and problem are built from the ``CONFIGS`` and
peak constants of this tree's ``benchmarks/workloads.py``, with each
tree's own ``AfemConfig``, ``Problem`` and ``manufactured_sin2``.

A round runs every workload once on each tree, the side that goes first
alternating from round to round, and times ``driver.run`` in thread CPU
time (``time.thread_time``).  ``OPENBLAS_NUM_THREADS`` defaults to 1
here, so that time covers the BLAS work too.  One warm-up round is run
first and dropped.  Per workload this prints each tree's median time,
the median and quartiles of the pair ratios B/A, and the rounds in
which B took less time.  After the timed rounds it prints each tree's
``tracemalloc`` peak of one ``driver.run`` per workload: that count
repeats exactly, so a memory change shows without the noise of
fresh-process RSS.  Fresh-process pairs (``tools/ab_pairs.py``) include
start-up and cold caches, and on a shared machine swing more.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent.parent


def load_module(name: str, path: Path, package: Path | None = None):
    """Import the file ``path`` as module ``name`` (a package when
    ``package`` is its directory)."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None
        else [str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(tree: Path, name: str):
    """The ``driver`` and ``oracles`` modules of ``tree``'s ``afem``,
    loaded as the package ``name``."""
    src = tree / "src" / "afem"
    if not (src / "__init__.py").is_file():
        sys.exit(f"{tree} has no src/afem package")
    load_module(name, src / "__init__.py", src)
    return (importlib.import_module(f"{name}.driver"),
            importlib.import_module(f"{name}.oracles"))


def workload(workloads, driver, oracles, name: str, seed: int):
    """``(AfemConfig, Problem)`` of a workload from one tree's classes, as
    ``workloads.build`` makes them."""
    cfg = driver.AfemConfig(**workloads.CONFIGS[name])
    if not name.startswith("peak"):
        return cfg, driver.Problem.from_manufactured(
            oracles.manufactured_sin2())
    cx, cy = workloads.peak_centre(seed)
    width = workloads.PEAK_WIDTH

    def f(x, y):
        r2 = (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2
        return np.exp(-r2 / width) / width

    return cfg, driver.Problem(name="peak", f=f)


def timed(driver, cfg, prob) -> float:
    """Thread CPU seconds of one ``driver.run``."""
    gc.collect()
    start = time.thread_time()
    driver.run(cfg, prob)
    return time.thread_time() - start


def traced_peak(driver, cfg, prob) -> float:
    """MB that one ``driver.run`` holds at its peak under ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        driver.run(cfg, prob)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("workloads", help="comma-separated names, or 'all'")
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.rounds < 2:
        sys.exit("--rounds must be at least 2")

    workloads = load_module("ab_workloads",
                            HERE / "benchmarks" / "workloads.py")
    names = (list(workloads.NAMES) if args.workloads == "all"
             else args.workloads.split(","))
    unknown = [n for n in names if n not in workloads.CONFIGS]
    if unknown:
        sys.exit(f"unknown workload {unknown[0]!r}; choose from "
                 f"{', '.join(workloads.NAMES)}")
    sides = {}
    for key, tree in (("a", args.tree_a), ("b", args.tree_b)):
        driver, oracles = load_tree(tree.resolve(), f"afem_{key}")
        sides[key] = (driver, {n: workload(workloads, driver, oracles, n,
                                           args.seed) for n in names})

    times = {n: {"a": [], "b": []} for n in names}
    for k in range(args.rounds + 1):  # round 0 warms up and is dropped
        for n in names:
            for key in ("ab" if k % 2 else "ba"):
                driver, problems = sides[key]
                t = timed(driver, *problems[n])
                if k:
                    times[n][key].append(t)

    print(f"{args.rounds} rounds: A {args.tree_a.resolve()}, "
          f"B {args.tree_b.resolve()}")
    for n in names:
        a, b = times[n]["a"], times[n]["b"]
        ratios = [y / x for x, y in zip(a, b)]
        q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        won = sum(y < x for x, y in zip(a, b))
        print(f"  {n}: A {statistics.median(a):.4f} s, "
              f"B {statistics.median(b):.4f} s, B/A {med:.3f} "
              f"[{q1:.3f}, {q3:.3f}], B lower in {won}/{args.rounds}")
    print("tracemalloc peak of one run():")
    for n in names:
        a, b = (traced_peak(sides[key][0], *sides[key][1][n])
                for key in "ab")
        print(f"  {n}: A {a:.3f} MB, B {b:.3f} MB, B - A {b - a:+.3f} MB")


if __name__ == "__main__":
    main()
