"""One benchmark repetition in a fresh interpreter.

    python3 benchmarks/child.py WORKLOAD SEED [--spans PATH]

Times the set-up (importing ``afem`` with numpy and scipy, building the
problem and configuration) and ``afem.driver.run``, and prints one JSON
object: the timings, peak RSS, the machine-speed reference before and
after the run, and the convergence table.  With ``--spans`` the run is
traced; the object then also carries the per-layer metrics and the
per-iteration phase split, and the spans are written to PATH.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REF_LOOP = 1_000_000


def speed_reference() -> float:
    """CPU seconds of a fixed pure-Python loop: a machine-speed yardstick."""
    start = time.process_time()
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc + i * i) % 1_000_003
    return time.process_time() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--spans", metavar="PATH")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cfg, prob = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0

    from afem import driver

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}/seed{args.seed}")
        tracing.install(tracer)

    out = {"setup_s": setup_s, "ref_before_s": speed_reference()}
    try:
        start = time.perf_counter()
        records = driver.run(cfg, prob)
        out["run_s"] = time.perf_counter() - start
        out["rows"] = workloads.table(records)
    except Exception as exc:  # a failed run is a result, not a crash
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["traceback"] = traceback.format_exc()
    out["ref_after_s"] = speed_reference()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and "error" not in out:
        out["layers"] = tracer.layer_metrics()
        out["phases"] = tracer.phase_split()
        tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
