"""The benchmark's fixed adaptive workloads.

Each workload is one configuration of ``afem.driver.run`` on one source
term, stopped by a dof cap.  ``build`` turns a workload name and a seed
into the ``(AfemConfig, Problem)`` pair a user would construct; nothing
else derived from the seed reaches ``afem``.  ``afem`` is imported on the
first ``build``, so a child process's set-up time includes it.  README.md
gives the reasons for each workload.
"""

from __future__ import annotations

import math
import random

import numpy as np

# convergence-table columns, in ConvergenceRecord field order
COLUMNS = ("iter", "n_cells", "n_dofs", "energy_error", "triple_error",
           "eta", "osc", "bnorm32", "bnorm12", "marked")
INT_COLUMNS = frozenset(("iter", "n_cells", "n_dofs", "marked"))

# Gaussian source exp(-|x-c|^2/s)/s of the peak workload
PEAK_WIDTH = 1e-4
# a generic point: off every dyadic line down to level 12
PEAK_BASE_CENTRE = (0.3712, 0.5861)

# AfemConfig keywords per workload; the dof caps keep one run near 2 s on
# a 2-core VM, so one measuring window holds about ten repetitions
CONFIGS = {
    "sin2-conf-r2": dict(degree=2, theta=0.5, mode="conforming",
                         initial_levels=2, max_dofs=250),
    "sin2-nitsche-r3": dict(degree=3, theta=0.5, mode="nitsche",
                            initial_levels=2, max_dofs=150),
    # the default max_iters=25 would stop before the cap
    "peak-conf-r2": dict(degree=2, theta=0.2, mode="conforming",
                         initial_levels=2, max_dofs=100, max_iters=200),
}
NAMES = tuple(CONFIGS)


def peak_centre(seed: int) -> tuple[float, float]:
    """Centre of the peak source for a seed.

    The seed picks one of the eight images of ``PEAK_BASE_CENTRE`` under
    the symmetries of the unit square.  The clamped problem and the
    dyadic quadtree share those symmetries, so every seed refines a
    different region but does the same amount of work and produces the
    same convergence table up to round-off.
    """
    k = random.Random(seed).randrange(8)
    a, b = PEAK_BASE_CENTRE
    if k & 4:
        a, b = b, a
    if k & 1:
        a = 1.0 - a
    if k & 2:
        b = 1.0 - b
    return a, b


def peak_problem(seed: int):
    from afem.driver import Problem

    cx, cy = peak_centre(seed)

    def f(x, y):
        r2 = (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2
        return np.exp(-r2 / PEAK_WIDTH) / PEAK_WIDTH

    return Problem(name="peak", f=f)


def build(name: str, seed: int):
    """``(AfemConfig, Problem)`` of a workload; sin2 workloads ignore the seed."""
    from afem.driver import AfemConfig, Problem
    from afem.oracles import manufactured_sin2

    if name not in CONFIGS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    cfg = AfemConfig(**CONFIGS[name])
    if name.startswith("peak"):
        return cfg, peak_problem(seed)
    return cfg, Problem.from_manufactured(manufactured_sin2())


def table(records) -> list[list]:
    """Convergence table rows in ``COLUMNS`` order."""
    return [[r.iter, r.n_cells, r.n_dofs, r.energy_error, r.triple_error,
             r.eta, r.osc, r.bnorm32, r.bnorm12, r.marked_count]
            for r in records]


def table_mismatch(rows, golden: dict) -> str | None:
    """First difference between ``rows`` and a golden table, or None.

    Integer columns must match exactly.  A float column matches when
    ``|a - b| <= rtol * |b| + atol``; every float must be finite.
    """
    ref, rtol, atol = golden["rows"], golden["rtol"], golden["atol"]
    for k, row in enumerate(rows):
        for col, a in zip(COLUMNS, row):
            if a is not None and col not in INT_COLUMNS \
                    and not math.isfinite(a):
                return f"iteration {k}: non-finite {col} = {a}"
    if len(rows) != len(ref):
        return f"{len(rows)} iterations, golden has {len(ref)}"
    for k, (row, want) in enumerate(zip(rows, ref)):
        for col, a, b in zip(COLUMNS, row, want):
            if col in INT_COLUMNS or a is None or b is None:
                if a != b:
                    return f"iteration {k}: {col} = {a}, golden {b}"
            elif abs(a - b) > rtol * abs(b) + atol:
                return f"iteration {k}: {col} = {a!r}, golden {b!r}"
    return None
