"""Spans around the calls into each ``afem`` layer, installed from outside.

``install`` replaces every binding of a traced function in the loaded
``afem`` modules (``afem.driver.assemble`` and ``afem.assembly.assemble``
alike, and ``afem.quadrature.gauss_cell``, which ``afem.splines`` imports
at call time) and the traced methods on their classes.  Spans are kept
in memory and written out by ``write_spans`` after the run.  Install it
only in a process that runs nothing else: bindings are not restored.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

# span name -> (defining module, attribute)
FUNCTIONS = {
    "driver.run": ("afem.driver", "run"),
    "driver.nitsche_energy_sq": ("afem.driver", "nitsche_energy_sq"),
    "mesh.refine": ("afem.mesh", "refine"),
    "mesh.edges": ("afem.mesh", "edges"),
    "splines.build_space": ("afem.splines", "build_space"),
    "quadrature.gauss_cell": ("afem.quadrature", "gauss_cell"),
    "quadrature.gauss_edge": ("afem.quadrature", "gauss_edge"),
    "assembly.assemble": ("afem.assembly", "assemble"),
    "assembly.mesh_norm": ("afem.assembly", "mesh_norm"),
    "assembly.energy_error_sq": ("afem.assembly", "energy_error_sq"),
    "solver.solve": ("afem.solver", "solve"),
    "estimator.estimate_all": ("afem.estimator", "estimate_all"),
    "estimator.oscillation": ("afem.estimator", "oscillation"),
    "estimator.dorfler_mark": ("afem.estimator", "dorfler_mark"),
}
# span name -> (module, class, method)
METHODS = {
    "splines.cell_extraction": ("afem.splines", "HierarchicalSpace",
                                "cell_extraction"),
    "splines.basis_on_cell": ("afem.splines", "HierarchicalSpace",
                              "basis_on_cell"),
    "splines.eval_batch": ("afem.splines", "SplineFunction", "eval_batch"),
}

# direct children of driver.run, by phase of one adaptive iteration
PHASES = {
    "splines.build_space": "build_space",
    "assembly.assemble": "assemble",
    "solver.solve": "solve",
    "estimator.estimate_all": "estimate",
    "estimator.dorfler_mark": "mark",
    "mesh.refine": "refine",
    "assembly.mesh_norm": "record",
    "assembly.energy_error_sq": "record",
    "driver.nitsche_energy_sq": "record",
}


class Tracer:
    """Span recorder with per-name self time, call counts and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple | None] = []  # (name, start, end, parent)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.partitions: set[int] = set()
        self.extraction_pairs: set[tuple[int, object]] = set()
        self.rel_residual_max = 0.0
        self.final_partition = None
        self._stack: list[list] = []   # [span index, time in children]
        self._space_serial: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._serials = itertools.count()

    def wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.split(".")[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
                self.spans[frame[0]] = (name, start, end, parent)
            if hook is not None:
                hook(out, *args, **kwargs)
            if stack:
                # the parent's self time excludes this span's bookkeeping
                stack[-1][1] += time.perf_counter() - start
            return out

        return traced

    # -- counters taken at the span boundaries ---------------------------

    def _after_refine(self, out, p, marked):
        splits = (len(out) - len(p)) // 3
        self.counts["mesh.closure_cells"] += splits - len(set(marked))

    def _after_edges(self, out, p):
        self.partitions.add(hash(p))

    def _after_build_space(self, space, p, *_args, **_kwargs):
        self._space_serial[space] = next(self._serials)
        self.final_partition = p

    def _after_cell_extraction(self, out, space, cell):
        serial = self._space_serial.get(space, id(space))
        self.extraction_pairs.add((serial, cell))

    def _after_assemble(self, out, *_args, **_kwargs):
        A, _ = out
        self.counts["assembly.dofs"] = A.dimension
        self.counts["assembly.nnz"] = A.matrix.nnz

    def _after_solve(self, x, A, b, *_args, **_kwargs):
        vec = np.asarray(b.values)
        rel = np.linalg.norm(A.matrix @ x - vec) / np.linalg.norm(vec)
        self.rel_residual_max = max(self.rel_residual_max, float(rel))

    def _after_dorfler_mark(self, out, *_args, **_kwargs):
        self.counts["estimator.marked_cells"] += len(out.cells)

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced run (``*_s`` are self times)."""
        s, c = self.self_s, self.calls
        p = self.final_partition
        return {
            "mesh.refine_s": s["mesh.refine"],
            "mesh.refine_calls": c["mesh.refine"],
            "mesh.closure_cells": self.counts["mesh.closure_cells"],
            "mesh.edges_s": s["mesh.edges"],
            "mesh.edges_calls": c["mesh.edges"],
            "mesh.edges_per_partition":
                c["mesh.edges"] / max(len(self.partitions), 1),
            "mesh.cells_final": len(p),
            "mesh.max_level": p.max_level,
            "splines.build_space_s": s["splines.build_space"],
            "splines.cell_extraction_s": s["splines.cell_extraction"],
            "splines.cell_extraction_calls": c["splines.cell_extraction"],
            "splines.extraction_fresh_ratio":
                len(self.extraction_pairs)
                / max(c["splines.cell_extraction"], 1),
            "splines.basis_on_cell_s": s["splines.basis_on_cell"],
            "splines.basis_on_cell_calls": c["splines.basis_on_cell"],
            "splines.eval_batch_s": s["splines.eval_batch"],
            "splines.eval_batch_calls": c["splines.eval_batch"],
            "quadrature.gauss_cell_s": s["quadrature.gauss_cell"],
            "quadrature.gauss_cell_calls": c["quadrature.gauss_cell"],
            "quadrature.gauss_edge_s": s["quadrature.gauss_edge"],
            "quadrature.gauss_edge_calls": c["quadrature.gauss_edge"],
            "assembly.assemble_s": s["assembly.assemble"],
            "assembly.dofs": self.counts["assembly.dofs"],
            "assembly.nnz": self.counts["assembly.nnz"],
            "assembly.mesh_norm_s": s["assembly.mesh_norm"],
            "assembly.energy_error_sq_s": s["assembly.energy_error_sq"],
            "solver.solve_s": s["solver.solve"],
            "solver.rel_residual_max": self.rel_residual_max,
            "estimator.estimate_all_s": s["estimator.estimate_all"],
            "estimator.oscillation_s": s["estimator.oscillation"],
            "estimator.oscillation_calls": c["estimator.oscillation"],
            "estimator.dorfler_mark_s": s["estimator.dorfler_mark"],
            "estimator.marked_cells": self.counts["estimator.marked_cells"],
            "driver.nitsche_energy_sq_s": s["driver.nitsche_energy_sq"],
            "driver.self_s": s["driver.run"],
            "driver.iterations": c["splines.build_space"],
        }

    def phase_split(self) -> list[dict[str, float]]:
        """Seconds per phase for each iteration of the traced run.

        Iterations start at each ``build_space``; ``other`` is the part
        of an iteration no phase span covers (mostly the driver's own
        record keeping).
        """
        runs = [k for k, sp in enumerate(self.spans)
                if sp is not None and sp[0] == "driver.run"]
        if not runs:
            return []
        root = runs[-1]
        run_end = self.spans[root][2]
        children = [sp for sp in self.spans
                    if sp is not None and sp[3] == root]
        iters: list[dict[str, float]] = []
        starts: list[float] = []
        for name, start, end, _ in children:
            if name == "splines.build_space":
                iters.append(dict.fromkeys(PHASES.values(), 0.0))
                starts.append(start)
            if iters:
                iters[-1][PHASES.get(name, "record")] += end - start
        for k, it in enumerate(iters):
            stop = starts[k + 1] if k + 1 < len(starts) else run_end
            it["other"] = stop - starts[k] - sum(it.values())
        return iters

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, run id."""
        t0 = min(sp[1] for sp in self.spans)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent,
                                     self.run_id]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every binding of the traced functions and methods."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "afem" or name.startswith("afem."))]
    for span, (modname, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[modname], attr)
        wrapped = tracer.wrap(span, original)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapped)
    for span, (modname, cls_name, attr) in METHODS.items():
        cls = getattr(sys.modules[modname], cls_name)
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr)))
