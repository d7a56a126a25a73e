"""Print every value that a bit-identical refactor must leave unchanged.

    python3 tools/dump_records.py > records.txt

For ten configurations -- the three benchmark workloads at seeds 0 and 1
and four extra ``sin2`` runs -- this prints the ``repr`` of every
``ConvergenceRecord`` from ``afem.driver.run``.  On every iterate of the
four extra runs it also prints the per-cell indicators and the marked
cells, and the analysis helpers: the comparisons of consecutive iterates,
the boundary mesh norms of a spline, of an ``AnalyticField`` and of a
plain callable, the energy and seminorms, the weak-boundary error
energy, the projected Laplacian and the boundary defect load.  Arrays
are printed as the SHA-256 of their bytes, the indicators as that of
``Indicators.dump()`` and the marked cells as that of their ``repr``.

Two trees print the same file exactly when the refactor kept every bit,
so compare the outputs with ``cmp`` (README, "Install and test").  The
script imports ``afem`` and ``benchmarks/workloads.py`` from the tree it
lives in and takes about 15 s.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from afem.assembly import (AnalyticField, energy_diff_sq,  # noqa: E402
                           energy_error_sq, energy_norm_sq, h2_seminorm_sq,
                           inconsistency_load, mesh_norm, project_laplacian,
                           triple_norm)
from afem.driver import (AfemConfig, Problem,  # noqa: E402
                         discrete_reliability_probe, nitsche_energy_sq,
                         pythagoras_check, run)
from afem.oracles import manufactured_sin2  # noqa: E402
from afem.splines import coarse_to_fine  # noqa: E402

SIN2 = manufactured_sin2()
PROB = Problem.from_manufactured(SIN2)
EXTRA = {
    "sin2-nitsche-r2-track": dict(degree=2, mode="nitsche", max_dofs=150,
                                  track_inconsistency=True),
    "sin2-conf-r3-untruncated": dict(degree=3, max_dofs=300, truncated=False),
    "sin2-conf-r4": dict(degree=4, max_dofs=400),
    "sin2-nitsche-r3": dict(degree=3, mode="nitsche", max_dofs=600),
}


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def helpers(states) -> list[tuple[str, object]]:
    """The analysis helpers on each iterate and each consecutive pair."""
    out = []
    field = AnalyticField(SIN2.u, SIN2.grad_u, SIN2.laplacian_u)
    for k, st in enumerate(states):
        U, p, params = st.solution, st.partition, st.params
        rp = params.resolved(U.space.degree)
        e_sq = energy_error_sq(SIN2.laplacian_u, U, rp.quad_n + 2)
        proj = project_laplacian(U)
        out += [
            (f"{k} indicators", text_digest(st.indicators.dump())),
            (f"{k} marked", text_digest(repr(st.marked.cells))),
            (f"{k} energy_error_sq", e_sq),
            (f"{k} energy_norm_sq", energy_norm_sq(U)),
            (f"{k} h2_seminorm_sq", h2_seminorm_sq(U)),
            (f"{k} mesh_norm spline", (mesh_norm(U, 1.5, p),
                                       mesh_norm(U, 0.5, p, normal=True))),
            (f"{k} mesh_norm field", (mesh_norm(field, 1.5, p),
                                      mesh_norm(field, 0.5, p, normal=True))),
            (f"{k} mesh_norm callable", mesh_norm(SIN2.u, 1.5, p)),
            (f"{k} triple_norm", (triple_norm(U, p, params),
                                  triple_norm(field, p, params))),
            (f"{k} nitsche_energy_sq",
             nitsche_energy_sq(PROB, U, params, e_sq)),
            (f"{k} project_laplacian",
             digest([proj.coeffs[c] for c in p.cells])),
            (f"{k} inconsistency_load", digest(inconsistency_load(
                SIN2.laplacian_u, SIN2.grad_laplacian_u, U.space))),
        ]
    for k, (coarse, fine) in enumerate(zip(states, states[1:])):
        out += [
            (f"{k}->{k + 1} energy_diff_sq",
             energy_diff_sq(fine.solution, coarse.solution)),
            (f"{k}->{k + 1} coarse_to_fine", digest(coarse_to_fine(
                coarse.solution, fine.space).coefficients)),
            (f"{k}->{k + 1} discrete_reliability_probe",
             discrete_reliability_probe(coarse, fine)),
        ]
        if fine.params.mode == "conforming":
            out.append((f"{k}->{k + 1} pythagoras_check",
                        pythagoras_check(PROB, coarse, fine)))
    return out


def main() -> None:
    for name in workloads.NAMES:
        for seed in (0, 1):
            for rec in run(*workloads.build(name, seed)):
                print(f"{name}/seed{seed} {rec!r}")
    for name, kwargs in EXTRA.items():
        states = []
        for rec in run(AfemConfig(**kwargs), PROB, states.append):
            print(f"{name} {rec!r}")
        for what, value in helpers(states):
            print(f"{name} {what}: {value!r}")


if __name__ == "__main__":
    main()
