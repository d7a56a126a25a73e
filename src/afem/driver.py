"""The adaptive loop: solve -> estimate -> mark -> refine.

Runs either discretization mode on a problem, recording per-iteration
error, estimator and boundary-norm data, and provides the analysis
helpers used to measure contraction, effectivity and the Galerkin
orthogonality structure of consecutive iterates.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .assembly import (FormParams, LoadVector, SystemMatrix, assemble,
                       energy_diff_sq, energy_error_sq, inconsistency_load,
                       mesh_norm, triple_norm_matrix, _cell_projections,
                       _edge_orders, _legendre_traces)
from .estimator import Indicators, MarkedSet, dorfler_mark, estimate_all
from .mesh import (REFINED, Cell, Partition, edges, refine,
                   support_extension, uniform_partition)
from .quadrature import gauss_cell, gauss_edge
from .solver import SolveOptions, solve
from .splines import HierarchicalSpace, SplineFunction, build_space

__all__ = [
    "AfemConfig",
    "Problem",
    "ConvergenceRecord",
    "IterationState",
    "run",
    "contraction_ratios",
    "effectivity",
    "default_c_est",
    "pythagoras_check",
    "discrete_reliability_probe",
    "records_to_csv",
    "run_summary",
    "CSV_HEADER",
]

CSV_HEADER = ("iter,n_cells,n_dofs,energy_error,triple_error,eta,osc,"
              "bnorm32,bnorm12,marked,rho,effectivity")


@dataclass(frozen=True)
class AfemConfig:
    degree: int = 2
    theta: float = 0.5
    mode: str = "conforming"            # "conforming" | "nitsche"
    gamma1: float | None = None
    gamma2: float | None = None
    initial_levels: int = 2
    max_dofs: int = 20000
    max_iters: int = 25
    quad_n: int | None = None
    solver: SolveOptions = field(default_factory=SolveOptions)
    truncated: bool = True
    track_inconsistency: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if self.initial_levels < 0:
            raise ValueError("initial_levels must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.mode not in ("conforming", "nitsche"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def form_params(self) -> FormParams:
        return FormParams(self.mode, self.gamma1, self.gamma2, self.quad_n)


@dataclass(frozen=True)
class Problem:
    """Source term plus optional exact-solution callbacks."""

    name: str
    f: Callable
    u: Callable | None = None
    grad_u: Callable | None = None
    laplacian_u: Callable | None = None
    grad_laplacian_u: Callable | None = None

    @property
    def has_exact(self) -> bool:
        return self.u is not None and self.laplacian_u is not None

    def validate_boundary(self, samples: int = 100, tol: float = 1e-12):
        """Sampled check that the exact solution is clamped on the boundary."""
        if self.u is None:
            return
        t = np.linspace(0.0, 1.0, samples)
        zero = np.zeros_like(t)
        one = np.ones_like(t)
        for xs, ys, nx, ny in ((zero, t, -1.0, 0.0), (one, t, 1.0, 0.0),
                               (t, zero, 0.0, -1.0), (t, one, 0.0, 1.0)):
            if np.max(np.abs(self.u(xs, ys))) > tol:
                raise ValueError("exact solution does not vanish on the boundary")
            if self.grad_u is not None:
                gx, gy = self.grad_u(xs, ys)
                if np.max(np.abs(nx * np.asarray(gx) + ny * np.asarray(gy))) > tol:
                    raise ValueError(
                        "exact normal derivative does not vanish on the boundary")

    @staticmethod
    def from_manufactured(mp) -> "Problem":
        return Problem(name=mp.name, f=mp.f, u=mp.u, grad_u=mp.grad_u,
                       laplacian_u=mp.laplacian_u,
                       grad_laplacian_u=mp.grad_laplacian_u)


@dataclass(frozen=True)
class ConvergenceRecord:
    iter: int
    n_cells: int
    n_dofs: int
    energy_error: float | None
    triple_error: float | None
    eta: float
    osc: float
    bnorm32: float
    bnorm12: float
    marked_count: int
    inconsistency_sup: float | None = None
    contraction_e_sq: float | None = None  # e^2 (conforming) or a_P(e,e)


@dataclass(frozen=True)
class IterationState:
    partition: Partition
    space: HierarchicalSpace
    solution: SplineFunction
    indicators: Indicators
    marked: MarkedSet
    system: SystemMatrix
    load: LoadVector
    params: FormParams


class _SampleMemo:
    """``f(xs, ys)`` memoised on the exact bytes of the two point arrays.

    Each cell's rule is the same in assembly, the interior residual and
    the oscillation, and in every iteration the cell persists, so ``f``
    is sampled once per cell per run.  Samples are read-only float
    arrays; :meth:`next_iteration` drops every point set that was not
    requested since its previous call, so the memo holds about one
    partition's samples.
    """

    def __init__(self, f: Callable):
        self._f = f
        self._now: dict[tuple[bytes, bytes], np.ndarray] = {}
        self._before: dict[tuple[bytes, bytes], np.ndarray] = {}

    def __call__(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, float)
        ys = np.asarray(ys, float)
        key = (xs.tobytes(), ys.tobytes())
        vals = self._now.get(key)
        if vals is None:
            vals = self._before.pop(key, None)
            if vals is None:
                vals = np.array(self._f(xs, ys), dtype=float)
                vals.flags.writeable = False
            self._now[key] = vals
        return vals

    def next_iteration(self) -> None:
        self._before, self._now = self._now, {}


def run(cfg: AfemConfig, prob: Problem,
        on_iteration: Callable[[IterationState], None] | None = None,
        ) -> list[ConvergenceRecord]:
    """Run the adaptive loop until max_dofs, max_iters or a zero estimator."""
    prob.validate_boundary()
    params = cfg.form_params()
    p = uniform_partition(cfg.initial_levels)
    records: list[ConvergenceRecord] = []
    rng = np.random.default_rng(cfg.seed)
    f = _SampleMemo(prob.f)
    ind = None

    for it in range(cfg.max_iters):
        f.next_iteration()
        space = build_space(p, cfg.degree, cfg.truncated)
        if it == 0 and space.dim > cfg.max_dofs:
            raise ValueError("max_dofs is below the initial space dimension")
        A, b = assemble(space, f, params)
        x = solve(A, b, cfg.solver)
        coeffs = np.zeros(space.dim)
        coeffs[list(A.positions)] = x
        U = SplineFunction(space, coeffs)
        ind = estimate_all(U, f, p, params.resolved(cfg.degree).quad_n,
                           previous=ind)
        if not np.isfinite(ind.total_sq):
            raise ValueError(f"estimator total eta^2 is not finite "
                             f"({ind.total_sq!r}); check the problem data")
        marked = dorfler_mark(ind, cfg.theta)
        records.append(_make_record(it, cfg, prob, params, p, space, A, U,
                                    ind, marked, rng))
        if on_iteration is not None:
            on_iteration(IterationState(p, space, U, ind, marked, A, b,
                                        params))
        if ind.total_sq == 0.0 or A.dimension >= cfg.max_dofs \
                or not marked.cells:
            break
        p = refine(p, marked.cells)
    return records


def _make_record(it, cfg, prob, params, p, space, A, U, ind, marked, rng):
    rp = params.resolved(cfg.degree)
    b32 = mesh_norm(U, 1.5, p, quad_n=rp.quad_n)
    b12 = mesh_norm(U, 0.5, p, normal=True, quad_n=rp.quad_n)
    energy_error = triple_error = contraction = None
    incons = None
    if prob.has_exact:
        e_sq = energy_error_sq(prob.laplacian_u, U, rp.quad_n + 2)
        energy_error = e_sq ** 0.5
        if cfg.mode == "conforming":
            contraction = e_sq
        else:
            triple_error = (e_sq + rp.gamma1 * b32 ** 2
                            + rp.gamma2 * b12 ** 2) ** 0.5
            contraction = nitsche_energy_sq(prob, U, p, rp, e_sq)
    if cfg.track_inconsistency and prob.grad_laplacian_u is not None:
        incons = inconsistency_sup(prob, space, rp, rng)
    return ConvergenceRecord(
        iter=it, n_cells=len(p), n_dofs=A.dimension,
        energy_error=energy_error, triple_error=triple_error,
        eta=ind.eta, osc=ind.osc_total_sq ** 0.5,
        bnorm32=b32, bnorm12=b12, marked_count=len(marked.cells),
        inconsistency_sup=incons, contraction_e_sq=contraction)


# ---------------------------------------------------------------------------
# weak-boundary energy of the error
# ---------------------------------------------------------------------------

def nitsche_energy_sq(prob: Problem, U: SplineFunction, p: Partition,
                      params: FormParams, volume_sq: float,
                      quad_n: int | None = None) -> float:
    """``a_P(u - U, u - U)`` with the projected Laplacian sampled from
    the exact solution; the boundary traces of the error reduce to
    ``-U`` and ``-dU/dn`` because the exact solution is clamped.

    ``volume_sq`` is the volume term, ``energy_error_sq`` of ``U`` with
    the same rule, which the caller has already computed."""
    space = U.space
    rp = params.resolved(space.degree)
    n = quad_n if quad_n is not None else rp.quad_n + 2
    d = space.degree - 2

    _, bdry = edges(p)

    def lap_error(cell, xs, ys):
        lap = U.eval_batch(xs, ys, [(2, 0), (0, 2)], cell)
        return (np.asarray(prob.laplacian_u(xs, ys), float)
                - lap[(2, 0)] - lap[(0, 2)])

    proj = _cell_projections(sorted({e.plus for e in bdry}), d, n, lap_error)
    total = volume_sq
    for e in bdry:
        rule = gauss_edge(e, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pi_v, pi_n = _legendre_traces(proj[e.plus], e, d, xs, ys)
        order = _edge_orders(e.axis)
        tr = U.eval_batch(xs, ys, [(0, 0), order], e.plus)
        ev = -tr[(0, 0)]
        en = -(e.normal[e.axis] * tr[order])
        h = e.length
        total += float(w @ (-2.0 * pi_v * en + 2.0 * pi_n * ev
                            + rp.gamma1 * h ** -3 * ev ** 2
                            + rp.gamma2 * h ** -1 * en ** 2))
    return total


def inconsistency_sup(prob: Problem, space: HierarchicalSpace,
                      params: FormParams, rng: np.random.Generator,
                      n_random: int = 20) -> float:
    """Computable surrogate for the dual norm of the boundary defect.

    Maximizes ``|<defect, v>| / |||v|||`` over all basis functions plus a
    batch of random splines; the true negative-order norm is not
    computable.  The defect pairing is linear in the test function, so
    a single pass over the boundary assembles the defect load vector
    ``g`` with ``<defect, v> = g . v`` and the mesh-norm Gram gives the
    denominators.
    """
    rp = params.resolved(space.degree)
    g = inconsistency_load(prob.laplacian_u, prob.grad_laplacian_u, space,
                           rp.quad_n)
    T = triple_norm_matrix(space, rp)

    def ratio(c: np.ndarray) -> float:
        den = float(c @ (T @ c)) ** 0.5
        return abs(float(g @ c)) / den if den > 0 else 0.0

    # the ratio at the unit vector e_k is exactly |g_k| / sqrt(T_kk)
    best = max((abs(float(g[k])) / float(t) ** 0.5
                for k, t in enumerate(T.diagonal()) if t > 0), default=0.0)
    for _ in range(n_random):
        best = max(best, ratio(rng.standard_normal(space.dim)))
    return best


# ---------------------------------------------------------------------------
# convergence analysis
# ---------------------------------------------------------------------------

def default_c_est(records) -> float:
    """Estimator weight calibrated from the first iterate: e0^2 / eta0^2."""
    r0 = records[0]
    if r0.contraction_e_sq is None:
        raise ValueError("records carry no exact-solution error")
    if r0.eta == 0.0:
        raise ValueError("zero initial estimator")
    return r0.contraction_e_sq / r0.eta ** 2


def contraction_ratios(records, c_est: float) -> list[float]:
    """Ratios of the contraction quantity ``e^2 + c_est eta^2``."""
    if c_est <= 0.0:
        raise ValueError("c_est must be positive")
    vals = []
    for rec in records:
        if rec.contraction_e_sq is None:
            raise ValueError("records carry no exact-solution error")
        vals.append(rec.contraction_e_sq + c_est * rec.eta ** 2)
    return [vals[k + 1] / vals[k] for k in range(len(vals) - 1)]


def effectivity(records) -> list[float]:
    """Estimator-to-error ratios per iteration (inf when the error is 0)."""
    out = []
    for rec in records:
        if rec.energy_error is None:
            raise ValueError("records carry no exact-solution error")
        out.append(rec.eta / rec.energy_error if rec.energy_error > 0.0
                   else float("inf"))
    return out


def pythagoras_check(prob: Problem, coarse: IterationState,
                     fine: IterationState,
                     quad_n: int | None = None) -> tuple[float, float, float]:
    """Orthogonality identity between consecutive conforming iterates.

    Returns ``(lhs, rhs, gap)`` for
    ``lhs = ||lap(u - U_fine)||^2`` and
    ``rhs = ||lap(u - U_coarse)||^2 - ||lap(U_fine - U_coarse)||^2``,
    all integrated with one rule on the fine partition; ``gap`` is the
    relative identity defect.
    """
    if coarse.params.mode != "conforming" or fine.params.mode != "conforming":
        raise ValueError("the orthogonality identity holds in conforming "
                         "mode only")
    if not prob.has_exact:
        raise ValueError("an exact solution is required")
    Uc, Uf = coarse.solution, fine.solution
    n = quad_n if quad_n is not None else Uf.space.degree + 4

    # integrate on whichever partition refines the other, so both
    # solutions are cellwise polynomial on every integration cell
    grid = fine.partition
    if any(coarse.partition.classify(c) == REFINED for c in grid):
        grid = coarse.partition

    lhs = 0.0
    e_coarse = 0.0
    diff = 0.0
    for cell in grid:
        rule = gauss_cell(cell, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        lap_u = np.asarray(prob.laplacian_u(xs, ys), float)
        df = Uf.eval_batch(xs, ys, [(2, 0), (0, 2)],
                           fine.partition.owner(cell))
        dc = Uc.eval_batch(xs, ys, [(2, 0), (0, 2)],
                           coarse.partition.owner(cell))
        lap_f = df[(2, 0)] + df[(0, 2)]
        lap_c = dc[(2, 0)] + dc[(0, 2)]
        lhs += float(w @ (lap_u - lap_f) ** 2)
        e_coarse += float(w @ (lap_u - lap_c) ** 2)
        diff += float(w @ (lap_f - lap_c) ** 2)
    rhs = e_coarse - diff
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return lhs, rhs, gap


def discrete_reliability_probe(coarse: IterationState, fine: IterationState,
                               ) -> dict[str, float]:
    """Diagnostic comparison of the solution jump against the marked-region
    estimator; the bounding constants are unknown, so only the raw
    quantities and their ratio are reported."""
    refined = [c for c in coarse.partition if c not in fine.partition]
    region: set[Cell] = set()
    for c in refined:
        region |= support_extension(coarse.partition, coarse.space, c)
    eta_region_sq = coarse.indicators.restricted_sq(sorted(region))
    rp = fine.params.resolved(fine.space.degree)
    lhs_sq = energy_diff_sq(fine.solution, coarse.solution)
    _, bdry = edges(fine.partition)
    for e in bdry:
        rule = gauss_edge(e, rp.quad_n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        orders = [(0, 0), _edge_orders(e.axis)]
        df = fine.solution.eval_batch(xs, ys, orders, e.plus)
        dc = coarse.solution.eval_batch(xs, ys, orders,
                                        coarse.partition.owner(e.plus))
        dv = df[(0, 0)] - dc[(0, 0)]
        dn = e.normal[e.axis] * (df[orders[1]] - dc[orders[1]])
        lhs_sq += float(w @ (rp.gamma1 * e.length ** -3 * dv ** 2
                             + rp.gamma2 * e.length ** -1 * dn ** 2))
    ratio = lhs_sq / eta_region_sq if eta_region_sq > 0 else float("inf")
    return {"solution_jump_sq": lhs_sq, "eta_region_sq": eta_region_sq,
            "ratio": ratio}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def records_to_csv(records, c_est: float | None = None) -> str:
    """Render the convergence table; byte-stable for identical runs."""
    rhos: list[float | None] = [None] * len(records)
    if records and records[0].contraction_e_sq is not None and c_est is None:
        try:
            c_est = default_c_est(records)
        except ValueError:
            c_est = None
    if c_est is not None and len(records) > 1:
        try:
            for k, rho in enumerate(contraction_ratios(records, c_est)):
                rhos[k + 1] = rho
        except ValueError:
            pass
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\r\n")
    for k, rec in enumerate(records):
        eff = (rec.eta / rec.energy_error
               if rec.energy_error not in (None, 0.0) else None)
        row = [rec.iter, rec.n_cells, rec.n_dofs, rec.energy_error,
               rec.triple_error, rec.eta, rec.osc, rec.bnorm32, rec.bnorm12,
               rec.marked_count, rhos[k], eff]
        buf.write(",".join(_fmt(v) for v in row) + "\r\n")
    return buf.getvalue()


def _loglog_slope(xs, ys) -> float | None:
    pairs = [(x, y) for x, y in zip(xs, ys)
             if x is not None and y is not None and x > 0 and y > 0]
    if len(pairs) < 2:
        return None
    lx = np.log([q[0] for q in pairs])
    ly = np.log([q[1] for q in pairs])
    return float(np.polyfit(lx, ly, 1)[0])


def run_summary(cfg: AfemConfig, prob: Problem, records) -> dict:
    """JSON-ready run summary: config echo and final slopes."""
    dofs = [r.n_dofs for r in records]
    errs = [r.energy_error for r in records]
    etas = [r.eta for r in records]
    rho_geo = None
    if records and records[0].contraction_e_sq is not None and len(records) > 1:
        ratios = contraction_ratios(records, default_c_est(records))
        rho_geo = float(np.exp(np.mean(np.log(ratios))))
    cfg_dict = asdict(cfg)
    cfg_dict["solver"] = asdict(cfg.solver)
    return {
        "problem": prob.name,
        "config": cfg_dict,
        "iterations": len(records),
        "final_dofs": dofs[-1] if dofs else 0,
        "slope_energy_vs_dofs": _loglog_slope(dofs, errs),
        "slope_eta_vs_dofs": _loglog_slope(dofs, etas),
        "rho_geometric_mean": rho_geo,
        "final_eta": etas[-1] if etas else None,
        "final_energy_error": errs[-1] if errs else None,
    }
