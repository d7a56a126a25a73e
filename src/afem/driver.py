"""The adaptive loop: solve -> estimate -> mark -> refine.

Runs either discretization mode on a problem, recording per-iteration
error, estimator and boundary-norm data, and provides the analysis
helpers used to measure contraction, effectivity and the Galerkin
orthogonality structure of consecutive iterates.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .assembly import (FormParams, LoadVector, SystemMatrix, assemble,
                       energy_diff_sq, energy_error_sq, inconsistency_load,
                       triple_norm_matrix, _cell_projections, _penalties,
                       _legendre_traces, _LAP_ORDERS, _mesh_norms,
                       _normal_traces, _spline_field, _spline_traces)
from .estimator import Indicators, MarkedSet, dorfler_mark, estimate_all
from .mesh import (MAX_LEVEL, Cell, Partition, edge_arrays, refine,
                   support_extension, uniform_partition)
from .quadrature import _SampleMemo, _requests, _row_dots
from .solver import SolveOptions, _check_number, solve
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

    def __post_init__(self):
        """The one check of every setting, before any run: each message
        leads with the field's name, which the CLI swaps for its flag."""
        for name in ("degree", "initial_levels", "max_dofs", "max_iters"):
            _check_number(name, getattr(self, name), integer=True)
        _check_number("theta", self.theta)
        if self.degree < 2:
            raise ValueError(f"degree must be at least 2, got {self.degree}")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not 0 <= self.initial_levels <= MAX_LEVEL:
            raise ValueError(f"initial_levels must lie in [0, {MAX_LEVEL}], "
                             f"got {self.initial_levels}")
        # the dimension of the uniform space the loop starts from
        if (2 ** self.initial_levels + self.degree) ** 2 > self.max_dofs:
            raise ValueError("max_dofs is below the initial space dimension")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        for name, kind in (("truncated", bool), ("track_inconsistency", bool),
                           ("solver", SolveOptions)):
            if not isinstance(value := getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, "
                                 f"got {value!r}")
        self.form_params()  # mode, gammas and rule

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

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not callable(self.f):
            raise ValueError(f"f must be callable, got {self.f!r}")
        for name in ("u", "grad_u", "laplacian_u", "grad_laplacian_u"):
            value = getattr(self, name)
            if value is not None and not callable(value):
                raise ValueError(f"{name} must be None or callable, "
                                 f"got {value!r}")

    @property
    def has_exact(self) -> bool:
        return self.u is not None and self.laplacian_u is not None

    def validate_boundary(self):
        """Check at 100 points a side that the exact solution is clamped."""
        if self.u is None:
            return
        t = np.linspace(0.0, 1.0, 100)
        zero = np.zeros_like(t)
        one = np.ones_like(t)
        for xs, ys, nx, ny in ((zero, t, -1.0, 0.0), (one, t, 1.0, 0.0),
                               (t, zero, 0.0, -1.0), (t, one, 0.0, 1.0)):
            # written so that a nan sample fails too
            if not np.all(np.abs(self.u(xs, ys)) <= 1e-12):
                raise ValueError("exact solution does not vanish on the boundary")
            if self.grad_u is not None:
                gx, gy = self.grad_u(xs, ys)
                if not np.all(np.abs(nx * np.asarray(gx)
                                     + ny * np.asarray(gy)) <= 1e-12):
                    raise ValueError(
                        "exact normal derivative does not vanish on the boundary")

    @staticmethod
    def from_manufactured(mp: "Problem") -> "Problem":
        """``mp`` itself: every manufactured problem is a checked
        ``Problem`` already."""
        return mp


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


def run(cfg: AfemConfig, prob: Problem,
        on_iteration: Callable[[IterationState], None] | None = None,
        ) -> list[ConvergenceRecord]:
    """Run the adaptive loop until max_dofs, max_iters or a zero estimator."""
    prob.validate_boundary()
    params = cfg.form_params()
    p = uniform_partition(cfg.initial_levels)
    records: list[ConvergenceRecord] = []
    rng = np.random.default_rng(0)  # the inconsistency probes
    # data sampled once per cell and rule per run: the source in the
    # assembly and the estimator, the exact Laplacian in the record
    f = _SampleMemo(prob.f)
    memos = [f]
    if prob.laplacian_u is not None:
        memos.append(_SampleMemo(prob.laplacian_u))
        prob = replace(prob, laplacian_u=memos[-1])

    for it in range(cfg.max_iters):
        for memo in memos:
            memo.next_iteration()
        space = build_space(p, cfg.degree, cfg.truncated)
        A, b = assemble(space, f, params)
        x = solve(A, b, cfg.solver)
        coeffs = np.zeros(space.dim)
        coeffs[list(A.positions)] = x
        U = SplineFunction(space, coeffs)
        ind = estimate_all(U, f, params.resolved(cfg.degree).quad_n)
        if not np.isfinite(ind.total_sq):
            raise ValueError(f"estimator total eta^2 is not finite "
                             f"({ind.total_sq!r}); check the problem data")
        marked = dorfler_mark(ind, cfg.theta)
        records.append(_make_record(it, cfg, prob, params, A, U, ind,
                                    marked, rng))
        if on_iteration is not None:
            on_iteration(IterationState(p, space, U, ind, marked, A, b,
                                        params))
        if ind.total_sq == 0.0 or A.dimension >= cfg.max_dofs \
                or not marked.cells:
            break
        p = refine(p, marked.cells)
    return records


def _make_record(it, cfg, prob, params, A, U, ind, marked, rng):
    rp = params.resolved(cfg.degree)
    # a conforming iterate has exact zero traces: it is a combination of
    # functions whose value and normal derivative vanish on the boundary
    b32, b12 = ((0.0, 0.0) if cfg.mode == "conforming"
                else _mesh_norms(U, U.space.partition, rp.quad_n))
    energy_error = triple_error = contraction = incons = None
    if prob.has_exact:
        e_sq = energy_error_sq(prob.laplacian_u, U, rp.quad_n + 2)
        energy_error = e_sq ** 0.5
        if cfg.mode == "conforming":
            contraction = e_sq
        else:
            triple_error = (e_sq + rp.gamma1 * b32 ** 2
                            + rp.gamma2 * b12 ** 2) ** 0.5
            contraction = nitsche_energy_sq(prob, U, rp, e_sq)
    if cfg.track_inconsistency and prob.grad_laplacian_u is not None:
        incons = inconsistency_sup(prob, U.space, rp, rng)
    for what, value, entry in (
            ("energy error", energy_error, "'laplacian_u'"),
            ("triple-norm error", triple_error, "'laplacian_u'"),
            ("contraction quantity", contraction, "'laplacian_u'"),
            ("inconsistency sup", incons,
             "'laplacian_u' or 'grad_laplacian_u'")):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{what} is not finite ({value!r}); check the "
                             f"exact-solution entry {entry}")
    return ConvergenceRecord(
        iter=it, n_cells=len(U.space.partition), n_dofs=A.dimension,
        energy_error=energy_error, triple_error=triple_error,
        eta=ind.eta, osc=ind.osc_total_sq ** 0.5,
        bnorm32=b32, bnorm12=b12, marked_count=len(marked.cells),
        inconsistency_sup=incons, contraction_e_sq=contraction)


# ---------------------------------------------------------------------------
# weak-boundary energy of the error
# ---------------------------------------------------------------------------

def nitsche_energy_sq(prob: Problem, U: SplineFunction, params: FormParams,
                      volume_sq: float) -> float:
    """``a_P(u - U, u - U)`` with the projected Laplacian sampled from
    the exact solution; the boundary traces of the error reduce to
    ``-U`` and ``-dU/dn`` because the exact solution is clamped.

    ``volume_sq`` is the volume term, ``energy_error_sq`` of ``U`` on the
    same rule, ``quad_n + 2`` points, which the caller has computed."""
    space = U.space
    rp = params.resolved(space.degree)
    n = rp.quad_n + 2
    d = space.degree - 2

    _, bdry = edge_arrays(space.partition)
    proj = _cell_projections(bdry.cells(np.unique(bdry.plus)), d, n,
                             _spline_field(U, _LAP_ORDERS, lambda F, L:
                                           F - L[(2, 0)] - L[(0, 2)]),
                             prob.laplacian_u)
    total = volume_sq
    for es, X, Y, W, V, VN in _spline_traces(U, bdry, n):
        pi_v, pi_n = _legendre_traces(
            np.array([proj[c] for c in es.cells(es.plus)]), es, d, X, Y)
        ev, en = -V, -VN
        g1, g2 = (g[:, None] for g in _penalties(es, rp.gamma1, rp.gamma2))
        for v in _row_dots(W, (-2.0 * pi_v * en + 2.0 * pi_n * ev
                               + g1 * ev ** 2 + g2 * en ** 2)):
            total += float(v)
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
    if not np.all(np.isfinite(g)):
        return float("nan")  # max() below would skip a nan ratio
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
    # solutions are cellwise polynomial on every integration cell: a
    # refinement has more cells, and owners raises when neither is one
    grid = max(fine.partition, coarse.partition, key=len)

    owners = [U.space.partition.owners(grid.cells) for U in (Uf, Uc)]
    lhs = e_coarse = diff = 0.0
    for lo, run, X, Y, W, lap_u in _requests(grid.cells, n, prob.laplacian_u):
        df, dc = (U.eval_stacked(own[lo:lo + len(run)], X, Y, _LAP_ORDERS)
                  for U, own in zip((Uf, Uc), owners))
        lap_f = df[(2, 0)] + df[(0, 2)]
        lap_c = dc[(2, 0)] + dc[(0, 2)]
        for a, b, c in zip(_row_dots(W, (lap_u - lap_f) ** 2),
                           _row_dots(W, (lap_u - lap_c) ** 2),
                           _row_dots(W, (lap_f - lap_c) ** 2)):
            lhs += float(a)
            e_coarse += float(b)
            diff += float(c)
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
        region |= support_extension(coarse.space, c)
    eta_region_sq = coarse.indicators.restricted_sq(sorted(region))
    rp = fine.params.resolved(fine.space.degree)
    lhs_sq = energy_diff_sq(fine.solution, coarse.solution)
    _, bdry = edge_arrays(fine.partition)
    # the fine iterate on each edge's cell, the coarse one on its owner
    owners = coarse.partition.owners(bdry.cells(bdry.plus))
    orders = [(0, 0), (1, 0), (0, 1)]
    for lo, run, X, Y, W, _ in _requests(bdry, rp.quad_n):
        df = fine.solution.eval_stacked(run.cells(run.plus), X, Y, orders)
        dc = coarse.solution.eval_stacked(owners[lo:lo + len(run)], X, Y,
                                          orders)
        dv = df[(0, 0)] - dc[(0, 0)]
        # the sign is exact
        dn = (_normal_traces(run, df[(1, 0)], df[(0, 1)])
              - _normal_traces(run, dc[(1, 0)], dc[(0, 1)]))
        g1, g2 = (g[:, None] for g in _penalties(run, rp.gamma1, rp.gamma2))
        for v in _row_dots(W, g1 * dv ** 2 + g2 * dn ** 2):
            lhs_sq += float(v)
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


def records_to_csv(records) -> str:
    """Render the convergence table; byte-stable for identical runs."""
    rhos: list[float | None] = [None] * len(records)
    if len(records) > 1 and records[0].contraction_e_sq is not None:
        try:
            rhos[1:] = contraction_ratios(records, default_c_est(records))
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
    """Least-squares slope of log y against log x; ``None`` unless at
    least two points remain and their x values differ."""
    pairs = [(x, y) for x, y in zip(xs, ys)
             if x is not None and y is not None and x > 0 and y > 0]
    lx = np.log([q[0] for q in pairs])
    if len(pairs) < 2 or np.all(lx == lx[0]):
        return None
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
