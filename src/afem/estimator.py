"""Residual a posteriori indicators, data oscillation and marking.

The per-cell indicator combines the scaled interior residual of the
strong form with scaled jumps of the Laplacian and of its normal
derivative across interior edges,

    eta^2(V, tau) = h_tau^4 ||f - lap^2 V||^2_tau
                  + sum_facets ( h^3 ||[d(lap V)/dn]||^2
                               + h   ||[lap V]||^2 ),

where each interior edge is counted once globally and split half/half
between its two owners, so per-cell records always sum to the total.
Jumps are taken as plus-side minus minus-side with the plus owner the
cell of lower key; the convention is irrelevant after squaring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Cell, Edge, Partition, cell_edges, edges
from .quadrature import gauss_cell, gauss_edge
from .splines import SplineFunction
from .assembly import (_legendre_modes, _project_values, default_quad_n,
                       h2_seminorm_sq)
from .mesh import support_extension

__all__ = [
    "CellIndicator",
    "Indicators",
    "MarkedSet",
    "indicator",
    "estimate_all",
    "oscillation",
    "dorfler_mark",
    "lipschitz_gap",
]


@dataclass(frozen=True)
class CellIndicator:
    eta_sq: float
    interior_sq: float
    jump1_sq: float
    jump2_sq: float
    osc_sq: float


@dataclass(frozen=True)
class Indicators:
    records: dict  # Cell -> CellIndicator, deterministic cell-key order
    total_sq: float
    osc_total_sq: float

    @property
    def eta(self) -> float:
        return self.total_sq ** 0.5

    def restricted_sq(self, cells) -> float:
        """Sum of eta^2 over a subdomain given as a cell collection."""
        return sum(self.records[c].eta_sq for c in cells)

    def dump(self) -> str:
        lines = []
        for c, rec in self.records.items():
            lines.append(
                f"{c.level} {c.i} {c.j} {rec.eta_sq!r} {rec.interior_sq!r} "
                f"{rec.jump1_sq!r} {rec.jump2_sq!r} {rec.osc_sq!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MarkedSet:
    cells: tuple[Cell, ...]   # greedy order, descending eta^2
    theta: float
    achieved_fraction: float


def _bilaplacian(U: SplineFunction, xs, ys, cell: Cell) -> np.ndarray:
    d = U.eval_batch(xs, ys, [(4, 0), (2, 2), (0, 4)], cell)
    return d[(4, 0)] + 2.0 * d[(2, 2)] + d[(0, 4)]


def _lap_and_normal(U: SplineFunction, xs, ys, cell: Cell,
                    axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian trace and its derivative along the edge normal axis."""
    grad_orders = [(3, 0), (1, 2)] if axis == 0 else [(2, 1), (0, 3)]
    d = U.eval_batch(xs, ys, [(2, 0), (0, 2)] + grad_orders, cell)
    lap = d[(2, 0)] + d[(0, 2)]
    dlap = d[grad_orders[0]] + d[grad_orders[1]]
    return lap, dlap


def _edge_jumps_sq(U: SplineFunction, e: Edge, quad_n: int) -> tuple[float, float]:
    """(h^3 ||J1||^2, h ||J2||^2) for one interior edge."""
    rule = gauss_edge(e, quad_n)
    xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
    lap_p, dlap_p = _lap_and_normal(U, xs, ys, e.plus, e.axis)
    lap_m, dlap_m = _lap_and_normal(U, xs, ys, e.minus, e.axis)
    j1 = dlap_p - dlap_m
    j2 = lap_p - lap_m
    h = e.length
    return h ** 3 * float(w @ j1 ** 2), h * float(w @ j2 ** 2)


def _interior_sq(U: SplineFunction, f, cell: Cell, quad_n: int) -> float:
    rule = gauss_cell(cell, quad_n)
    xs, ys = rule.points[:, 0], rule.points[:, 1]
    res = np.asarray(f(xs, ys), float) - _bilaplacian(U, xs, ys, cell)
    return cell.side ** 4 * float(rule.weights @ res ** 2)


def oscillation(f, tau: Cell, r: int, quad_n: int | None = None) -> float:
    """Data oscillation ``h^2 ||f - fbar||`` with ``fbar`` the cellwise
    L2 projection onto tensor polynomials of degree r-2."""
    n = quad_n if quad_n is not None else default_quad_n(r)
    rule = gauss_cell(tau, n)
    xs, ys = rule.points[:, 0], rule.points[:, 1]
    vals = np.asarray(f(xs, ys), float)
    d = r - 2
    modes = _legendre_modes(tau, d, xs, ys)
    cleg = _project_values(tau, d, vals, rule, modes)
    resid = vals - cleg @ modes
    return tau.side ** 2 * float(rule.weights @ resid ** 2) ** 0.5


def estimate_all(U: SplineFunction, f, p: Partition,
                 quad_n: int | None = None) -> Indicators:
    """All per-cell indicator records plus totals, deterministic order."""
    r = U.space.degree
    n = quad_n if quad_n is not None else default_quad_n(r)
    interior_edges, _ = edges(p)

    jump1 = {c: 0.0 for c in p.cells}
    jump2 = {c: 0.0 for c in p.cells}
    for e in interior_edges:
        j1, j2 = _edge_jumps_sq(U, e, n)
        jump1[e.plus] += 0.5 * j1
        jump1[e.minus] += 0.5 * j1
        jump2[e.plus] += 0.5 * j2
        jump2[e.minus] += 0.5 * j2

    records: dict[Cell, CellIndicator] = {}
    total = 0.0
    osc_total = 0.0
    for c in p.cells:
        interior = _interior_sq(U, f, c, n)
        osc = oscillation(f, c, r, n)
        eta_sq = interior + jump1[c] + jump2[c]
        records[c] = CellIndicator(eta_sq, interior, jump1[c], jump2[c],
                                   osc ** 2)
        total += eta_sq
        osc_total += osc ** 2
    return Indicators(records, total, osc_total)


def indicator(U: SplineFunction, f, tau: Cell, p: Partition,
              quad_n: int | None = None) -> CellIndicator:
    """Indicator record of a single cell (edge terms split half/half)."""
    if tau not in p:
        raise ValueError(f"{tau} is not an active cell")
    r = U.space.degree
    n = quad_n if quad_n is not None else default_quad_n(r)
    j1s = j2s = 0.0
    for e in cell_edges(p, tau):  # the order estimate_all sums them in
        j1, j2 = _edge_jumps_sq(U, e, n)
        j1s += 0.5 * j1
        j2s += 0.5 * j2
    interior = _interior_sq(U, f, tau, n)
    osc = oscillation(f, tau, r, n)
    return CellIndicator(interior + j1s + j2s, interior, j1s, j2s, osc ** 2)


def dorfler_mark(ind: Indicators, theta: float) -> MarkedSet:
    """Minimal greedy bulk-chasing marked set.

    Cells are taken in descending eta^2 with ties broken by cell key;
    marking stops as soon as the marked mass reaches ``theta`` times the
    total.  A zero estimator yields an empty set (converged).
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    total = ind.total_sq
    if total == 0.0:
        return MarkedSet((), theta, 0.0)
    order = sorted(ind.records.items(),
                   key=lambda kv: (-kv[1].eta_sq, kv[0]))
    picked: list[Cell] = []
    acc = 0.0
    target = theta * total
    for c, rec in order:
        if acc >= target or rec.eta_sq == 0.0:
            break
        picked.append(c)
        acc += rec.eta_sq
    return MarkedSet(tuple(picked), theta, acc / total)


def lipschitz_gap(V: SplineFunction, W: SplineFunction, tau: Cell,
                  p: Partition, quad_n: int | None = None,
                  ) -> tuple[float, float]:
    """Per-cell indicator gap and the seminorm that should control it.

    Returns ``(|eta(V,tau) - eta(W,tau)|, |V - W|_{H2(omega_tau)})``
    with the source term fixed to zero, against which the ratio of the
    two is audited for stability.
    """
    if V.space is not W.space:
        raise ValueError("V and W must live in the same space")
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    rec_v = indicator(V, zero, tau, p, quad_n)
    rec_w = indicator(W, zero, tau, p, quad_n)
    gap = abs(rec_v.eta_sq ** 0.5 - rec_w.eta_sq ** 0.5)
    omega = support_extension(p, V.space, tau)
    diff = V - W
    bound_arg = h2_seminorm_sq(diff, sorted(omega), quad_n) ** 0.5
    return gap, bound_arg
