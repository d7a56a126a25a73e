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
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .mesh import Cell, Edge, Partition, edges
from .quadrature import _on_points, gauss_cell
from .splines import SplineFunction
from .assembly import (_cell_chunks, _legendre_modes, _owner_values,
                       _project_values, _row_dots, default_quad_n,
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


class CellIndicator(NamedTuple):
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


def _edge_jumps_sq(U: SplineFunction, es: list[Edge],
                   quad_n: int) -> list[tuple[float, float]]:
    """(h^3 ||J1||^2, h ||J2||^2) of each interior edge, in order.

    Per normal axis, the edges' plus and minus owners are evaluated at
    the edges' points through :func:`_owner_values`.
    """
    out: list[tuple[float, float]] = [(0.0, 0.0)] * len(es)
    sides = [(U, attrgetter("plus")), (U, attrgetter("minus"))]
    lap = [(2, 0), (0, 2)]
    for axis in (0, 1):
        # the terms of the Laplacian's derivative along the normal axis
        grad = [(3, 0), (1, 2)] if axis == 0 else [(2, 1), (0, 3)]
        on_axis = [q for q, e in enumerate(es) if e.axis == axis]
        for at, W, _, (dp, dm) in _owner_values(
                [es[q] for q in on_axis], quad_n, sides, lap + grad):
            s1, s2 = (_row_dots(W, ((dp[u] + dp[v]) - (dm[u] + dm[v])) ** 2)
                      for u, v in (grad, lap))
            for q, a, b in zip(at, s1, s2):
                h = es[on_axis[q]].length
                out[on_axis[q]] = (h ** 3 * float(a), h * float(b))
    return out


def _interior_sq(U: SplineFunction, f, cells: list[Cell],
                 quad_n: int) -> list[float]:
    """``h^4 ||f - lap^2 U||^2`` of each cell, in order."""
    out = [0.0] * len(cells)
    for at, _, W, F, d in _cell_chunks(cells, quad_n, U.value_stacks,
                                    [(4, 0), (2, 2), (0, 4)], f):
        res = F - (d[(4, 0)] + 2.0 * d[(2, 2)] + d[(0, 4)])
        for c, v in zip(at, _row_dots(W, res ** 2)):
            out[c] = cells[c].side ** 4 * float(v)
    return out


def oscillation(f, tau: Cell, r: int, quad_n: int | None = None) -> float:
    """Data oscillation ``h^2 ||f - fbar||`` with ``fbar`` the cellwise
    L2 projection onto tensor polynomials of degree r-2."""
    n = quad_n if quad_n is not None else default_quad_n(r)
    rule = gauss_cell(tau, n)
    xs, ys = rule.points[:, 0], rule.points[:, 1]
    vals = _on_points(f(xs, ys), xs)
    d = r - 2
    modes = _legendre_modes(tau, d, xs, ys)
    cleg = _project_values(tau, d, vals, rule, modes)
    resid = vals - cleg @ modes
    return tau.side ** 2 * float(rule.weights @ resid ** 2) ** 0.5


def estimate_all(U: SplineFunction, f, p: Partition,
                 quad_n: int | None = None,
                 previous: Indicators | None = None) -> Indicators:
    """All per-cell indicator records plus totals, deterministic order.

    The oscillation depends only on ``f`` and the cell: a cell recorded
    in ``previous``, computed with the same ``f``, degree and rule, takes
    its ``osc_sq`` from there instead of sampling ``f`` again.
    """
    r = U.space.degree
    n = quad_n if quad_n is not None else default_quad_n(r)
    interior_edges, _ = edges(p)

    jump1 = {c: 0.0 for c in p.cells}
    jump2 = {c: 0.0 for c in p.cells}
    for e, (j1, j2) in zip(interior_edges,
                           _edge_jumps_sq(U, interior_edges, n)):
        for c in (e.plus, e.minus):
            jump1[c] += 0.5 * j1
            jump2[c] += 0.5 * j2

    records: dict[Cell, CellIndicator] = {}
    total = 0.0
    osc_total = 0.0
    known = previous.records if previous is not None else {}
    for c, interior in zip(p.cells, _interior_sq(U, f, p.cells, n)):
        rec = known.get(c)
        osc_sq = (rec.osc_sq if rec is not None
                  else oscillation(f, c, r, n) ** 2)
        eta_sq = interior + jump1[c] + jump2[c]
        records[c] = CellIndicator(eta_sq, interior, jump1[c], jump2[c],
                                   osc_sq)
        total += eta_sq
        osc_total += osc_sq
    return Indicators(records, total, osc_total)


def indicator(U: SplineFunction, f, tau: Cell, p: Partition,
              quad_n: int | None = None) -> CellIndicator:
    """Indicator record of a single cell (edge terms split half/half)."""
    if tau not in p:
        raise ValueError(f"{tau} is not an active cell")
    r = U.space.degree
    n = quad_n if quad_n is not None else default_quad_n(r)
    j1s = j2s = 0.0
    # tau's interior edges, in the order estimate_all sums them in
    own = [e for e in edges(p)[0] if tau in (e.plus, e.minus)]
    for j1, j2 in _edge_jumps_sq(U, own, n):
        j1s += 0.5 * j1
        j2s += 0.5 * j2
    interior, = _interior_sq(U, f, [tau], n)
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
