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
from typing import NamedTuple

import numpy as np

from .mesh import Cell, EdgeArrays, edge_arrays, support_extension
from .quadrature import _requests, _row_dots
from .splines import SplineFunction
from .assembly import _legendre_project, default_quad_n, h2_seminorm_sq

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


def _edge_jumps_sq(U: SplineFunction, es: EdgeArrays,
                   quad_n: int) -> tuple[np.ndarray, np.ndarray]:
    """``h^3 ||J1||^2`` and ``h ||J2||^2`` of each interior edge of
    ``es``, as two arrays in edge order.

    ``U`` is C^(r-1), as each B-spline is, so ``J1 = [d_n lap U]``
    vanishes for r = 2, ``J2 = [lap U]`` for r = 3 and both for r >= 4:
    a vanishing term is an exact 0.0, not evaluated (no edge pass at
    r >= 4).  At r = 2 both axes take the Laplacian's two terms, so one
    pass covers every edge; at r = 3 the normal derivative's terms
    depend on the axis, so there is one pass per axis.  Per run of
    edges, both sides are evaluated in one stacked call: plus owners in
    the first half of the rows, minus owners in the second.
    """
    j1, j2 = np.zeros(len(es)), np.zeros(len(es))
    r = U.space.degree
    if r == 2:
        passes = [(np.arange(len(es)), [(2, 0), (0, 2)])]
    elif r == 3:
        passes = [(np.flatnonzero(es.axis == 0), [(3, 0), (1, 2)]),
                  (np.flatnonzero(es.axis == 1), [(2, 1), (0, 3)])]
    else:
        passes = []
    for on, (u, v) in passes:
        for lo, run, X, Y, W, _ in _requests(es[on], quad_n):
            B = len(run)
            d = U.eval_stacked(run.cells(run.plus) + run.cells(run.minus),
                               np.vstack([X, X]), np.vstack([Y, Y]), [u, v])
            sq = _row_dots(W, ((d[u][:B] + d[v][:B])
                               - (d[u][B:] + d[v][B:])) ** 2)
            at = on[lo:lo + B]
            if r == 2:
                j2[at] = run.length * sq
            else:  # h**3, an exact power of two
                j1[at] = np.ldexp(1.0, -3 * run.level) * sq
    return j1, j2


def _oscillations(cells: list[Cell], d: int, X, Y, W, F) -> list[float]:
    """``h^2 ||f - fbar||`` of each of ``cells`` from the samples ``F`` at
    its rule ``(X[q], Y[q], W[q])``, ``fbar`` its
    :func:`~afem.assembly._legendre_project` of degree ``d``."""
    modes, coef = _legendre_project(cells, d, X, Y, W, F)
    resid = F - (coef[:, None, :] @ modes)[:, 0, :]
    return [c.side ** 2 * float(v) ** 0.5
            for c, v in zip(cells, _row_dots(W, resid ** 2))]


def oscillation(f, tau: Cell, r: int, quad_n: int | None = None) -> float:
    """Data oscillation ``h^2 ||f - fbar||`` with ``fbar`` the cellwise
    L2 projection onto tensor polynomials of degree r-2 (the one-cell
    case of the oscillation on :func:`estimate_all`'s interior pass)."""
    n = quad_n if quad_n is not None else default_quad_n(r)
    (_, _, X, Y, W, F), = _requests([tau], n, f)
    return _oscillations([tau], r - 2, X, Y, W, F)[0]


def _cell_terms(U: SplineFunction, f, cells: list[Cell], quad_n: int):
    """``(h^4 ||f - lap^2 U||^2, osc^2)`` of each of ``cells`` from one
    rule pass."""
    for _, run, X, Y, W, F in _requests(cells, quad_n, f):
        V = U.eval_stacked(run, X, Y, [(4, 0), (2, 2), (0, 4)])
        interior = _row_dots(W, (F - (V[(4, 0)] + 2.0 * V[(2, 2)]
                                      + V[(0, 4)])) ** 2)
        osc = _oscillations(run, U.space.degree - 2, X, Y, W, F)
        for c, v, o in zip(run, interior, osc):
            yield c.side ** 4 * float(v), o ** 2


def estimate_all(U: SplineFunction, f,
                 quad_n: int | None = None) -> Indicators:
    """All per-cell indicator records plus totals, deterministic order.

    The oscillation shares the interior residual's rule pass and samples
    of ``f``.
    """
    p = U.space.partition
    n = quad_n if quad_n is not None else default_quad_n(U.space.degree)
    interior, _ = edge_arrays(p)

    # each edge's half to its plus, then its minus owner, in edge order
    owners = np.stack([interior.plus, interior.minus], axis=1).ravel()
    jumps = []
    for j in _edge_jumps_sq(U, interior, n):
        per_cell = np.zeros(len(p))
        np.add.at(per_cell, owners, np.repeat(0.5 * j, 2))
        jumps.append(per_cell.tolist())
    jump1, jump2 = jumps

    records: dict[Cell, CellIndicator] = {}
    total = 0.0
    osc_total = 0.0
    for k, (c, (interior_sq, osc_sq)) in enumerate(zip(
            p.cells, _cell_terms(U, f, p.cells, n))):
        eta_sq = interior_sq + jump1[k] + jump2[k]
        records[c] = CellIndicator(eta_sq, interior_sq, jump1[k], jump2[k],
                                   osc_sq)
        total += eta_sq
        osc_total += osc_sq
    return Indicators(records, total, osc_total)


def indicator(U: SplineFunction, f, tau: Cell,
              quad_n: int | None = None) -> CellIndicator:
    """Indicator record of a single cell (edge terms split half/half)."""
    p = U.space.partition
    if tau not in p:
        raise ValueError(f"{tau} is not an active cell")
    r = U.space.degree
    n = quad_n if quad_n is not None else default_quad_n(r)
    j1s = j2s = 0.0
    # tau's interior edges, in the order estimate_all sums them in
    interior, _ = edge_arrays(p)
    k = p._position[tau]
    own = interior[np.flatnonzero((interior.plus == k)
                                  | (interior.minus == k))]
    for j1, j2 in zip(*(j.tolist() for j in _edge_jumps_sq(U, own, n))):
        j1s += 0.5 * j1
        j2s += 0.5 * j2
    (interior, osc_sq), = _cell_terms(U, f, [tau], n)
    return CellIndicator(interior + j1s + j2s, interior, j1s, j2s, osc_sq)


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


def lipschitz_gap(V: SplineFunction, W: SplineFunction,
                  tau: Cell) -> tuple[float, float]:
    """Per-cell indicator gap and the seminorm that should control it.

    Returns ``(|eta(V,tau) - eta(W,tau)|, |V - W|_{H2(omega_tau)})``
    with the source term fixed to zero, against which the ratio of the
    two is audited for stability.
    """
    if V.space is not W.space:
        raise ValueError("V and W must live in the same space")
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    rec_v = indicator(V, zero, tau)
    rec_w = indicator(W, zero, tau)
    gap = abs(rec_v.eta_sq ** 0.5 - rec_w.eta_sq ** 0.5)
    omega = sorted(support_extension(V.space, tau))
    return gap, h2_seminorm_sq(V - W, omega) ** 0.5
