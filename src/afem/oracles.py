"""Independent ground truth for the test suite.

Everything here is deliberately implemented by a different route than
the module it checks: closed-form manufactured solutions with
finite-difference validation, dense normal-equation projections, a
dense global dual basis, scipy-based univariate B-spline evaluation and
exhaustive small-instance versions of the mesh and selection logic.
Shared code with the production path is limited to basis evaluation
where the contract explicitly concerns coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np

from .driver import Problem
from .mesh import Cell, Partition
from .quadrature import gauss_cell
from .splines import (HierarchicalSpace, SplineFunction, knot_vector,
                      num_functions)

__all__ = [
    "manufactured_sin2",
    "fd_check",
    "dense_l2_projection",
    "global_dual_basis",
    "AnalyticCallable",
    "random_spline",
    "kraft_selection_bruteforce",
    "facet_edges_bruteforce",
    "support_extension_bruteforce",
    "scipy_univariate_ders",
    "exact_two_scale_matrix",
]


def manufactured_sin2() -> Problem:
    """u(x, y) = sin(pi x)^2 sin(pi y)^2; clamped on the unit square."""
    pi = np.pi

    def s(t):
        return np.sin(pi * t) ** 2

    def s1(t):
        return pi * np.sin(2 * pi * t)

    def s2(t):
        return 2 * pi ** 2 * np.cos(2 * pi * t)

    def s3(t):
        return -4 * pi ** 3 * np.sin(2 * pi * t)

    def s4(t):
        return -8 * pi ** 4 * np.cos(2 * pi * t)

    return Problem(
        name="sin2",
        u=lambda x, y: s(x) * s(y),
        grad_u=lambda x, y: (s1(x) * s(y), s(x) * s1(y)),
        laplacian_u=lambda x, y: s2(x) * s(y) + s(x) * s2(y),
        grad_laplacian_u=lambda x, y: (s3(x) * s(y) + s1(x) * s2(y),
                                       s2(x) * s1(y) + s(x) * s3(y)),
        f=lambda x, y: s4(x) * s(y) + 2 * s2(x) * s2(y) + s(x) * s4(y),
    )


def zero_problem() -> Problem:
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    zero2 = lambda x, y: (np.zeros_like(np.asarray(x, float)),
                          np.zeros_like(np.asarray(x, float)))
    return Problem("zero", zero, zero, zero2, zero, zero2)


def manufactured_bubble() -> Problem:
    """u(x, y) = 256 x^2 (1-x)^2 y^2 (1-y)^2; clamped polynomial bubble.

    Lies in every tensor spline space of degree at least 4, so the
    conforming Galerkin solution must reproduce it to solver precision.
    """
    def p(t):
        return t * t * (1.0 - t) ** 2

    def p1(t):
        return 2.0 * t * (1.0 - t) * (1.0 - 2.0 * t)

    def p2(t):
        return 2.0 - 12.0 * t + 12.0 * t * t

    def p3(t):
        return -12.0 + 24.0 * t

    c = 256.0
    return Problem(
        name="bubble",
        u=lambda x, y: c * p(x) * p(y),
        grad_u=lambda x, y: (c * p1(x) * p(y), c * p(x) * p1(y)),
        laplacian_u=lambda x, y: c * (p2(x) * p(y) + p(x) * p2(y)),
        grad_laplacian_u=lambda x, y: (
            c * (p3(x) * p(y) + p1(x) * p2(y)),
            c * (p2(x) * p1(y) + p(x) * p3(y))),
        f=lambda x, y: c * (24.0 * p(y) + 2.0 * p2(x) * p2(y)
                            + 24.0 * p(x)),
    )


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticCallable:
    """Pairs a value function with its exact derivative for fd_check."""

    value: Callable
    derivative: Callable  # (x, y, ax, ay) -> float


def _central_1d(order: int, step: float):
    """Stencil offsets/weights of the order-2 central difference."""
    offsets = np.array([order / 2.0 - i for i in range(order + 1)])
    weights = np.array([(-1) ** i * comb(order, i) for i in range(order + 1)],
                       dtype=float) / step ** order
    return offsets * step, weights


def fd_check(fn, x: float, y: float, alpha: tuple[int, int],
             step: float = 1e-3) -> tuple[float, float, float]:
    """Central-difference cross-check of a derivative evaluation.

    Returns ``(analytic, numeric, gap)``.  For spline functions the
    whole stencil must stay inside one active cell; crossing a cell
    boundary raises, because the derivatives are only piecewise smooth.
    """
    ax, ay = alpha
    if ax + ay > 4:
        raise ValueError("derivative order above 4 is unsupported")

    if isinstance(fn, SplineFunction):
        cell = fn.space.partition.find_cell(x, y)
        x0, x1, y0, y1 = cell.bounds
        if (x - ax / 2.0 * step < x0 or x + ax / 2.0 * step > x1
                or y - ay / 2.0 * step < y0 or y + ay / 2.0 * step > y1):
            raise ValueError(
                f"finite-difference stencil at ({x}, {y}) crosses the "
                f"boundary of {cell}")
        value = lambda px, py: fn.eval(px, py, cell=cell)
        analytic = fn.eval(x, y, ax, ay, cell=cell)
    elif isinstance(fn, AnalyticCallable):
        value = lambda px, py: float(fn.value(px, py))
        analytic = float(fn.derivative(x, y, ax, ay))
    else:
        raise TypeError("fd_check needs a SplineFunction or AnalyticCallable")

    ox, wx2 = _central_1d(ax, step) if ax else (np.array([0.0]), np.array([1.0]))
    oy, wy2 = _central_1d(ay, step) if ay else (np.array([0.0]), np.array([1.0]))
    numeric = 0.0
    for dx, wxv in zip(ox, wx2):
        for dy, wyv in zip(oy, wy2):
            numeric += wxv * wyv * value(x + dx, y + dy)
    return analytic, numeric, abs(analytic - numeric)


# ---------------------------------------------------------------------------
# dense projections and duals
# ---------------------------------------------------------------------------

def dense_l2_projection(degree: int, cell: Cell, g,
                        quad_n: int | None = None) -> np.ndarray:
    """Monomial coefficients of the cellwise L2 projection of ``g``.

    Solves the dense normal equations in the local monomial basis on
    ``(xi, zeta) in [-1, 1]^2``; the reference path for the production
    Legendre projection.
    """
    n = quad_n if quad_n is not None else max(2 * degree + 2, 4)
    rule = gauss_cell(cell, n)
    x0, x1, y0, y1 = cell.bounds
    xi = 2 * (rule.points[:, 0] - x0) / (x1 - x0) - 1
    zeta = 2 * (rule.points[:, 1] - y0) / (y1 - y0) - 1
    nb = (degree + 1) ** 2
    basis = np.empty((nb, len(xi)))
    k = 0
    for a in range(degree + 1):
        for b in range(degree + 1):
            basis[k] = xi ** a * zeta ** b
            k += 1
    G = (basis * rule.weights) @ basis.T
    rhs = (basis * rule.weights) @ np.asarray(g(rule.points[:, 0],
                                                rule.points[:, 1]), float)
    coef = np.linalg.solve(G, rhs)
    return coef.reshape(degree + 1, degree + 1)


def global_dual_basis(space: HierarchicalSpace,
                      quad_n: int | None = None) -> np.ndarray:
    """Dense dual-basis coefficients: row ``lam`` expresses ``psi_lam``
    in the primal basis, so ``D @ M = I`` for the Gram matrix ``M``."""
    if space.dim > 200:
        raise ValueError("global dual basis is a dense small-instance oracle")
    M = gram_matrix(space, quad_n)
    return np.linalg.inv(M)


def gram_matrix(space: HierarchicalSpace,
                quad_n: int | None = None) -> np.ndarray:
    n = quad_n if quad_n is not None else space.degree + 2
    M = np.zeros((space.dim, space.dim))
    for cell in space.partition:
        rule = gauss_cell(cell, n)
        pos, tabs = space.basis_on_cell(cell, rule.points[:, 0],
                                        rule.points[:, 1], [(0, 0)])
        V = tabs[(0, 0)]
        M[np.ix_(pos, pos)] += (V * rule.weights) @ V.T
    return M


def random_spline(space: HierarchicalSpace, rng: np.random.Generator,
                  scale: float = 1.0) -> SplineFunction:
    return SplineFunction(space, scale * rng.standard_normal(space.dim))


# ---------------------------------------------------------------------------
# scipy-based univariate oracle
# ---------------------------------------------------------------------------

def scipy_univariate_ders(level: int, degree: int, idx: int, x: float,
                          order: int) -> float:
    """Derivative of one univariate basis function via scipy's evaluator.

    ``scipy.interpolate`` is imported on call: it loads most of scipy,
    and nothing but this oracle needs it."""
    from scipy.interpolate import BSpline

    t = np.asarray(knot_vector(level, degree))
    c = np.zeros(num_functions(level, degree))
    c[idx] = 1.0
    return float(BSpline(t, c, degree)(x, nu=order))


def exact_two_scale_matrix(level: int, degree: int) -> np.ndarray:
    """Two-scale matrix by exact midpoint insertion into the whole knot
    vector (Boehm's algorithm in rationals), each entry rounded once."""
    p, m = degree, 1 << level
    t = [Fraction(min(max(k - p, 0), m), m) for k in range(m + 2 * p + 1)]
    rows = [[Fraction(i == c) for c in range(m + p)] for i in range(m + p)]
    for s in range(m):
        x = Fraction(2 * s + 1, 2 * m)
        k = max(q for q in range(len(t)) if t[q] <= x)
        new = []
        for i in range(len(rows) + 1):
            if i <= k - p:
                new.append(rows[i])
            elif i <= k:
                a = (x - t[i]) / (t[i + p] - t[i])
                new.append([a * u + (1 - a) * v
                            for u, v in zip(rows[i], rows[i - 1])])
            else:
                new.append(rows[i - 1])
        rows = new
        t.insert(k + 1, x)
    return np.array([[float(v) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# exhaustive small-instance implementations
# ---------------------------------------------------------------------------

def kraft_selection_bruteforce(p: Partition, r: int) -> list[tuple[int, int, int]]:
    """Active set by direct region containment over all candidates.

    The level-l selection region is the union of active cells with level
    at least l; a function is selected when its support box lies in its
    own level's region but not in the next finer one.  Geometry is done
    in integer coordinates on the common finest grid.
    """
    maxlev = p.max_level
    scale = 1 << maxlev

    def region(lev):
        boxes = []
        for c in p.cells:
            if c.level >= lev:
                f = 1 << (maxlev - c.level)
                boxes.append((c.i * f, (c.i + 1) * f, c.j * f, (c.j + 1) * f))
        return boxes

    def covered(box, boxes):
        x0, x1, y0, y1 = box
        area = 0
        for bx0, bx1, by0, by1 in boxes:
            ox = max(0, min(x1, bx1) - max(x0, bx0))
            oy = max(0, min(y1, by1) - max(y0, by0))
            area += ox * oy
        return area == (x1 - x0) * (y1 - y0)

    active = []
    for lev in range(maxlev + 1):
        m = 1 << lev
        f = 1 << (maxlev - lev)
        own = region(lev)
        finer = region(lev + 1)
        for ix in range(m + r):
            sx0, sx1 = max(0, ix - r) * f, min(m, ix + 1) * f
            for iy in range(m + r):
                sy0, sy1 = max(0, iy - r) * f, min(m, iy + 1) * f
                box = (sx0, sx1, sy0, sy1)
                if covered(box, own) and not covered(box, finer):
                    active.append((lev, ix, iy))
    del scale
    return sorted(active)


def facet_edges_bruteforce(p: Partition):
    """Edge sets by exhaustive facet matching on the common finest grid.

    Returns ``(interior, boundary)`` where each interior item is
    ``(axis, level, fixed_idx, lo_idx, plus, minus)`` in the edge's own
    scale and each boundary item is ``(axis, level, fixed_idx, lo_idx,
    owner)``; directly comparable to ``Edge.key`` plus owners.
    """
    maxlev = p.max_level
    unit = 1 << maxlev
    facets = []  # (axis, fixed, lo, hi, side, cell) in finest-grid integers
    for c in p.cells:
        f = 1 << (maxlev - c.level)
        x0, x1 = c.i * f, (c.i + 1) * f
        y0, y1 = c.j * f, (c.j + 1) * f
        facets.append((0, x0, y0, y1, +1, c))  # left facet, cell on + side
        facets.append((0, x1, y0, y1, -1, c))  # right facet, cell on - side
        facets.append((1, y0, x0, x1, +1, c))
        facets.append((1, y1, x0, x1, -1, c))

    interior = set()
    boundary = set()
    for axis, fixed, lo, hi, side, c in facets:
        if fixed == 0 or fixed == unit:
            shift = maxlev - c.level
            boundary.add((axis, c.level, fixed >> shift, lo >> shift, c))
            continue
        if side != +1:
            continue
        for axis2, fixed2, lo2, hi2, side2, c2 in facets:
            if axis2 != axis or side2 != -1 or fixed2 != fixed or c2 == c:
                continue
            olo, ohi = max(lo, lo2), min(hi, hi2)
            if olo >= ohi:
                continue
            fine = c if c.level >= c2.level else c2
            shift = maxlev - fine.level
            assert olo >> shift << shift == olo and (ohi - olo) == (1 << shift)
            plus, minus = sorted((c, c2), key=lambda q: (q.level, q.i, q.j))
            interior.add((axis, fine.level, fixed >> shift, olo >> shift,
                          plus, minus))
    return sorted(interior), sorted(boundary,
                                    key=lambda t: (t[0], t[1], t[2], t[3]))


def support_extension_bruteforce(p: Partition, space: HierarchicalSpace,
                                 tau: Cell) -> set[Cell]:
    """Support extension by scanning every (function, cell) pair."""
    tx0, tx1, ty0, ty1 = tau.bounds
    out = {tau}
    for fn in space.active:
        bx0, bx1, by0, by1 = space.support_box(fn)
        if not (bx0 < tx1 and bx1 > tx0 and by0 < ty1 and by1 > ty0):
            continue
        for c in p.cells:
            cx0, cx1, cy0, cy1 = c.bounds
            if bx0 < cx1 and bx1 > cx0 and by0 < cy1 and by1 > cy0:
                out.add(c)
    return out
