"""Hierarchical tensor-product B-spline spaces on quadtree partitions.

Each level ``l`` carries an open uniform knot vector with ``2**l`` spans
on [0,1] and maximal smoothness ``C^(r-1)``.  A function is addressed by
``(level, ix, iy)``.  The active set follows the classical hierarchical
selection rule: a function is active when its support lies in the
region occupied by cells of its level or finer, but not entirely in the
region of strictly finer cells.  With ``truncated=True`` the basis is
truncated against finer active functions, which restores the partition
of unity.

Evaluation is exact per cell: every active function restricted to an
active cell is expressed in the cell's own-level local tensor basis, so
derivatives are plain polynomial derivatives.  A cell's extraction is
its parent's times the two-scale blocks of the parent's span classes
(exact knot insertion, the same at every level), so each dyadic
ancestor is processed once per space.

The local basis comes from level-independent reference tables.  On span
``i`` of a level with ``m = 2**l`` spans, the ``r+1`` window functions
depend only on the span class ``(min(i, r), min(m-1-i, r))``, its
distance to either boundary, once expressed in the reference coordinate
``xi = x*m - i``; the k-th derivative then scales by ``m**k``.  Both the
scaling by ``m`` and the subtraction of ``i`` are exact in floating
point, so tables are keyed on the exact bytes of ``xi`` and shared, in
one bounded process-wide cache, by every cell, level and space; each
space memoises the scaled tables on ``(level, span, points)``.  Points
are always paired coordinates, as :func:`afem.quadrature.gauss_cell`
lays them out.

Evaluation is stacked: requests (a cell and its points) are grouped by
extraction size, and each chunk takes one ``np.matmul`` per order.  That
runs the same BLAS call per item as a one-cell product, so results do
not depend on the grouping; widening an operand would change rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_matrix

from .mesh import Cell, Partition
from .quadrature import _on_points, gauss_cell
from .solver import SolveOptions, solve_spd

__all__ = [
    "HierarchicalSpace",
    "SplineFunction",
    "DualFunctionalSet",
    "build_space",
    "conforming_indices",
    "quasi_interpolant",
    "coarse_to_fine",
    "knot_vector",
    "bspline_ders",
    "two_scale_matrix",
    "save_solution",
    "load_solution",
]

MAX_DERIVATIVE_ORDER = 4

# entries of the process-wide reference-table cache; one entry is one
# (degree, span class, point set) table of at most a few KB
REFERENCE_TABLE_CACHE_SIZE = 2048

# requests per stacked product: bounds the tables of one chunk (at most
# 32 * 25 * 64 floats per order) while amortising numpy's per-call cost
_STACK_ITEMS = 32
# requests a stacked consumer gathers quadrature points for at once
_BLOCK_REQUESTS = 4 * _STACK_ITEMS


# ---------------------------------------------------------------------------
# univariate machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def knot_vector(level: int, degree: int) -> np.ndarray:
    """Open uniform knot vector with ``2**level`` spans on [0, 1]."""
    m = 1 << level
    interior = np.arange(1, m) / m
    t = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    t.flags.writeable = False
    return t


def num_functions(level: int, degree: int) -> int:
    return (1 << level) + degree


def bspline_ders(knots: np.ndarray, degree: int, span: int, x,
                 n_ders: int) -> np.ndarray:
    """Nonzero B-splines and derivatives at ``x`` on a knot span.

    ``span`` is a knot index with ``knots[span] <= x <= knots[span+1]``;
    the returned array ``d`` has shape ``(n_ders+1, degree+1)`` with
    ``d[k, j]`` the k-th derivative of function ``span - degree + j``.
    Values are those of the span's polynomial piece, i.e. one-sided at
    span endpoints.  Orders beyond the degree are zero.

    ``x`` may be an array of points on the span: its shape is appended
    to the result's, and each point takes the scalar call's sequence of
    rounded operations, so both give the same bits.
    """
    x = np.asarray(x, dtype=float)
    p = degree
    nd = min(n_ders, p)
    ndu = np.empty((p + 1, p + 1) + x.shape)
    ndu[0, 0] = 1.0
    left = np.empty((p + 1,) + x.shape)
    right = np.empty((p + 1,) + x.shape)
    for j in range(1, p + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for rr in range(j):
            ndu[j, rr] = right[rr + 1] + left[j - rr]
            temp = ndu[rr, j - 1] / ndu[j, rr]
            ndu[rr, j] = saved + right[rr + 1] * temp
            saved = left[j - rr] * temp
        ndu[j, j] = saved

    ders = np.zeros((n_ders + 1, p + 1) + x.shape)
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1) + x.shape)
    for rr in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nd + 1):
            d = 0.0
            rk = rr - k
            pk = p - k
            if rr >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if rr - 1 <= pk else p - rr
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if rr <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, rr]
                d += a[s2, k] * ndu[rr, pk]
            ders[k, rr] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, nd + 1):
        ders[k] *= fac
        fac *= p - k
    return ders


def span_class(level: int, span: int, degree: int) -> tuple[int, int]:
    """Distance of a span to the left and right boundary, capped at the
    degree: spans of one class carry the same window functions in
    reference coordinates, at every level."""
    m = 1 << level
    return min(span, degree), min(m - 1 - span, degree)


@lru_cache(maxsize=REFERENCE_TABLE_CACHE_SIZE)
def _reference_table(degree: int, a: int, b: int,
                     xi_bytes: bytes) -> np.ndarray:
    """Window-function ders ``(MAX_DERIVATIVE_ORDER+1, r+1, n)`` of span
    class ``(a, b)`` at the reference points packed in ``xi_bytes``.

    One array pass of ``bspline_ders`` over the distinct coordinates
    fills it; the gathered table is copied to C order, so every product
    built from it takes the same BLAS path whatever the points.
    """
    # the class's 2r+2 local knots, span [0, 1] in reference units
    t = np.clip(np.arange(2 * degree + 2, dtype=float) - degree, -a, b + 1)
    xi, inv = np.unique(np.frombuffer(xi_bytes), return_inverse=True)
    ders = bspline_ders(t, degree, degree, xi, MAX_DERIVATIVE_ORDER)
    tab = np.ascontiguousarray(ders[:, :, inv])
    tab.flags.writeable = False
    return tab


@lru_cache(maxsize=None)
def _two_scale_block(degree: int, a: int, b: int, parity: int) -> np.ndarray:
    """Two-scale block of a span of class ``(a, b)`` and a child of
    ``parity``: row ``q``, column ``c`` hold the coefficient of the
    child's ``q``-th window function in the span's ``c``-th one.

    It is the same at every level.  The entries come from exact knot
    insertion: the blossom of each coarse window function at the fine
    function's interior knots, by de Boor's algorithm in integers (knots
    in half units, each step scaled by the lcm of its denominators), so
    each entry is rounded once, by the final integer division.
    """
    r = degree
    t = [2 * min(max(k - r, -a), b + 1) for k in range(2 * r + 2)]
    fa, fb = min(2 * a + parity, r), min(2 * b + 1 - parity, r)
    tau = [min(max(k - r, -fa), fb + 1) + parity for k in range(2 * r + 2)]
    rows = []
    for q in range(r + 1):
        d = [[int(l == c) for c in range(r + 1)] for l in range(r + 1)]
        scale = 1
        for k, u in enumerate(tau[q + 1:q + r + 1], start=1):
            step = lcm(*(t[l + r + 1 - k] - t[l] for l in range(k, r + 1)))
            for l in range(r, k - 1, -1):
                lo, hi = t[l], t[l + r + 1 - k]
                d[l] = [((hi - u) * y + (u - lo) * z) * (step // (hi - lo))
                        for y, z in zip(d[l - 1], d[l])]
            scale *= step
        rows.append([v / scale for v in d[r]])
    rows = np.array(rows)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def two_scale_matrix(level: int, degree: int) -> np.ndarray:
    """Coefficient map from level ``level`` to ``level + 1``: column
    ``i`` holds the fine-level coefficients of the coarse function ``i``
    (midpoint knot insertion), assembled from the span-class blocks."""
    w = degree + 1
    P = np.zeros((num_functions(level + 1, degree),
                  num_functions(level, degree)))
    for c in range(2 << level):  # the child spans, each in span c // 2
        P[c:c + w, c // 2:c // 2 + w] = _two_scale_block(
            degree, *span_class(level, c // 2, degree), c % 2)
    P.flags.writeable = False
    return P


# ---------------------------------------------------------------------------
# hierarchical space
# ---------------------------------------------------------------------------

FnIndex = tuple[int, int, int]  # (level, ix, iy)


class HierarchicalSpace:
    """Hierarchical (truncated) B-spline space over a quadtree partition.

    Immutable after construction; evaluation helpers memoise read-only
    extraction operators per dyadic cell and scaled basis tables per
    point set, filled from the process-wide reference cache.  The memos
    are transparent to callers, safe for read-only sharing, and freed
    with the space.
    """

    def __init__(self, partition: Partition, degree: int,
                 truncated: bool = True):
        if degree < 2:
            raise ValueError("degree must be at least 2 for a C1 space")
        self.partition = partition
        self.degree = degree
        self.truncated = truncated
        # positions of the active functions, per level on (ix, iy)
        self._by_level: dict[int, dict[tuple[int, int], int]] = {}
        self.active: tuple[FnIndex, ...] = tuple(self._select_active())
        # extraction of every dyadic cell built, keyed on (level, i, j),
        # with its positions also as an index array
        self._carries: dict[tuple[int, int, int], tuple[
            tuple[int, ...], np.ndarray, np.ndarray]] = {}
        self._tables: dict[tuple[int, int, bytes], np.ndarray] = {}

    # -- selection ------------------------------------------------------

    def _select_active(self) -> list[FnIndex]:
        """The classical selection, level by level on the partition's
        arrays: a function of level ``l`` is a candidate when an active
        cell of level ``l`` lies in its support, and active when no cell
        of its support lies strictly inside a coarser active cell."""
        p, r = self.partition, self.degree
        w = np.arange(r + 1)
        active: list[FnIndex] = []
        for lev in np.unique(p._level).tolist():
            at = p._level == lev
            m, n, s = 1 << lev, (1 << lev) + r, p.max_level - lev
            keys = np.unique(((p._i[at, None] + w) * n)[:, :, None]
                             + (p._j[at, None] + w)[:, None, :])
            ix, iy = keys // n, keys % n
            # support cells, clipped to the square (repeats are harmless)
            sx = np.clip(ix[:, None] - w, 0, m - 1)[:, :, None] << s
            sy = np.clip(iy[:, None] - w, 0, m - 1)[:, None, :] << s
            ok = ~(p._level[p._locate(sx, sy)] < lev).any(axis=(1, 2))
            fns = list(zip(ix[ok].tolist(), iy[ok].tolist()))
            self._by_level[lev] = {f: len(active) + k
                                   for k, f in enumerate(fns)}
            active += [(lev, *f) for f in fns]
        return active

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.active)

    def support_box(self, fn: FnIndex) -> tuple[float, float, float, float]:
        """Support of the untruncated tensor function (a superset for THB)."""
        lev, ix, iy = fn
        m = 1 << lev
        r = self.degree
        return (max(0, ix - r) / m, min(m, ix + 1) / m,
                max(0, iy - r) / m, min(m, iy + 1) / m)

    # -- extraction ------------------------------------------------------

    def cell_extraction(self, cell: Cell) -> tuple[tuple[int, ...], np.ndarray]:
        """Active functions on a cell and their local representation.

        Returns global positions ``pos`` and a read-only matrix ``C`` of
        shape ``(len(pos), (r+1)**2)`` expressing each function,
        restricted to the cell, in the cell-level local tensor basis.
        Local index layout is ``a * (r+1) + b`` for the (a, b) window
        function.
        """
        if cell not in self.partition:
            raise ValueError(f"{cell} is not an active cell")
        return self._extract(*cell)[:2]

    def _extract(self, level: int, i: int, j: int,
                 ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
        """Extraction of any dyadic cell ``(level, i, j)``, built from its
        parent's.

        The rows are the active functions of the cell's level and of
        coarser levels whose window meets the cell, in the cell-level
        local basis, and the rows as an index array; a child takes its
        parent's rows through the two-scale blocks of its span classes and
        appends its own level's functions (after truncating the carried
        rows against them).  Memoised per cell, so every dyadic ancestor
        is processed once per space.
        """
        got = self._carries.get((level, i, j))
        if got is not None:
            return got
        r = self.degree
        w = r + 1
        if level:
            rows, carry, _ = self._extract(level - 1, i >> 1, j >> 1)
            if rows:
                Px = _two_scale_block(r, *span_class(level - 1, i >> 1, r),
                                      i & 1)
                Py = _two_scale_block(r, *span_class(level - 1, j >> 1, r),
                                      j & 1)
                # np.kron(Px, Py): one rounded product per entry, C order
                K = (Px[:, None, :, None] * Py[None, :, None, :]).reshape(
                    w * w, w * w)
                carry = carry @ K.T
        else:
            rows, carry = (), np.zeros((0, w * w))
        level_map = self._by_level.get(level, {})
        here = [(pos, a * w + b) for a in range(w) for b in range(w)
                if (pos := level_map.get((i + a, j + b))) is not None]
        if here:
            cols = [lc for _, lc in here]
            if self.truncated and rows:
                carry[:, cols] = 0.0
            unit = np.zeros((len(here), w * w))
            unit[np.arange(len(here)), cols] = 1.0
            carry = np.vstack([carry, unit]) if rows else unit
            rows += tuple(pos for pos, _ in here)
        index = np.array(rows, dtype=np.intp)
        carry.flags.writeable = index.flags.writeable = False
        got = self._carries[level, i, j] = rows, carry, index
        return got

    # -- basis tables ------------------------------------------------------

    def _univariate(self, level: int, span: int, xs: np.ndarray,
                    max_order: int) -> np.ndarray:
        """Read-only table ``(max_order+1, r+1, len(xs))`` of window-function
        ders; every order is memoised per space on ``(level, span, xs)``."""
        key = (level, span, xs.tobytes())
        tab = self._tables.get(key)
        if tab is None:
            r = self.degree
            m = 1 << level
            xi = xs * m - span  # exact: power-of-two scaling, Sterbenz subtraction
            ref = _reference_table(r, *span_class(level, span, r), xi.tobytes())
            scale = float(m) ** np.arange(MAX_DERIVATIVE_ORDER + 1)
            tab = ref * scale[:, None, None]
            tab.flags.writeable = False
            self._tables[key] = tab
        return tab[:max_order + 1]

    def basis_stacks(self, cells: Sequence[Cell], X, Y,
                     orders: Sequence[tuple[int, int]]):
        """Active-function derivative tables of many cells, stacked.

        Request ``q`` is ``cells[q]`` at the paired points ``(X[q],
        Y[q])``, ``n`` points each.  Requests are grouped by extraction
        row count ``k`` (groups in order of first appearance, requests in
        order) and cut into chunks of at most ``_STACK_ITEMS``.  Per chunk
        this yields the request numbers, their global positions ``(B, k)``
        and per order the tables ``(B, k, n)``: each item equals the
        one-cell product bit for bit.  Orders above the degree are exact
        zeros (one read-only array per chunk), neither tabulated nor
        multiplied.
        """
        groups: dict[int, list[int]] = {}
        for q, cell in enumerate(cells):
            groups.setdefault(len(self.cell_extraction(cell)[0]), []).append(q)
        r = self.degree
        live = [o for o in orders if o[0] <= r and o[1] <= r]
        ax = max((a for a, _ in live), default=0)
        ay = max((b for _, b in live), default=0)
        for k, members in groups.items():
            for lo in range(0, len(members), _STACK_ITEMS):
                items = members[lo:lo + _STACK_ITEMS]
                chunk = [cells[q] for q in items]
                tabs = {}
                if live:
                    C = _stack([self._carries[c][1] for c in chunk])
                    # the memoised univariate rows, stacked per axis
                    Dx = _stack([self._univariate(c.level, c.i, np.asarray(
                        X[q], float), ax) for c, q in zip(chunk, items)])
                    Dy = _stack([self._univariate(c.level, c.j, np.asarray(
                        Y[q], float), ay) for c, q in zip(chunk, items)])
                    # one window table alive at a time
                    for o in live:
                        tabs[o] = C @ _window_table(Dx, Dy, *o)
                if len(live) < len(orders):
                    zero = np.zeros((len(items), k, len(X[items[0]])))
                    zero.flags.writeable = False
                    for o in orders:
                        tabs.setdefault(o, zero)
                yield items, _stack([self._carries[c][2] for c in chunk]), tabs

    def basis_on_cell(self, cell: Cell, xs: np.ndarray, ys: np.ndarray,
                      orders: Sequence[tuple[int, int]],
                      ) -> tuple[tuple[int, ...], dict[tuple[int, int], np.ndarray]]:
        """Active-function derivative tables on a cell at paired points.

        Returns the global positions and, per derivative order, an array
        of shape ``(len(positions), n_points)``: the one-cell case of
        :meth:`basis_stacks`, with its exact zeros above the degree.
        """
        (_, _, tabs), = self.basis_stacks([cell], [xs], [ys], orders)
        return self._carries[cell][0], {o: T[0] for o, T in tabs.items()}


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Equal-shaped C-ordered arrays as one stacked array; a lone array
    as a view with a leading axis of one, the same layout without a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _window_table(Dx: np.ndarray, Dy: np.ndarray, a: int,
                  b: int) -> np.ndarray:
    """Stacked window table of order ``(a, b)``, ``(B, (r+1)**2, n)``,
    C-ordered: per item the outer product of row ``a`` of ``Dx`` and row
    ``b`` of ``Dy``, one rounded product per entry."""
    B, _, w, n = Dx.shape
    return (Dx[:, a, :, None, :] * Dy[:, b, None, :, :]).reshape(B, w * w, n)


def build_space(p: Partition, r: int, truncated: bool = True) -> HierarchicalSpace:
    """Construct the hierarchical spline space of degree ``r`` over ``p``."""
    return HierarchicalSpace(p, r, truncated)


# ---------------------------------------------------------------------------
# spline functions
# ---------------------------------------------------------------------------

class SplineFunction:
    """A function in a hierarchical spline space, given by coefficients."""

    def __init__(self, space: HierarchicalSpace, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (space.dim,):
            raise ValueError(
                f"expected {space.dim} coefficients, got {coefficients.shape}")
        self.space = space
        self.coefficients = coefficients

    def eval(self, x: float, y: float, ax: int = 0, ay: int = 0,
             cell: Cell | None = None) -> float:
        """Derivative ``d^(ax+ay)/dx^ax dy^ay`` at a point.

        At cell boundaries the one-sided limit from ``cell`` is taken;
        when ``cell`` is omitted the active cell containing the point
        (half-open convention) is used.
        """
        if ax < 0 or ay < 0 or ax + ay > MAX_DERIVATIVE_ORDER:
            raise ValueError(
                f"unsupported derivative order ({ax}, {ay}); "
                f"total order must be at most {MAX_DERIVATIVE_ORDER}")
        if cell is None:
            cell = self.space.partition.find_cell(x, y)
        vals = self.eval_many(np.array([x]), np.array([y]), ax, ay, cell)
        return float(vals[0])

    def eval_many(self, xs: np.ndarray, ys: np.ndarray, ax: int, ay: int,
                  cell: Cell) -> np.ndarray:
        """Vectorised derivative evaluation at paired points inside a cell."""
        return self.eval_batch(xs, ys, [(ax, ay)], cell)[(ax, ay)]

    def eval_batch(self, xs: np.ndarray, ys: np.ndarray,
                   orders: Sequence[tuple[int, int]],
                   cell: Cell) -> dict[tuple[int, int], np.ndarray]:
        """Several derivative orders at once on one cell: the one-cell
        case of :meth:`eval_stacked`."""
        return {o: v[0] for o, v in
                self.eval_stacked([cell], [xs], [ys], orders).items()}

    def value_stacks(self, cells: Sequence[Cell], X, Y,
                     orders: Sequence[tuple[int, int]]):
        """Derivative values per chunk of
        :meth:`HierarchicalSpace.basis_stacks`: yields ``(items, values)``
        with ``values[order]`` of shape ``(B, n)``, one stacked product of
        the gathered coefficients ``(B, 1, k)`` with each table ``(B, k,
        n)``, the same BLAS call per item as ``c @ T`` on one cell.
        Orders above the degree are exact zeros."""
        r = self.space.degree
        for items, index, tabs in self.space.basis_stacks(cells, X, Y, orders):
            cs = self.coefficients[index][:, None, :]
            yield items, {o: (cs @ T)[:, 0] if max(o) <= r
                          else np.zeros((len(items), T.shape[2]))
                          for o, T in tabs.items()}

    def eval_stacked(self, cells: Sequence[Cell], X, Y,
                     orders: Sequence[tuple[int, int]],
                     ) -> dict[tuple[int, int], np.ndarray]:
        """Derivative values ``{order: (R, n)}`` of ``R`` requests (cell
        ``cells[q]`` at the paired points ``(X[q], Y[q])``), in request
        order; each row equals the one-cell product ``c @ T`` on its cell,
        bit for bit, whatever the stacking.
        """
        n = len(X[0]) if len(cells) else 0
        out = {o: np.zeros((len(cells), n)) for o in orders}
        for items, vals in self.value_stacks(cells, X, Y, orders):
            for o, v in vals.items():
                out[o][items] = v
        return out

    def __call__(self, x: float, y: float) -> float:
        return self.eval(x, y)

    def __add__(self, other: "SplineFunction") -> "SplineFunction":
        self._check_same_space(other)
        return SplineFunction(self.space, self.coefficients + other.coefficients)

    def __sub__(self, other: "SplineFunction") -> "SplineFunction":
        self._check_same_space(other)
        return SplineFunction(self.space, self.coefficients - other.coefficients)

    def __mul__(self, scalar: float) -> "SplineFunction":
        return SplineFunction(self.space, self.coefficients * float(scalar))

    __rmul__ = __mul__

    def _check_same_space(self, other: "SplineFunction"):
        if other.space is not self.space:
            raise ValueError("spline functions live in different spaces")


# ---------------------------------------------------------------------------
# conforming subspace
# ---------------------------------------------------------------------------

def conforming_indices(s: HierarchicalSpace) -> tuple[int, ...]:
    """Positions of basis functions with zero value and normal derivative on G.

    For an open knot vector the first two and last two univariate
    functions are the only ones with nonzero boundary value or slope, so
    a tensor function conforms exactly when both univariate indices stay
    clear of the boundary by two.  Truncation only subtracts functions
    that already vanish to first order on the boundary, so the rule is
    unaffected by it (verified by trace sampling in the test suite).
    """
    r = s.degree
    out = []
    for k, (lev, ix, iy) in enumerate(s.active):
        n = num_functions(lev, r)
        if 2 <= ix <= n - 3 and 2 <= iy <= n - 3:
            out.append(k)
    return tuple(out)


# ---------------------------------------------------------------------------
# quasi-interpolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualFunctional:
    """Local functional: f -> sum(weights * f(points))."""

    points: np.ndarray   # (n, 2)
    weights: np.ndarray  # (n,)

    def __call__(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
        xs = self.points[:, 0]
        return float(self.weights @ _on_points(f(xs, self.points[:, 1]), xs))


def _basis_on_rules(space: HierarchicalSpace, cells: Sequence[Cell], n: int):
    """``(rule, positions, values, Gram block)`` of the active basis on
    each of ``cells`` at its ``n x n`` Gauss rule, through the stacks."""
    rules = [gauss_cell(c, n) for c in cells]
    out = [None] * len(cells)
    for items, index, tabs in space.basis_stacks(
            cells, [r.points[:, 0] for r in rules],
            [r.points[:, 1] for r in rules], [(0, 0)]):
        for q, pos, V in zip(items, index, tabs[(0, 0)]):
            out[q] = rules[q], pos, V, (V * rules[q].weights) @ V.T
    return out


class DualFunctionalSet:
    """Dual functionals biorthogonal to the active basis.

    Each functional is supported on the corresponding function's
    support box and is built from a least-squares inverse of the local
    Gram matrix there, so applying the set to any spline in the space
    reproduces its coefficients.
    """

    def __init__(self, space: HierarchicalSpace, quad_n: int | None = None):
        self.space = space
        n = quad_n if quad_n is not None else space.degree + 3
        boxes = [space.partition.cells_in_box(*space.support_box(fn))
                 for fn in space.active]
        # every cell of any support box, evaluated once through the stacks
        cells = sorted(set().union(*boxes))
        per_cell = dict(zip(cells, _basis_on_rules(space, cells, n)))
        duals: list[DualFunctional] = []
        for lam_pos, box in enumerate(boxes):
            per_box = [per_cell[c] for c in box]
            neighbors = sorted({q for _, pos, _, _ in per_box for q in pos})
            where = {q: k for k, q in enumerate(neighbors)}
            M = np.zeros((len(neighbors), len(neighbors)))
            for _, pos, _, block in per_box:
                idx = [where[q] for q in pos]
                M[np.ix_(idx, idx)] += block
            rhs = np.zeros(len(neighbors))
            rhs[where[lam_pos]] = 1.0
            a, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            duals.append(DualFunctional(
                np.vstack([rule.points for rule, *_ in per_box]),
                np.concatenate([(a[[where[q] for q in pos]] @ V) * rule.weights
                                for rule, pos, V, _ in per_box])))
        self.functionals = tuple(duals)

    def apply(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        return np.array([psi(f) for psi in self.functionals])


def quasi_interpolant(s: HierarchicalSpace, f, quad_n: int | None = None,
                      duals: DualFunctionalSet | None = None) -> SplineFunction:
    """Stable projection of ``f`` onto the spline space via local duals.

    ``f`` may be any callable of vectorised ``(x, y)`` or a
    :class:`SplineFunction`, in which case coefficients are reproduced
    exactly up to round-off.
    """
    if duals is None:
        duals = DualFunctionalSet(s, quad_n)
    if isinstance(f, SplineFunction):
        g = _pointwise_evaluator(f)
    else:
        g = f
    return SplineFunction(s, duals.apply(g))


def _pointwise_evaluator(fn: SplineFunction):
    """Values at points, each on the active cell that contains it: one
    stacked request per point."""
    def g(xs, ys):
        xs = np.atleast_1d(np.asarray(xs, float))
        ys = np.atleast_1d(np.asarray(ys, float))
        cells = [fn.space.partition.find_cell(x, y) for x, y in zip(xs, ys)]
        return fn.eval_stacked(cells, xs[:, None], ys[:, None],
                               [(0, 0)])[(0, 0)][:, 0]

    return g


# ---------------------------------------------------------------------------
# nested-space transfer
# ---------------------------------------------------------------------------

def coarse_to_fine(fn: SplineFunction, fine: HierarchicalSpace) -> SplineFunction:
    """Represent a spline exactly in a space over a refined partition:
    its L2 projection, with ``fn`` on the coarse cells that contain the
    fine ones, Gram blocks and loads scattered in partition order."""
    coarse = fn.space
    if fine.degree != coarse.degree:
        raise ValueError("spaces have different degrees; not nested")
    cells = fine.partition.cells
    parts = _basis_on_rules(fine, cells, fine.degree + 3)
    fvals = fn.eval_stacked([coarse.partition.owner(c) for c in cells],
                            [rule.points[:, 0] for rule, *_ in parts],
                            [rule.points[:, 1] for rule, *_ in parts],
                            [(0, 0)])[(0, 0)]
    rhs = np.zeros(fine.dim)
    rows, cols, vals = [], [], []
    for (rule, pos, V, block), f in zip(parts, fvals):
        rhs[pos] += V @ (rule.weights * f)
        rows.extend(np.repeat(pos, len(pos)))
        cols.extend(np.tile(pos, len(pos)))
        vals.extend(block.ravel())
    M = coo_matrix((vals, (rows, cols)), shape=(fine.dim, fine.dim)).tocsc()
    return SplineFunction(fine, solve_spd(M, rhs, SolveOptions()))


# ---------------------------------------------------------------------------
# plain-text serialization
# ---------------------------------------------------------------------------

def save_solution(fn: SplineFunction, path) -> None:
    """Write a spline function as text: header, mesh dump, coefficients."""
    s = fn.space
    lines = [f"degree {s.degree}",
             f"truncated {int(s.truncated)}",
             f"cells {len(s.partition)}"]
    lines.extend(f"{c.level} {c.i} {c.j}" for c in s.partition)
    lines.append(f"coeffs {s.dim}")
    lines.extend(repr(float(v)) for v in fn.coefficients)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_solution(path) -> SplineFunction:
    """Read a file written by :func:`save_solution`.

    A file that is truncated, has an unparsable or missing field, or
    carries trailing data raises ``ValueError("malformed solution
    file: ...")``.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError("malformed solution file: missing final newline "
                         "(truncated?)")
    it = iter(text.split())

    def token(kind=str, what="value"):
        try:
            return kind(next(it))
        except StopIteration:
            raise ValueError(f"malformed solution file: ended before "
                             f"{what}") from None
        except ValueError:
            raise ValueError(f"malformed solution file: bad {what}") from None

    def expect(tag):
        got = token(what=repr(tag))
        if got != tag:
            raise ValueError(f"malformed solution file: expected {tag!r}, got {got!r}")
        return token(int, tag)

    degree = expect("degree")
    truncated = expect("truncated")
    if truncated not in (0, 1):
        raise ValueError(f"malformed solution file: truncated must be 0 or 1, "
                         f"got {truncated}")
    ncells = expect("cells")
    cells = [Cell(token(int, "cell"), token(int, "cell"), token(int, "cell"))
             for _ in range(ncells)]
    ncoef = expect("coeffs")
    coefs = np.array([token(float, "coefficient") for _ in range(ncoef)])
    if next(it, None) is not None:
        raise ValueError("malformed solution file: data after the coefficients")
    # every space of degree r contains the (r+1)^2 bidegree-r polynomials
    if ncoef < (degree + 1) ** 2:
        raise ValueError(f"malformed solution file: {ncoef} coefficients "
                         f"cannot span a degree-{degree} space (at least "
                         f"{(degree + 1) ** 2} needed)")
    space = build_space(Partition(cells), degree, bool(truncated))
    if space.dim != ncoef:
        raise ValueError("coefficient count does not match the space dimension")
    return SplineFunction(space, coefs)
