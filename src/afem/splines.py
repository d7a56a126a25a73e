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
active cell is expressed in the cell's own-level local tensor basis
through a windowed two-scale (knot insertion) relation, so derivatives
of any order are plain polynomial derivatives with no numerical
differentiation anywhere.  A cell's extraction is built from its
parent's, so each dyadic ancestor is processed once per space.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .mesh import INSIDE, Cell, Partition
from .quadrature import gauss_cell

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


def bspline_ders(knots: np.ndarray, degree: int, span: int, x: float,
                 n_ders: int) -> np.ndarray:
    """Nonzero B-splines and derivatives at ``x`` on a knot span.

    ``span`` is a knot index with ``knots[span] <= x <= knots[span+1]``;
    the returned array ``d`` has shape ``(n_ders+1, degree+1)`` with
    ``d[k, j]`` the k-th derivative of function ``span - degree + j``.
    Values are those of the span's polynomial piece, i.e. one-sided at
    span endpoints.  Orders beyond the degree are zero.
    """
    p = degree
    nd = min(n_ders, p)
    ndu = np.empty((p + 1, p + 1))
    ndu[0, 0] = 1.0
    left = np.empty(p + 1)
    right = np.empty(p + 1)
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

    ders = np.zeros((n_ders + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.empty((2, p + 1))
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
        ders[k, :] *= fac
        fac *= p - k
    return ders


def span_class(level: int, span: int, degree: int) -> tuple[int, int]:
    """Distance of a span to the left and right boundary, capped at the degree.

    Spans of one class carry the same window functions in reference
    coordinates, at every level.
    """
    m = 1 << level
    return min(span, degree), min(m - 1 - span, degree)


@lru_cache(maxsize=REFERENCE_TABLE_CACHE_SIZE)
def _reference_table(degree: int, a: int, b: int,
                     xi_bytes: bytes) -> np.ndarray:
    """Window-function ders ``(MAX_DERIVATIVE_ORDER+1, r+1, n)`` of span
    class ``(a, b)`` at the reference points packed in ``xi_bytes``.

    ``bspline_ders`` runs once per distinct coordinate; the gathered
    table is copied to C order, so every product built from it takes
    the same BLAS path whatever the points.
    """
    # the class's 2r+2 local knots, span [0, 1] in reference units
    t = np.clip(np.arange(2 * degree + 2, dtype=float) - degree, -a, b + 1)
    xi, inv = np.unique(np.frombuffer(xi_bytes), return_inverse=True)
    ders = np.stack([bspline_ders(t, degree, degree, float(x),
                                  MAX_DERIVATIVE_ORDER) for x in xi], axis=2)
    tab = np.ascontiguousarray(ders[:, :, inv])
    tab.flags.writeable = False
    return tab


def _insertion_matrix(knots: np.ndarray, degree: int,
                      x: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-knot-insertion coefficient map (old -> new)."""
    p = degree
    n = len(knots) - p - 1
    k = int(np.searchsorted(knots, x, side="right")) - 1
    A = np.zeros((n + 1, n))
    for i in range(n + 1):
        if i <= k - p:
            A[i, i] = 1.0
        elif i <= k:
            alpha = (x - knots[i]) / (knots[i + p] - knots[i])
            A[i, i] = alpha
            A[i, i - 1] = 1.0 - alpha
        else:
            A[i, i - 1] = 1.0
    return A, np.insert(knots, k + 1, x)


@lru_cache(maxsize=None)
def two_scale_matrix(level: int, degree: int) -> np.ndarray:
    """Coefficient map from level ``level`` to ``level + 1``.

    Column ``i`` holds the fine-level coefficients of the coarse
    function ``i``, obtained by inserting the midpoint knots.
    """
    t = np.asarray(knot_vector(level, degree))
    m = 1 << level
    new = (2 * np.arange(m) + 1) / (2 * m)
    P = np.eye(num_functions(level, degree))
    for x in new:
        A, t = _insertion_matrix(t, degree, x)
        P = A @ P
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
        self.active: tuple[FnIndex, ...] = tuple(self._select_active())
        self.position: dict[FnIndex, int] = {
            fn: k for k, fn in enumerate(self.active)}
        self._by_level: dict[int, dict[tuple[int, int], int]] = {}
        for k, (lev, ix, iy) in enumerate(self.active):
            self._by_level.setdefault(lev, {})[(ix, iy)] = k
        # extraction of the active cells (with its positions as an index
        # array), and of every dyadic cell built
        self._extraction: dict[Cell, tuple[tuple[int, ...], np.ndarray]] = {}
        self._index: dict[Cell, np.ndarray] = {}
        self._carries: dict[Cell, tuple[tuple[int, ...], np.ndarray]] = {}
        self._tables: dict[tuple[int, int, bytes], np.ndarray] = {}

    # -- selection ------------------------------------------------------

    def _select_active(self) -> list[FnIndex]:
        p = self.partition
        r = self.degree
        active: list[FnIndex] = []
        cells_by_level: dict[int, list[Cell]] = {}
        for c in p.cells:
            cells_by_level.setdefault(c.level, []).append(c)

        for lev in sorted(cells_by_level):
            m = 1 << lev
            n = m + r
            # classification of the level's window cells, keyed on (i, j)
            state: dict[tuple[int, int], str] = {}
            candidates: set[tuple[int, int]] = set()
            for c in cells_by_level[lev]:
                for ix in range(c.i, min(c.i + r, n - 1) + 1):
                    for iy in range(c.j, min(c.j + r, n - 1) + 1):
                        candidates.add((ix, iy))
            for ix, iy in sorted(candidates):
                ok = True
                for sx in range(max(0, ix - r), min(m - 1, ix) + 1):
                    for sy in range(max(0, iy - r), min(m - 1, iy) + 1):
                        st = state.get((sx, sy))
                        if st is None:
                            st = state[sx, sy] = p.classify(Cell(lev, sx, sy))
                        if st == INSIDE:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    active.append((lev, ix, iy))
        active.sort()
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
        got = self._extraction.get(cell)
        if got is None:
            if cell not in self.partition:
                raise ValueError(f"{cell} is not an active cell")
            got = self._extraction[cell] = self._extract(cell)
            self._index[cell] = np.array(got[0], dtype=np.intp)
        return got

    def _extract(self, cell: Cell) -> tuple[tuple[int, ...], np.ndarray]:
        """Extraction of any dyadic cell, built from its parent's.

        The rows are the active functions of the cell's level and of
        coarser levels whose window meets the cell, in the cell-level
        local basis; a child takes its parent's rows through the
        two-scale block and appends its own level's functions (after
        truncating the carried rows against them).  Memoised per cell, so
        every dyadic ancestor is processed once per space.
        """
        got = self._carries.get(cell)
        if got is not None:
            return got
        r = self.degree
        w = r + 1
        if cell.level:
            prev = cell.parent()
            rows, carry = self._extract(prev)
            if rows:
                P = two_scale_matrix(cell.level - 1, r)
                Px = P[cell.i:cell.i + w, prev.i:prev.i + w]
                Py = P[cell.j:cell.j + w, prev.j:prev.j + w]
                # np.kron(Px, Py): one rounded product per entry, C order
                K = (Px[:, None, :, None] * Py[None, :, None, :]).reshape(
                    w * w, w * w)
                carry = carry @ K.T
        else:
            rows, carry = (), np.zeros((0, w * w))
        level_map = self._by_level.get(cell.level, {})
        here = [(pos, a * w + b) for a in range(w) for b in range(w)
                if (pos := level_map.get((cell.i + a, cell.j + b))) is not None]
        if here:
            cols = [lc for _, lc in here]
            if self.truncated and rows:
                carry[:, cols] = 0.0
            unit = np.zeros((len(here), w * w))
            unit[np.arange(len(here)), cols] = 1.0
            carry = np.vstack([carry, unit]) if rows else unit
            rows += tuple(pos for pos, _ in here)
        carry.flags.writeable = False
        self._carries[cell] = rows, carry
        return rows, carry

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

    def local_tables(self, cell: Cell, xs: np.ndarray, ys: np.ndarray,
                     orders: Sequence[tuple[int, int]],
                     ) -> dict[tuple[int, int], np.ndarray]:
        """Window-basis derivative tables on a cell at the paired points
        ``(xs[k], ys[k])``; each table is C-ordered with shape
        ``((r+1)**2, len(xs))``: the outer product of one memoised row
        per axis, one rounded product per entry.
        """
        w = self.degree + 1
        Dx = self._univariate(cell.level, cell.i, np.asarray(xs, float),
                              MAX_DERIVATIVE_ORDER)
        Dy = self._univariate(cell.level, cell.j, np.asarray(ys, float),
                              MAX_DERIVATIVE_ORDER)
        # X[a] is Dx[a][:, None, :] and Y[b] is Dy[b][None, :, :]
        X, Y = Dx[:, :, None, :], Dy[:, None, :, :]
        shape = (w * w, Dx.shape[2])
        return {(a, b): (X[a] * Y[b]).reshape(shape) for a, b in orders}

    def basis_on_cell(self, cell: Cell, xs: np.ndarray, ys: np.ndarray,
                      orders: Sequence[tuple[int, int]],
                      ) -> tuple[tuple[int, ...], dict[tuple[int, int], np.ndarray]]:
        """Active-function derivative tables on a cell at paired points.

        Returns the global positions and, per derivative order, an array
        of shape ``(len(positions), n_points)``.  Orders above the degree
        in either direction are exact zeros (one shared read-only array),
        neither tabulated nor multiplied.
        """
        pos, C = self.cell_extraction(cell)
        live = [o for o in orders if max(o) <= self.degree]
        local = self.local_tables(cell, xs, ys, live) if live else {}
        if len(live) < len(orders):
            zero = np.zeros((len(pos), len(xs)))
            zero.flags.writeable = False
        return pos, {o: C @ local[o] if o in local else zero for o in orders}


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
        """Several derivative orders at once; one basis-table pass."""
        _, tabs = self.space.basis_on_cell(cell, xs, ys, orders)
        c = self.coefficients[self.space._index[cell]]
        return {o: c @ T for o, T in tabs.items()}

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


def evaluate(fn: SplineFunction, x: float, y: float,
             alpha: tuple[int, int] = (0, 0),
             cell: Cell | None = None) -> float:
    """Functional form of :meth:`SplineFunction.eval`."""
    return fn.eval(x, y, alpha[0], alpha[1], cell)


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
        vals = np.asarray(f(self.points[:, 0], self.points[:, 1]), dtype=float)
        return float(self.weights @ vals)


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
        p = space.partition
        duals: list[DualFunctional] = []
        for lam_pos, fn in enumerate(space.active):
            box = space.support_box(fn)
            cells = p.cells_in_box(*box)
            neighbors: list[int] = []
            seen = set()
            per_cell = []
            for c in cells:
                rule = gauss_cell(c, n)
                pos, tabs = space.basis_on_cell(
                    c, rule.points[:, 0], rule.points[:, 1], [(0, 0)])
                per_cell.append((rule, pos, tabs[(0, 0)]))
                for q in pos:
                    if q not in seen:
                        seen.add(q)
                        neighbors.append(q)
            neighbors.sort()
            where = {q: k for k, q in enumerate(neighbors)}
            M = np.zeros((len(neighbors), len(neighbors)))
            for rule, pos, V in per_cell:
                block = (V * rule.weights) @ V.T
                idx = [where[q] for q in pos]
                M[np.ix_(idx, idx)] += block
            rhs = np.zeros(len(neighbors))
            rhs[where[lam_pos]] = 1.0
            a, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            pts_all = []
            wts_all = []
            for rule, pos, V in per_cell:
                coef = a[[where[q] for q in pos]]
                pts_all.append(rule.points)
                wts_all.append((coef @ V) * rule.weights)
            duals.append(DualFunctional(np.vstack(pts_all),
                                        np.concatenate(wts_all)))
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
    part = fn.space.partition

    def g(xs, ys):
        xs = np.atleast_1d(np.asarray(xs, float))
        ys = np.atleast_1d(np.asarray(ys, float))
        out = np.empty_like(xs)
        for k in range(len(xs)):
            out[k] = fn.eval(xs[k], ys[k],
                             cell=part.find_cell(xs[k], ys[k]))
        return out

    return g


# ---------------------------------------------------------------------------
# nested-space transfer
# ---------------------------------------------------------------------------

def coarse_to_fine(fn: SplineFunction, fine: HierarchicalSpace) -> SplineFunction:
    """Represent a spline exactly in a space over a refined partition."""
    from .solver import SolveOptions, solve_spd

    coarse = fn.space
    if fine.degree != coarse.degree:
        raise ValueError("spaces have different degrees; not nested")
    owner = {c: coarse.partition.owner(c) for c in fine.partition}

    n = fine.degree + 3
    rhs = np.zeros(fine.dim)
    from scipy.sparse import coo_matrix

    rows, cols, vals = [], [], []
    for c in fine.partition:
        rule = gauss_cell(c, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, tabs = fine.basis_on_cell(c, xs, ys, [(0, 0)])
        V = tabs[(0, 0)]
        fvals = fn.eval_many(xs, ys, 0, 0, owner[c])
        rhs[list(pos)] += V @ (w * fvals)
        block = (V * w) @ V.T
        k = len(pos)
        rows.extend(np.repeat(pos, k))
        cols.extend(np.tile(pos, k))
        vals.extend(block.ravel())
    M = coo_matrix((vals, (rows, cols)), shape=(fine.dim, fine.dim)).tocsc()
    x = solve_spd(M, rhs, SolveOptions())
    return SplineFunction(fine, x)


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
    truncated = bool(expect("truncated"))
    ncells = expect("cells")
    cells = [Cell(token(int, "cell"), token(int, "cell"), token(int, "cell"))
             for _ in range(ncells)]
    ncoef = expect("coeffs")
    coefs = np.array([token(float, "coefficient") for _ in range(ncoef)])
    if next(it, None) is not None:
        raise ValueError("malformed solution file: data after the coefficients")
    space = build_space(Partition(cells), degree, truncated)
    if space.dim != ncoef:
        raise ValueError("coefficient count does not match the space dimension")
    return SplineFunction(space, coefs)
