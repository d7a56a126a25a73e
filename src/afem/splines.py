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
ancestor is processed once per space, and each level takes one batched
product per carried row count.  The extractions are stored as three
read-only arrays in partition order: row counts, matrices padded with
zero rows to the most rows of any cell, and the rows' positions.  The
padding is storage only: every product takes a cell's rows exactly,
since padding either operand of a BLAS product can change the rounding
of the entries it keeps.

The local basis comes from tables of the window functions.  On span
``i`` of a level with ``m = 2**l`` spans, the ``r+1`` window functions
depend only on the span class ``(min(i, r), min(m-1-i, r))``, its
distance to either boundary, once expressed in the reference coordinate
``xi = x*m - i``; the k-th derivative then scales by ``m**k``.  Both the
scaling by ``m`` and the subtraction of ``i`` are exact in floating
point.  The scaled tables, keyed on ``(degree, level, span, row
bytes)``, live in one bounded process-wide cache shared by every space,
so a cell that persists through refinement finds its tables; the misses
of a call are filled in one array pass, each row on its span class's
knots.  Points are always paired coordinates, as
:func:`afem.quadrature.gauss_cell` lays them out.

Evaluation is stacked: requests (a cell and its points) are grouped by
extraction size, each group gathers its extractions from the arrays by
position, and takes one ``np.matmul`` per order.  That runs the same
BLAS call per item as a one-cell product, so results do not depend on
the grouping; widening the reduced dimension would change rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import coo_matrix

from .mesh import Cell, Partition
from .quadrature import _on_points, _requests
from .solver import SolveOptions, _check_number, solve_spd

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

# entries of the process-wide table cache; one entry is one table of at
# most a few KB.  The sin2 r=2 runs to 20k dofs use 3,402 (conforming) and
# 3,518 (Nitsche) tables, so neither run fills a table twice
TABLE_CACHE_SIZE = 4096
# the scaled window-function tables of every space, keyed (degree, level,
# span, row bytes), oldest first: HierarchicalSpace._tables fills them
_TABLES: dict[tuple, np.ndarray] = {}


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


class _Extractions(NamedTuple):
    """The extractions of a space's active cells, in ``p.cells`` order:
    the row counts ``(cells,)``, the matrices ``(cells, kmax, (r+1)**2)``
    and the positions of their rows ``(cells, kmax)``, each cell's rows
    first and zero rows after them; read-only."""

    rows: np.ndarray
    matrices: np.ndarray
    positions: np.ndarray


class HierarchicalSpace:
    """Hierarchical (truncated) B-spline space over a quadtree partition.

    Immutable after construction; the extractions of its active cells
    are built on first use into read-only arrays, transparent to
    callers, safe for read-only sharing, and freed with the space.
    """

    def __init__(self, partition: Partition, degree: int,
                 truncated: bool = True):
        _check_number("degree", degree, integer=True)
        if degree < 2:
            raise ValueError("degree must be at least 2 for a C1 space")
        if not isinstance(truncated, bool):
            raise ValueError(f"truncated must be a bool, got {truncated!r}")
        self.partition = partition
        self.degree = degree
        self.truncated = truncated
        # per level: the sorted keys ix * (2**level + r) + iy of its active
        # functions, and the position of the first
        self._levels: dict[int, tuple[np.ndarray, int]] = {}
        # level, ix and iy of the active functions, in position order
        self._fns = self._select_active()

    # -- selection ------------------------------------------------------

    def _select_active(self) -> np.ndarray:
        """The classical selection, in one pass over all levels on the
        partition's arrays: a function of level ``l`` is a candidate when
        an active cell of level ``l`` lies in its support, and active when
        no cell of its support lies strictly inside a coarser active cell.
        Functions are keyed ``(level, ix, iy)`` in one int64, and their
        distinct support cells, clipped to the square, are located at
        once.  Returns the level, ``ix`` and ``iy`` of each active function
        as the rows of a ``(3, dim)`` array, level by level and in key
        order within a level."""
        p, r = self.partition, self.degree
        w = np.arange(r + 1)
        side = 1 << np.arange(p.max_level + 1)
        # the first key of each level: functions, and cells, of lower
        # levels come first (below 2**63 up to MAX_LEVEL)
        fn_base = np.concatenate([[0], np.cumsum((side + r) ** 2)])
        cell_base = np.concatenate([[0], np.cumsum(side ** 2)])
        n = side[p._level] + r
        keys = np.unique(
            fn_base[p._level][:, None, None]
            + ((p._i[:, None] + w) * n[:, None])[:, :, None]
            + (p._j[:, None] + w)[:, None, :])
        level = np.searchsorted(fn_base, keys, side="right") - 1
        ix, iy = np.divmod(keys - fn_base[level], side[level] + r)
        m = side[level][:, None, None]
        sx = np.clip(ix[:, None] - w, 0, m[:, 0] - 1)[:, :, None]
        sy = np.clip(iy[:, None] - w, 0, m[:, 0] - 1)[:, None, :]
        cells, inv = np.unique(cell_base[level][:, None, None] + sx * m + sy,
                               return_inverse=True)
        at = np.searchsorted(cell_base, cells, side="right") - 1
        ci, cj = np.divmod(cells - cell_base[at], side[at])
        s = p.max_level - at
        coarse = p._level[p._locate(ci << s, cj << s)] < at
        ok = ~coarse[inv].reshape(len(keys), -1).any(axis=1)
        level, ix, iy = level[ok], ix[ok], iy[ok]
        present, first = np.unique(level, return_index=True)
        for lev, a, b in zip(present.tolist(), first.tolist(),
                             first[1:].tolist() + [len(level)]):
            self._levels[lev] = (ix[a:b] * ((1 << lev) + r) + iy[a:b], a)
        return np.stack([level, ix, iy])

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._fns.shape[1]

    @cached_property
    def active(self) -> tuple[FnIndex, ...]:
        """The active functions ``(level, ix, iy)`` in position order."""
        return tuple(zip(*self._fns.tolist()))

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
        (q,) = self._cells_at([cell]).tolist()
        e = self._extractions
        k = int(e.rows[q])
        return tuple(e.positions[q, :k].tolist()), e.matrices[q, :k]

    def _cells_at(self, cells) -> np.ndarray:
        """The positions in ``p.cells`` of active ``cells``; a cell that is
        not active raises."""
        at = list(map(self.partition._position.get, cells))
        if None in at:
            raise ValueError(f"{cells[at.index(None)]} is not an active cell")
        return np.array(at, dtype=np.intp)

    def _windows(self, level: int, i: np.ndarray, j: np.ndarray):
        """Positions ``(C, (r+1)**2)`` of the functions of ``level`` on the
        windows of the cells ``(level, i, j)``, in local order, and where
        they are active: one ``searchsorted`` of the windows' keys in the
        level's sorted keys."""
        w = np.arange(self.degree + 1)
        got = self._levels.get(level)
        if got is None:
            return (np.zeros((len(i), len(w) ** 2), dtype=np.intp),
                    np.zeros((len(i), len(w) ** 2), dtype=bool))
        keys, first = got
        n = (1 << level) + self.degree
        want = (i * n + j)[:, None] + (w[:, None] * n + w).ravel()
        at = np.searchsorted(keys, want)
        return first + at, keys.take(at, mode="clip") == want

    @cached_property
    def _extractions(self) -> _Extractions:
        """The extraction of every active cell, built level by level from
        the partition's coarsest level through the cells' dyadic
        ancestors.

        A cell's rows are the active functions of its level and of
        coarser levels whose window meets it, in the cell-level local
        basis, with the positions of the rows.  A child takes its parent's
        rows through the two-scale blocks of its span classes and appends
        its own level's functions as unit rows, after truncating the
        carried rows against them.  The cells of a level with equally
        many carried rows take one batched product of their carried rows
        and blocks, per item the BLAS call of the one-cell product; the
        truncation, the unit rows and the positions of the whole level are
        then written by index.
        """
        p, r = self.partition, self.degree
        ww = (r + 1) ** 2
        leaves = []
        first = 0  # each level's active cells are a block of p.cells
        start = int(p._level[0])
        for level in range(start, p.max_level + 1):
            m = 1 << level
            shift = p._level[first:] - level
            keys = np.unique((p._i[first:] >> shift) * m
                             + (p._j[first:] >> shift))
            i, j = np.divmod(keys, m)
            here, hit = self._windows(level, i, j)
            own = np.count_nonzero(hit, axis=1)
            if level > start:
                up = np.searchsorted(parent_keys, (i >> 1) * (m >> 1)
                                     + (j >> 1))
                carried = rows[up]
            else:
                carried = np.zeros(len(keys), dtype=np.intp)
            rows = carried + own
            K, total = int(carried.max()), int(rows.max())
            C = np.empty((len(keys), total, ww))
            index = np.empty((len(keys), total), dtype=np.intp)
            if K:
                # one product per carried row count k, with k rows exactly:
                # in a random trial, zero rows padded onto the left operand
                # changed how BLAS rounds the others at (r+1)**2 >= 36
                blocks = self._two_scale_blocks(level - 1, i, j)
                for k, items in _groups(carried):
                    C[items, :k] = C_up[up[items], :k] @ blocks[
                        items].transpose(0, 2, 1)
                if self.truncated:
                    C[:, :K][np.broadcast_to(hit[:, None, :],
                                             (len(keys), K, ww))] = 0.0
                index[:, :K] = index_up[up, :K]
            # the own functions, in column order, after the carried rows
            q, c = np.nonzero(hit)
            at = carried[q] + np.arange(len(q)) - np.repeat(
                np.cumsum(own) - own, own)
            C[q, at] = 0.0
            C[q, at, c] = 1.0
            index[q, at] = here[q, c]
            pad = np.arange(total) >= rows[:, None]
            C[pad] = 0.0
            index[pad] = 0
            stop = first + int(np.count_nonzero(p._level[first:] == level))
            leaf = np.searchsorted(keys, p._i[first:stop] * m
                                   + p._j[first:stop])
            leaves.append((rows[leaf], C[leaf], index[leaf]))
            first, parent_keys, C_up, index_up = stop, keys, C, index
        kmax = max(C.shape[1] for _, C, _ in leaves)
        out = _Extractions(np.concatenate([k for k, _, _ in leaves]),
                           np.zeros((len(p), kmax, ww)),
                           np.zeros((len(p), kmax), dtype=np.intp))
        first = 0
        for _, C, index in leaves:
            stop = first + len(C)
            out.matrices[first:stop, :C.shape[1]] = C
            out.positions[first:stop, :C.shape[1]] = index
            first = stop
        for a in out:
            a.flags.writeable = False
        return out

    def _two_scale_blocks(self, level: int, i: np.ndarray,
                          j: np.ndarray) -> np.ndarray:
        """The two-scale block ``np.kron(Px, Py)`` of each child ``(level +
        1, i, j)`` of a cell of ``level``, ``(C, (r+1)**2, (r+1)**2)``, one
        rounded product per entry of the axis blocks: the
        :func:`_two_scale_block` of each distinct span class and parity
        of both axes, gathered per child."""
        r, m, w = self.degree, 1 << level, self.degree + 1
        codes, back = np.unique(np.concatenate([
            (np.minimum(k >> 1, r) * w + np.minimum(m - 1 - (k >> 1), r)) * 2
            + (k & 1) for k in (i, j)]), return_inverse=True)
        table = np.array([_two_scale_block(r, code // (2 * w), code // 2 % w,
                                           code % 2)
                          for code in codes.tolist()])
        Px, Py = table[back[:len(i)]], table[back[len(i):]]
        return (Px[:, :, None, :, None]
                * Py[:, None, :, None, :]).reshape(len(i), w * w, w * w)

    # -- basis tables ------------------------------------------------------

    def _tables(self, levels: np.ndarray, spans: np.ndarray, X: np.ndarray,
                max_order: int) -> tuple[np.ndarray, np.ndarray]:
        """Window-function ders ``(max_order+1, D, r+1, N)`` of the
        request rows ``X[q]`` on span ``spans[q]`` of level ``levels[q]``,
        one per distinct ``(level, span, row bytes)``, each order one
        block, and each request's index into them.  They come from the
        process-wide ``_TABLES``; all misses are filled in one array pass of :func:`bspline_ders`,
        each row on its span class's knots in the reference coordinate
        ``xi = x*m - span``, and scaled by ``m**k`` (exact: see the
        module doc)."""
        R, N = X.shape
        r = self.degree
        keys = np.empty((R, N + 2), dtype=np.int64)
        keys[:, 0], keys[:, 1] = levels, spans
        keys[:, 2:] = X.view(np.int64)
        first, inv = _distinct_rows(keys)
        names = [(r, lev, span, X[q].tobytes()) for lev, span, q in zip(
            levels[first].tolist(), spans[first].tolist(), first)]
        got = list(map(_TABLES.get, names))
        miss = [k for k, tab in enumerate(got) if tab is None]
        if miss:
            q = first[miss]
            level, span = levels[q][:, None], spans[q][:, None]
            t = np.clip(np.arange(2 * r + 2, dtype=float) - r,
                        -np.minimum(span, r),
                        np.minimum((1 << level) - 1 - span, r) + 1)
            ders = bspline_ders(t.T[:, :, None], r, r,
                                X[q] * np.ldexp(1.0, level) - span,
                                MAX_DERIVATIVE_ORDER)
            scale = np.ldexp(1.0, level * np.arange(MAX_DERIVATIVE_ORDER + 1))
            tabs = np.ascontiguousarray(
                (ders * scale.T[:, None, :, None]).transpose(2, 0, 1, 3))
            tabs.flags.writeable = False
            for k, tab in zip(miss, tabs):
                got[k] = _TABLES[names[k]] = tab
            while len(_TABLES) > TABLE_CACHE_SIZE:
                del _TABLES[next(iter(_TABLES))]
        return np.stack([tab[:max_order + 1] for tab in got], axis=1), inv

    def basis_stacks(self, cells: Sequence[Cell], X, Y,
                     orders: Sequence[tuple[int, int]]):
        """Active-function derivative tables of many cells, stacked.

        Request ``q`` is ``cells[q]`` at the paired points ``(X[q],
        Y[q])``, ``n`` points each; callers pass one run of ``_requests``,
        which bounds the stacks.  Requests are grouped by extraction row
        count ``k`` (groups in order of first appearance, requests in
        order).  Per group this yields the request numbers, their global
        positions ``(B, k)`` (read-only) and ``stack``: ``stack(o)`` forms
        the tables ``(B, k, n)`` of one order ``o`` of ``orders``, each
        item equal to the one-cell product bit for bit, from that order's
        univariate rows only.  A caller that drops each stack before it
        forms the next holds one at a time.  Orders above the degree are
        exact zeros (read-only).  Each group's extractions and positions
        are one gather from the space's arrays; the univariate tables of
        both axes are fetched once per distinct row of the run.
        """
        at = self._cells_at(cells)
        e = self._extractions
        r = self.degree
        live = [o for o in orders if o[0] <= r and o[1] <= r]
        if live and len(at):
            level, i, j = (a[at] for a in (self.partition._level,
                                           self.partition._i,
                                           self.partition._j))
            # both axes' rows in one fetch
            T, at_xy = self._tables(np.tile(level, 2), np.concatenate([i, j]),
                                    np.concatenate([X, Y], dtype=float),
                                    max(max(o) for o in live))
            at_x, at_y = at_xy[:len(at)], at_xy[len(at):]
        C = ix = iy = None
        for k, items in _groups(e.rows[at]):
            index = e.positions[at[items], :k]
            index.flags.writeable = False
            if live:
                C = e.matrices[at[items], :k]
                ix, iy = at_x[items], at_y[items]

            def stack(o, items=items, k=k, C=C, ix=ix, iy=iy):
                if max(o) > r:
                    zero = np.zeros((len(items), k, len(X[items[0]])))
                    zero.flags.writeable = False
                    return zero
                # the window table: per item the outer product of both
                # axes' rows, one rounded product per entry
                window = (T[o[0]].take(ix, axis=0)[:, :, None]
                          * T[o[1]].take(iy, axis=0)[:, None])
                return C @ window.reshape(len(items), -1, window.shape[-1])

            yield items, index, stack

    def basis_on_cell(self, cell: Cell, xs: np.ndarray, ys: np.ndarray,
                      orders: Sequence[tuple[int, int]],
                      ) -> tuple[tuple[int, ...], dict[tuple[int, int], np.ndarray]]:
        """Active-function derivative tables on a cell at paired points.

        Returns the global positions and, per derivative order, an array
        of shape ``(len(positions), n_points)``: the one-cell case of
        :meth:`basis_stacks`, with its exact zeros above the degree.
        """
        (_, index, stack), = self.basis_stacks([cell], [xs], [ys], orders)
        return tuple(index[0].tolist()), {o: stack(o)[0] for o in orders}


class _Entries:
    """The entries of one pass on the active positions of a space,
    preallocated: int32 rows (and columns), float64 values.  Request
    ``q``, the cell ``cells[q]`` of ``p.cells``, owns a slice of ``k``
    loads, or with ``pairs`` of ``k**2`` Gram entries, in request order:
    ``k`` of its rows are at positions that ``imap`` maps to ``>= 0``.
    A block goes into its slice in C order, as a per-request ``np.ix_``
    block gives it, so the entries are a per-request loop's, in its
    order; the left-out ones go to one spare slot after the last."""

    def __init__(self, s: HierarchicalSpace, imap: np.ndarray,
                 cells: np.ndarray, pairs: bool = True):
        e = s._extractions
        live = (imap[e.positions] >= 0) & (np.arange(e.positions.shape[1])
                                           < e.rows[:, None])
        rank = np.cumsum(live, axis=1)
        count = rank[cells, -1:]
        size = count ** (1 + pairs)
        ends = np.cumsum(size)
        n = int(ends[-1]) if len(ends) else 0
        # per request its rows' rank among its live rows, and the slot of
        # each row's first entry; a left-out row ranks past every slot,
        # so its entries go to the spare one
        rank = np.where(live, rank - 1, n + 1)[cells]
        self.start = ends[:, None] - size + rank * (count if pairs else 1)
        self.rank = rank if pairs else None
        self.imap = imap.astype(np.int32)
        self.rows = np.empty(n + 1, dtype=np.int32)
        self.cols = np.empty(n + 1, dtype=np.int32) if pairs else None
        self.vals = np.empty(n + 1)

    def put(self, q: np.ndarray, index: np.ndarray, values: np.ndarray):
        """Loads ``(B, k)`` or blocks ``(B, k, k)`` of requests ``q`` at
        the positions ``(B, k)``."""
        at = self.imap[index]
        B, k = at.shape
        dest = self.start[q, :k]
        if values.ndim == 3:  # the pair (i, j) at row i's slot plus j's rank
            dest = dest[:, :, None] + self.rank[q, None, :k]
        np.minimum(dest, len(self.vals) - 1, out=dest)
        if values.ndim == 3:
            self.cols[dest] = at[:, None, :].repeat(k, axis=1)
            at = at.repeat(k, axis=1).reshape(B, k, k)
        self.rows[dest] = at
        self.vals[dest] = values

    def entries(self) -> list[np.ndarray]:
        """Rows, columns (with ``pairs``) and values, without the spare
        slot.  This ends the writing and drops the per-request tables,
        so that a conversion finds only the entries alive."""
        del self.rank, self.start
        return [a[:-1] for a in (self.rows, self.cols, self.vals)
                if a is not None]


def _gram(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Weighted Gram blocks ``(B, k, k)`` of stacked tables ``(B, k, N)``
    on the weights ``(B, N)``: one batched product, per item the BLAS
    call of the one-cell product ``(V * w) @ V.T``."""
    return (V * W[:, None, :]) @ V.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def _fingerprint(width: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers of the row fingerprints of
    :func:`_distinct_rows` for rows of ``width`` entries."""
    rng = np.random.default_rng(width)
    return rng.integers(0, 1 << 63, size=width, dtype=np.uint64) * 2 + 1


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first of each distinct row of the int64 array ``keys`` and the
    number of each row's distinct row: rows are grouped on a 64-bit
    fingerprint (a product that wraps around), and the rows themselves
    are compared to their group's first; a fingerprint that two unequal
    rows share falls back to one ``np.unique`` over the rows' bytes."""
    h = keys.view(np.uint64) @ _fingerprint(keys.shape[1])
    order = np.argsort(h, kind="stable")
    h = h[order]
    new = np.ones(len(h), dtype=bool)
    new[1:] = h[1:] != h[:-1]
    first = order[new]
    inv = np.empty(len(h), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    if not np.array_equal(keys[first][inv], keys):
        _, first, inv = np.unique(
            keys.view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0],
            return_index=True, return_inverse=True)
    return first, inv.ravel()


def _groups(keys: np.ndarray):
    """``(key, items)`` per distinct value of ``keys``, in order of first
    appearance, with ``items`` the ascending positions holding it."""
    values, first = np.unique(keys, return_index=True)
    for value in values[np.argsort(first)].tolist():
        yield value, np.flatnonzero(keys == value)


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

    def eval_stacked(self, cells: Sequence[Cell], X, Y,
                     orders: Sequence[tuple[int, int]],
                     ) -> dict[tuple[int, int], np.ndarray]:
        """Derivative values ``{order: (R, n)}`` of ``R`` requests (cell
        ``cells[q]`` at the paired points ``(X[q], Y[q])``), in request
        order.  Per group of :meth:`HierarchicalSpace.basis_stacks` and
        order, one stacked product of the gathered coefficients ``(B, 1,
        k)`` with the tables ``(B, k, n)``: the same BLAS call per item as
        the one-cell product ``c @ T``, so each row equals it bit for bit,
        whatever the stacking.  Orders above the degree are exact zeros.
        """
        n = len(X[0]) if len(cells) else 0
        out = {o: np.zeros((len(cells), n)) for o in orders}
        r = self.space.degree
        for items, index, stack in self.space.basis_stacks(cells, X, Y,
                                                           orders):
            cs = self.coefficients[index][:, None, :]
            for o in orders:
                if max(o) <= r:
                    out[o][items] = (cs @ stack(o))[:, 0]
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
    lev, ix, iy = s._fns
    top = (1 << lev) + s.degree - 3  # num_functions(lev, r) - 3
    return tuple(np.flatnonzero((2 <= ix) & (ix <= top) & (2 <= iy)
                                & (iy <= top)).tolist())


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
        # every cell of any support box, evaluated once through the stacks:
        # its rule, positions, basis values and Gram block
        per_cell = {}
        for _, run, X, Y, W, _ in _requests(sorted(set().union(*boxes)), n):
            P = np.stack([X, Y], axis=-1)
            for items, index, stack in space.basis_stacks(run, X, Y,
                                                          [(0, 0)]):
                for q, pos, V in zip(items, index, stack((0, 0))):
                    per_cell[run[q]] = P[q], W[q], pos, V, (V * W[q]) @ V.T
        duals: list[DualFunctional] = []
        for lam_pos, box in enumerate(boxes):
            per_box = [per_cell[c] for c in box]
            neighbors = sorted({q for _, _, pos, _, _ in per_box for q in pos})
            where = {q: k for k, q in enumerate(neighbors)}
            M = np.zeros((len(neighbors), len(neighbors)))
            for *_, pos, _, block in per_box:
                idx = [where[q] for q in pos]
                M[np.ix_(idx, idx)] += block
            rhs = np.zeros(len(neighbors))
            rhs[where[lam_pos]] = 1.0
            a, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            duals.append(DualFunctional(
                np.vstack([points for points, *_ in per_box]),
                np.concatenate([(a[[where[q] for q in pos]] @ V) * w
                                for _, w, pos, V, _ in per_box])))
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
    owners = coarse.partition.owners(cells)
    rhs = np.zeros(fine.dim)
    every = np.arange(fine.dim)
    requests = np.arange(len(cells))
    out = _Entries(fine, every, requests)
    loads = _Entries(fine, every, requests, pairs=False)
    for lo, run, X, Y, W, _ in _requests(cells, fine.degree + 3):
        F = fn.eval_stacked(owners[lo:lo + len(run)], X, Y, [(0, 0)])[(0, 0)]
        for items, index, stack in fine.basis_stacks(run, X, Y, [(0, 0)]):
            V = stack((0, 0))
            out.put(lo + items, index, _gram(V, W[items]))
            loads.put(lo + items, index,
                      (V @ (W[items] * F[items])[:, :, None])[:, :, 0])
    np.add.at(rhs, *loads.entries())
    rows, cols, vals = out.entries()
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

    A file that is truncated, has an unparsable, missing or non-finite
    field, or carries trailing data raises ``ValueError("malformed solution
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
    if not np.isfinite(coefs).all():
        raise ValueError(f"malformed solution file: coefficient "
                         f"{np.argmin(np.isfinite(coefs))} is not finite")
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
