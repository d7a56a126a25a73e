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
point, so tables are keyed on the exact bytes of ``xi``.  They, and the
scaled tables keyed on ``(degree, level, span, points)``, live in two
bounded process-wide caches shared by every cell, level and space, so a
cell that persists through refinement finds its tables.  Points are
always paired coordinates, as :func:`afem.quadrature.gauss_cell` lays
them out.

Evaluation is stacked: requests (a cell and its points) are grouped by
extraction size, and each group takes one ``np.matmul`` per order.  That
runs the same BLAS call per item as a one-cell product, so results do
not depend on the grouping; widening an operand would change rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import lcm
from typing import Callable, Sequence

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

# entries of each process-wide table cache (reference and scaled); one
# entry is one table of at most a few KB.  The sin2 r=2 runs to 20k dofs
# use 3,402 (conforming) and 3,518 (Nitsche) scaled tables and 128
# reference tables, so neither run fills a table twice
TABLE_CACHE_SIZE = 4096


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


@lru_cache(maxsize=TABLE_CACHE_SIZE)
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
def _two_scale_kron(degree: int, x: tuple, y: tuple) -> np.ndarray:
    """Read-only ``np.kron`` of the blocks ``_two_scale_block(degree, *x)``
    and ``(degree, *y)`` (span class and parity per axis), one rounded
    product per entry, C order."""
    Px, Py = (_two_scale_block(degree, *c) for c in (x, y))
    w = degree + 1
    K = (Px[:, None, :, None] * Py[None, :, None, :]).reshape(w * w, w * w)
    K.flags.writeable = False
    return K


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _scaled_table(degree: int, level: int, span: int,
                  xs_bytes: bytes) -> np.ndarray:
    """Read-only window-function ders ``(MAX_DERIVATIVE_ORDER+1, r+1, n)``
    on a span at the points packed in ``xs_bytes``, scaled by ``m**k``."""
    m = 1 << level
    xi = np.frombuffer(xs_bytes) * m - span  # exact: see the module doc
    tab = _reference_table(degree, *span_class(level, span, degree),
                           xi.tobytes()) * (float(m) ** np.arange(
                               MAX_DERIVATIVE_ORDER + 1))[:, None, None]
    tab.flags.writeable = False
    return tab


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
    extraction operators per dyadic cell, transparent to callers, safe
    for read-only sharing, and freed with the space.
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
        # functions, the position of the first, and the key offsets of a
        # window's (a, b) in local order
        self._levels: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}
        # level, ix and iy of the active functions, in position order
        self._fns = self._select_active()
        # the extraction of every active cell: the matrix, and the
        # positions of its rows as an index array; built on first use
        self._extractions: dict[Cell, tuple[np.ndarray, np.ndarray]] | \
            None = None

    # -- selection ------------------------------------------------------

    def _select_active(self) -> np.ndarray:
        """The classical selection, level by level on the partition's
        arrays: a function of level ``l`` is a candidate when an active
        cell of level ``l`` lies in its support, and active when no cell
        of its support lies strictly inside a coarser active cell.
        Returns the level, ``ix`` and ``iy`` of each active function as
        the rows of a ``(3, dim)`` array, level by level and in key
        order within a level."""
        p, r = self.partition, self.degree
        w = np.arange(r + 1)
        chunks = [np.zeros((3, 0), dtype=np.int64)]
        count = 0
        for lev in np.unique(p._level).tolist():
            at = p._level == lev
            m, n, s = 1 << lev, (1 << lev) + r, p.max_level - lev
            keys = np.unique(((p._i[at, None] + w) * n)[:, :, None]
                             + (p._j[at, None] + w)[:, None, :])
            ix, iy = keys // n, keys % n
            # distinct support cells, clipped to the square, located once
            sx = np.clip(ix[:, None] - w, 0, m - 1)[:, :, None]
            sy = np.clip(iy[:, None] - w, 0, m - 1)[:, None, :]
            cells, inv = np.unique((sx * m + sy).ravel(), return_inverse=True)
            coarse = p._level[p._locate((cells // m) << s,
                                        (cells % m) << s)] < lev
            ok = ~coarse[inv].reshape(len(keys), -1).any(axis=1)
            if ok.any():
                self._levels[lev] = (keys[ok], count,
                                     (w[:, None] * n + w[None, :]).ravel())
                count += int(ok.sum())
            chunks.append(np.stack([np.full(len(keys), lev)[ok], ix[ok],
                                    iy[ok]]))
        return np.concatenate(chunks, axis=1)

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
        C, index = self._extraction_of([cell])[0]
        return tuple(index.tolist()), C

    def _extraction_of(self, cells) -> list[tuple[np.ndarray, np.ndarray]]:
        """The extractions ``(C, index)`` of active ``cells``, all built by
        :meth:`_build` on the first call; a cell that is not active
        raises."""
        if self._extractions is None:
            self._extractions = self._build()
        got = list(map(self._extractions.get, cells))
        if None in got:
            raise ValueError(f"{cells[got.index(None)]} is not an active cell")
        return got

    def _windows(self, level: int, i: np.ndarray, j: np.ndarray):
        """Positions ``(C, (r+1)**2)`` of the functions of ``level`` on the
        windows of the cells ``(level, i, j)``, in local order, and where
        they are active: one ``searchsorted`` of the windows' keys in the
        level's sorted keys."""
        ww = (self.degree + 1) ** 2
        got = self._levels.get(level)
        if got is None:
            return (np.zeros((len(i), ww), dtype=np.intp),
                    np.zeros((len(i), ww), dtype=bool))
        keys, first, offsets = got
        want = (i * ((1 << level) + self.degree) + j)[:, None] + offsets
        at = np.searchsorted(keys, want)
        return first + at, keys.take(at, mode="clip") == want

    def _build(self) -> dict[Cell, tuple[np.ndarray, np.ndarray]]:
        """The extraction of every active cell, built level by level from
        the partition's coarsest level through the cells' dyadic
        ancestors.

        A cell's rows are the active functions of its level and of
        coarser levels whose window meets it, in the cell-level local
        basis, with the positions of the rows as an index array.  A child
        takes its parent's rows through the two-scale blocks of its span
        classes and appends its own level's functions as unit rows, after
        truncating the carried rows against them.  The cells of a level
        with equally many carried rows are built together: one batched
        product of the stacked carries and blocks, per item the BLAS call
        of the one-cell product, written into one preallocated array whose
        items end in as many unit rows as the most any of them has.
        """
        p, r = self.partition, self.degree
        ww = (r + 1) ** 2
        out: dict[Cell, tuple[np.ndarray, np.ndarray]] = {}
        first = 0  # each level's active cells are a block of p.cells
        start = int(p._level[0])
        for level in range(start, p.max_level + 1):
            m = 1 << level
            deeper = p._level >= level
            shift = p._level[deeper] - level
            keys = np.unique((p._i[deeper] >> shift) * m
                             + (p._j[deeper] >> shift))
            i, j = np.divmod(keys, m)
            here, hit = self._windows(level, i, j)
            if level > start:
                parents = [built[k] for k in np.searchsorted(
                    parent_keys, (i >> 1) * (m >> 1) + (j >> 1)).tolist()]
                blocks = self._two_scale_blocks(level - 1, i, j)
            else:
                parents = [(None, _NO_POSITIONS)] * len(keys)
            own = hit.sum(axis=1)
            # the columns of each cell's own functions first, in order
            cols = np.argsort(~hit, axis=1, kind="stable")
            groups: dict[int, list[int]] = {}
            for q, c in enumerate(parents):
                groups.setdefault(len(c[1]), []).append(q)
            built = [None] * len(keys)
            for k, items in groups.items():
                B, h = len(items), int(own[items].max())
                C = np.empty((B, k + h, ww))
                if k:
                    np.matmul(_stack([parents[q][0] for q in items]),
                              blocks[items].transpose(0, 2, 1), out=C[:, :k])
                    if self.truncated:
                        C[:, :k][np.broadcast_to(hit[items][:, None, :],
                                                 (B, k, ww))] = 0.0
                C[:, k:] = _unit_rows(ww)[cols[items, :h]]
                index = np.concatenate([
                    np.array([parents[q][1] for q in items]).reshape(B, k),
                    np.take_along_axis(here[items], cols[items, :h], axis=1)],
                    axis=1)
                C.flags.writeable = index.flags.writeable = False
                for q, C_q, index_q, n_q in zip(items, C, index,
                                                (k + own[items]).tolist()):
                    built[q] = C_q[:n_q], index_q[:n_q]
            stop = first + int(np.count_nonzero(p._level == level))
            at = np.searchsorted(keys, p._i[first:stop] * m + p._j[first:stop])
            out.update(zip(p.cells[first:stop],
                           [built[k] for k in at.tolist()]))
            first, parent_keys = stop, keys
        return out

    def _two_scale_blocks(self, level: int, i: np.ndarray,
                          j: np.ndarray) -> np.ndarray:
        """The read-only :func:`_two_scale_kron` of each child ``(level + 1,
        i, j)`` of a cell of ``level``, ``(C, (r+1)**2, (r+1)**2)``, looked
        up once per distinct span classes and parities."""
        r, m = self.degree, 1 << level
        per_axis = [np.stack([np.minimum(k >> 1, r),
                              np.minimum(m - 1 - (k >> 1), r), k & 1])
                    for k in (i, j)]
        code = np.ravel_multi_index(np.concatenate(per_axis),
                                    (r + 1, r + 1, 2) * 2)
        _, first, inv = np.unique(code, return_index=True, return_inverse=True)
        x, y = (a[:, first].T.tolist() for a in per_axis)
        return np.array([_two_scale_kron(r, tuple(a), tuple(b))
                         for a, b in zip(x, y)])[inv.ravel()]

    # -- basis tables ------------------------------------------------------

    def _univariate(self, level: int, span: int, xs: np.ndarray,
                    max_order: int) -> np.ndarray:
        """Read-only ``(max_order+1, r+1, len(xs))`` :func:`_scaled_table`."""
        return _scaled_table(self.degree, level, span, np.asarray(
            xs, float).tobytes())[:max_order + 1]

    def _tables(self, levels: np.ndarray, spans: np.ndarray, X: np.ndarray,
                max_order: int) -> tuple[np.ndarray, np.ndarray]:
        """The :meth:`_univariate` tables of request rows ``X[q]`` on span
        ``spans[q]`` of level ``levels[q]``, fetched once per distinct
        ``(level, span, row bytes)``: the distinct tables stacked, and
        each request's index into them."""
        R, N = X.shape
        keys = np.empty((R, N + 2), dtype=np.int64)
        keys[:, 0], keys[:, 1] = levels, spans
        keys[:, 2:] = X.view(np.int64)
        first, inv = _distinct_rows(keys)
        return np.array([self._univariate(lev, span, X[q], max_order)
                         for lev, span, q in zip(levels[first].tolist(),
                                                 spans[first].tolist(),
                                                 first)]), inv

    def basis_stacks(self, cells: Sequence[Cell], X, Y,
                     orders: Sequence[tuple[int, int]]):
        """Active-function derivative tables of many cells, stacked.

        Request ``q`` is ``cells[q]`` at the paired points ``(X[q],
        Y[q])``, ``n`` points each; callers pass one run of ``_requests``,
        which bounds the stacks.  Requests are grouped by extraction row
        count ``k`` (groups in order of first appearance, requests in
        order).  Per group this yields the request numbers, their global
        positions ``(B, k)`` and per order one stack of tables ``(B, k,
        n)``, each item equal to the one-cell product bit for bit.  Orders
        above the degree are exact zeros (one read-only array per group).
        The univariate tables are fetched once per distinct row of the
        run, and gathered per group.
        """
        got = self._extraction_of(cells)
        groups: dict[int, list[int]] = {}
        for q, (_, index) in enumerate(got):
            groups.setdefault(len(index), []).append(q)
        r = self.degree
        live = [o for o in orders if o[0] <= r and o[1] <= r]
        if live:
            X = np.ascontiguousarray(X, dtype=float)
            Y = np.ascontiguousarray(Y, dtype=float)
            level, i, j = np.fromiter(
                chain.from_iterable(cells), dtype=np.int64,
                count=3 * len(cells)).reshape(-1, 3).T
            Tx, at_x = self._tables(level, i, X,
                                    max(a for a, _ in live))
            Ty, at_y = self._tables(level, j, Y,
                                    max(b for _, b in live))
        for k, items in groups.items():
            tabs = {}
            if live:
                C = _stack([got[q][0] for q in items])
                Dx, Dy = Tx[at_x[items]], Ty[at_y[items]]
                # one window table alive at a time
                for o in live:
                    tabs[o] = C @ _window_table(Dx, Dy, *o)
            if len(live) < len(orders):
                zero = np.zeros((len(items), k, len(X[items[0]])))
                zero.flags.writeable = False
                for o in orders:
                    tabs.setdefault(o, zero)
            yield items, _stack([got[q][1] for q in items]), tabs

    def basis_on_cell(self, cell: Cell, xs: np.ndarray, ys: np.ndarray,
                      orders: Sequence[tuple[int, int]],
                      ) -> tuple[tuple[int, ...], dict[tuple[int, int], np.ndarray]]:
        """Active-function derivative tables on a cell at paired points.

        Returns the global positions and, per derivative order, an array
        of shape ``(len(positions), n_points)``: the one-cell case of
        :meth:`basis_stacks`, with its exact zeros above the degree.
        """
        (_, index, tabs), = self.basis_stacks([cell], [xs], [ys], orders)
        return tuple(index[0].tolist()), {o: T[0] for o, T in tabs.items()}


# an empty index array: no rows
_NO_POSITIONS = np.zeros(0, dtype=np.intp)
_NO_POSITIONS.flags.writeable = False


@lru_cache(maxsize=None)
def _unit_rows(size: int) -> np.ndarray:
    """Read-only identity of ``size``: row ``c`` is the unit row of
    local column ``c``."""
    eye = np.eye(size)
    eye.flags.writeable = False
    return eye


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
    new = np.concatenate([[True], h[1:] != h[:-1]])
    first = order[new]
    inv = np.empty(len(h), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    if not np.array_equal(keys[first][inv], keys):
        _, first, inv = np.unique(
            keys.view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0],
            return_index=True, return_inverse=True)
    return first, inv.ravel()


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
        for items, index, tabs in self.space.basis_stacks(cells, X, Y, orders):
            cs = self.coefficients[index][:, None, :]
            for o, T in tabs.items():
                if max(o) <= r:
                    out[o][items] = (cs @ T)[:, 0]
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
            for items, index, tabs in space.basis_stacks(run, X, Y, [(0, 0)]):
                for q, pos, V in zip(items, index, tabs[(0, 0)]):
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
    rows, cols, vals = [], [], []
    for lo, run, X, Y, W, _ in _requests(cells, fine.degree + 3):
        f = fn.eval_stacked(owners[lo:lo + len(run)], X, Y, [(0, 0)])[(0, 0)]
        got = [None] * len(run)
        for items, index, tabs in fine.basis_stacks(run, X, Y, [(0, 0)]):
            for q, pos, V in zip(items, index, tabs[(0, 0)]):
                got[q] = pos, V
        for (pos, V), w, fq in zip(got, W, f):
            rhs[pos] += V @ (w * fq)
            rows.append(np.repeat(pos, len(pos)))
            cols.append(np.tile(pos, len(pos)))
            vals.append(((V * w) @ V.T).ravel())
    M = coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                           np.concatenate(cols))),
                   shape=(fine.dim, fine.dim)).tocsc()
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
