"""Graded quadtree partitions of the unit square.

A partition is a set of dyadic square cells with pairwise disjoint
interiors whose closures cover [0,1]^2.  Cells are addressed by
``(level, i, j)`` with side length ``2**-level``; iteration order is the
lexicographic order of these keys, which keeps every downstream
computation reproducible.

Refinement replaces marked cells by their four children and then closes
the mesh so that edge-adjacent active cells differ by at most one level
(1-level grading).  Edges at a level interface are the finer side's
facets; a coarse neighbour's facet is represented by two half-edges so
jump integrals see a single polynomial trace per side.

``Cell`` is the public value type; the work on a partition (validation,
neighbours, edges, refinement, point location) runs on integer arrays
of its levels, indices and Z-order keys, built once per partition.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Cell",
    "Edge",
    "Partition",
    "ShapeReport",
    "uniform_partition",
    "refine",
    "edges",
    "edge_arrays",
    "EdgeArrays",
    "support_extension",
    "shape_report",
]

# Z-order keys of two interleaved level-31 indices fill 62 bits of int64
MAX_LEVEL = 31


class Cell(namedtuple("Cell", "level i j")):
    """Dyadic square cell ``[i, i+1] x [j, j+1]`` scaled by ``2**-level``.

    A cell is the tuple ``(level, i, j)``: it hashes, compares and sorts
    as that tuple, so it serves directly as a memo key.
    """

    __slots__ = ()

    def __new__(cls, level: int, i: int, j: int):
        c = tuple.__new__(cls, (level, i, j))
        if level < 0:
            raise ValueError(f"cell {c} has a negative level")
        n = 1 << level
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"cell index {c} outside the unit square")
        return c

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        s = self.side
        return (self.i * s, (self.i + 1) * s, self.j * s, (self.j + 1) * s)

    def children(self) -> tuple["Cell", "Cell", "Cell", "Cell"]:
        L, i, j = self.level + 1, 2 * self.i, 2 * self.j
        return (Cell(L, i, j), Cell(L, i + 1, j),
                Cell(L, i, j + 1), Cell(L, i + 1, j + 1))

    def parent(self) -> "Cell":
        if self.level == 0:
            raise ValueError("root cell has no parent")
        return Cell(self.level - 1, self.i >> 1, self.j >> 1)

    def ancestor(self, level: int) -> "Cell":
        """The containing dyadic cell at a coarser (or equal) level."""
        if level > self.level:
            raise ValueError("ancestor level must not exceed the cell level")
        shift = self.level - level
        return Cell(level, self.i >> shift, self.j >> shift)


class Edge(NamedTuple):
    """Axis-aligned facet segment of an active cell.

    ``axis`` is the direction of the normal (0: vertical edge, normal
    along x; 1: horizontal edge, normal along y).  ``level`` is the
    level of the finer owner, so the length is ``2**-level``.  Interior
    edges carry both owners with ``plus`` the owner of lower cell key;
    boundary edges carry the single owner in ``plus`` and an outward
    unit normal.
    """

    kind: str                  # "interior" | "boundary"
    axis: int                  # 0 or 1
    level: int
    fixed: float               # coordinate along `axis`
    lo: float                  # start of the tangent interval
    plus: Cell
    minus: Cell | None
    normal: tuple[float, float]

    @property
    def length(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def key(self) -> tuple:
        return (self.axis, self.level,
                round(self.fixed * (1 << self.level)),
                round(self.lo * (1 << self.level)))


@dataclass(frozen=True)
class ShapeReport:
    """Worst-case mesh regularity figures for a partition/space pair."""

    max_edge_ratio: float       # max h_tau / h_sigma over cells and their facets
    max_extension_ratio: float  # max diam(omega_tau) / h_tau
    max_overlap_count: int      # max number of cells in any omega_tau


class Partition:
    """Immutable graded quadtree partition of the unit square.

    Besides the sorted ``cells``, a partition holds their levels and
    indices as integer arrays in the same order, and the cells' Z-order
    (Morton) keys on its finest grid, sorted.  A cell of level ``l``
    covers the key interval ``[key, key + 4**(max_level - l))``, so the
    active cell containing any dyadic cell is one ``searchsorted`` away.
    Every partition is checked: disjoint cells, exact cover, grading.
    """

    def __init__(self, cells: Iterable[Cell]):
        cells = list(cells)
        if not cells:
            raise ValueError("partition needs at least one cell")
        level, i, j = np.array(cells, dtype=np.int64).T
        self.max_level = int(level.max())
        if self.max_level > MAX_LEVEL:
            raise ValueError(f"cell level {self.max_level} exceeds the "
                             f"supported maximum {MAX_LEVEL}")
        order = np.lexsort((j, i, level))
        self.cells: tuple[Cell, ...] = tuple(cells[k] for k in order.tolist())
        self._level, self._i, self._j = level[order], i[order], j[order]
        self._position = {c: k for k, c in enumerate(self.cells)}
        shift = self.max_level - self._level
        key = _morton(self._i << shift, self._j << shift)
        self._zorder = np.lexsort((self._level, key))
        self._zkey = key[self._zorder]
        self._table: np.ndarray | None = None
        self._edge_arrays: tuple[EdgeArrays, EdgeArrays] | None = None
        self._edges: tuple[list[Edge], list[Edge]] | None = None
        self._validate()

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __contains__(self, c: Cell) -> bool:
        return c in self._position

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def _locate(self, i, j):
        """Positions in ``cells`` of the active cells containing the
        finest-grid cells ``(max_level, i, j)``; ints or arrays."""
        at = np.searchsorted(self._zkey, _morton(i, j), side="right") - 1
        return self._zorder[at]

    def owners(self, cells) -> list[Cell]:
        """The active cells that equal or contain each of the dyadic
        ``cells``, from one array lookup of their first finest-grid
        cells; a cell that the partition subdivides raises."""
        level, i, j = np.array(cells, dtype=np.int64).reshape(-1, 3).T
        up = np.maximum(self.max_level - level, 0)
        down = np.maximum(level - self.max_level, 0)
        k = self._locate((i << up) >> down, (j << up) >> down)
        bad = np.flatnonzero(self._level[k] > level)
        if bad.size:
            raise ValueError(f"{cells[bad[0]]} is subdivided in the "
                             "partition: partitions are not nested (not a "
                             "refinement)")
        return [self.cells[q] for q in k.tolist()]

    def find_cell(self, x: float, y: float) -> Cell:
        """Active cell containing the point (half-open convention)."""
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside the unit square")
        n = 1 << self.max_level
        return self.cells[int(self._locate(min(int(x * n), n - 1),
                                           min(int(y * n), n - 1)))]

    def cells_in_box(self, x0: float, x1: float, y0: float, y1: float) -> list[Cell]:
        """Active cells whose interior overlaps the open box (sorted)."""
        side = np.ldexp(1.0, -self._level)
        i, j = self._i, self._j
        hit = ((i + 1) * side > x0) & (i * side < x1) \
            & ((j + 1) * side > y0) & (j * side < y1)
        return [self.cells[k] for k in np.flatnonzero(hit).tolist()]

    def _neighbours(self) -> np.ndarray:
        """The partition's neighbour table, built once: ``nb[k, d]`` is
        the position of the active cell across facet ``d`` (left, right,
        down, up) of cell ``k`` when that cell is as coarse as ``k`` or
        coarser, ``-1`` on the domain boundary and ``-2`` when the other
        side is subdivided (the finer cells there see ``k`` as theirs)."""
        if self._table is None:
            L = np.repeat(self._level[:, None], 4, axis=1)
            pi, pj = self._i[:, None] + _STEPS[0], self._j[:, None] + _STEPS[1]
            ok = (pi >= 0) & (pj >= 0) & (pi < 1 << L) & (pj < 1 << L)
            s = self.max_level - L[ok]
            k = self._locate(pi[ok] << s, pj[ok] << s)
            nb = np.full(L.shape, -1, dtype=np.int64)
            nb[ok] = np.where(self._level[k] <= L[ok], k, -2)
            self._table = nb
        return self._table

    # -- invariants ---------------------------------------------------

    def _validate(self):
        top, L = self.max_level, self._level
        # disjointness: dyadic key intervals nest or are disjoint, so an
        # overlap shows as a key inside its predecessor's interval
        end = self._zkey + (1 << 2 * (top - L[self._zorder]))
        bad = np.flatnonzero(end[:-1] > self._zkey[1:])
        if bad.size:
            a, b = self._zorder[bad[0]], self._zorder[bad[0] + 1]
            raise ValueError(f"overlapping cells: {self.cells[b]} inside "
                             f"{self.cells[a]}")
        # exact cover: dyadic areas sum to 1 (integer arithmetic)
        total = sum(n << 2 * (top - lev)
                    for lev, n in enumerate(np.bincount(L).tolist()))
        if total != 1 << 2 * top:
            raise ValueError("cells do not cover the unit square")
        # 1-level grading, from the finer side of each facet
        nb = self._neighbours()
        bad = np.argwhere((nb >= 0) & (L[:, None] - L[nb] > 1))
        if bad.size:
            k, d = bad[0]
            raise ValueError(f"grading violated between "
                             f"{self.cells[nb[k, d]]} and {self.cells[k]}")

    # -- plain-text dump ---------------------------------------------

    def dump(self) -> str:
        """One ``level i j`` record per active cell, deterministic order."""
        return "".join(f"{c.level} {c.i} {c.j}\n" for c in self.cells)

    @staticmethod
    def from_dump(text: str) -> "Partition":
        cells = []
        for line in text.strip().splitlines():
            level, i, j = (int(tok) for tok in line.split())
            cells.append(Cell(level, i, j))
        return Partition(cells)


def uniform_partition(levels: int) -> Partition:
    """Uniform dyadic partition with ``4**levels`` cells."""
    if levels < 0:
        raise ValueError("levels must be non-negative")
    n = 1 << levels
    return Partition(Cell(levels, i, j) for i in range(n) for j in range(n))


def refine(p: Partition, marked: Iterable[Cell]) -> Partition:
    """Replace marked cells by their children and restore 1-level grading.

    Raises if a marked cell is not active (stale marking).  An empty
    marked set returns ``p`` unchanged.  The closure sweeps the levels
    from the finest down: a split cell's coarser neighbours would face
    its children across two levels, so they are split as well, which
    may in turn split their own coarser neighbours.
    """
    marked = sorted(set(marked))
    if not marked:
        return p
    for m in marked:
        if m not in p:
            raise ValueError(f"stale marking: {m} is not an active cell")
    nb = p._neighbours()
    L = p._level
    split = np.zeros(len(p), dtype=bool)
    split[[p._position[m] for m in marked]] = True
    for lev in range(p.max_level, 0, -1):
        q = nb[split & (L == lev)].ravel()
        q = q[q >= 0]
        split[q[L[q] < lev]] = True
    return Partition([q for c, s in zip(p.cells, split.tolist())
                      for q in (c.children() if s else (c,))])


# Z-order interleaving of two coordinates below 2**32, for ints or arrays
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
           (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
           (1, 0x5555555555555555))


def _morton(i, j):
    """Z-order key of the finest-grid cell ``(i, j)``: the bits of ``i``
    and ``j`` interleaved."""
    for s, mask in _SPREAD:
        i = (i | (i << s)) & mask
        j = (j | (j << s)) & mask
    return i | (j << 1)


# index steps (along x, then along y) towards the neighbour across each
# facet: left, right, down, up
_STEPS = np.array([[-1, 1, 0, 0], [0, 0, -1, 1]])


class EdgeArrays:
    """Edges of a partition as arrays, in :func:`edges` order.

    Per edge: the normal ``axis``, the ``level``, the ``fixed`` coordinate,
    the start ``lo`` of the tangent interval, the positions in
    ``p.cells`` of the ``plus`` and ``minus`` owners (``-1`` on the
    boundary), the ``sign`` of the normal along its axis and the
    ``length``.  Indexing with a slice or an index array gives the
    subset; :meth:`cells` gives owners as :class:`Cell` values.
    """

    FIELDS = ("axis", "level", "fixed", "lo", "plus", "minus", "sign",
              "length")
    __slots__ = FIELDS + ("_cells",)

    def __init__(self, cells: np.ndarray, *fields: np.ndarray):
        self._cells = cells  # the partition's cells as an object array
        for name, value in zip(self.FIELDS, fields):
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self.axis)

    def __getitem__(self, k) -> "EdgeArrays":
        return EdgeArrays(self._cells, *(getattr(self, f)[k]
                                         for f in self.FIELDS))

    def cells(self, positions: np.ndarray) -> list[Cell]:
        """The cells at ``positions`` (``self.plus`` or ``self.minus``)."""
        return self._cells[positions].tolist()

    def edges(self) -> list[Edge]:
        """The edges as :class:`Edge` values."""
        cells = self._cells
        return [Edge("interior" if m >= 0 else "boundary", a, lv, x, t,
                     cells[pl], cells[m] if m >= 0 else None,
                     (s, 0.0) if a == 0 else (0.0, s))
                for a, lv, x, t, pl, m, s in zip(*(getattr(self, f).tolist()
                                                  for f in self.FIELDS[:7]))]


def edge_arrays(p: Partition) -> tuple[EdgeArrays, EdgeArrays]:
    """Interior and boundary edges of ``p`` as :class:`EdgeArrays`,
    built on the first call and cached on the immutable partition."""
    if p._edge_arrays is None:
        p._edge_arrays = _facet_arrays(p)
    return p._edge_arrays


def edges(p: Partition) -> tuple[list[Edge], list[Edge]]:
    """Interior and boundary edge lists in deterministic order.

    At a level interface the edges are the finer cells' facets, each
    owned by the fine cell and the coarse neighbour.  Boundary edges are
    exactly the facets of active cells on the domain boundary.  The
    lists are built from :func:`edge_arrays` on the first call and
    shared by later calls, since the partition is immutable; callers
    must not modify them.
    """
    if p._edges is None:
        interior, boundary = edge_arrays(p)
        p._edges = interior.edges(), boundary.edges()
    return p._edges


def _facet_arrays(p: Partition) -> tuple[EdgeArrays, EdgeArrays]:
    """Edges from the neighbour table, sorted by :attr:`Edge.key`: one
    per boundary facet, per facet with a coarser neighbour and per right
    or upper facet with a same-level one (finer cells own the rest).
    An interior edge's plus owner is the one of lower position, and its
    normal that of the right or upper facet."""
    nb = p._neighbours()
    L, I, J = p._level, p._i, p._j
    k, d = np.nonzero(nb != -2)
    q = nb[k, d]
    lq = L[q]  # q = -1 reads a level that the test below ignores
    own = (q == -1) | (lq < L[k]) | ((lq == L[k]) & (d % 2 == 1))
    k, d, q = k[own], d[own], q[own]
    axis = d // 2
    lev = L[k]
    fixed = np.where(axis == 0, I[k], J[k]) + d % 2
    lo = np.where(axis == 0, J[k], I[k])
    o = np.lexsort((lo, fixed, lev, axis))
    k, d, q, axis, lev = k[o], d[o], q[o], axis[o], lev[o]
    fixed, lo = np.ldexp(fixed[o], -lev), np.ldexp(lo[o], -lev)
    cells = np.fromiter(p.cells, dtype=object, count=len(p))
    inside = q >= 0
    plus = np.where(inside, np.minimum(k, q), k)
    minus = np.where(inside, np.maximum(k, q), -1)
    # interior: +1; boundary: -1 on the left and lower facets
    sign = np.where(inside | (d % 2 == 1), 1.0, -1.0)
    interior, boundary = (
        EdgeArrays(cells, axis[at], lev[at], fixed[at], lo[at], plus[at],
                   minus[at], sign[at], np.ldexp(1.0, -lev[at]))
        for at in (inside, ~inside))
    return interior, boundary


def support_extension(space_handle, tau: Cell) -> set[Cell]:
    """Cells met by supports of basis functions whose support meets tau.

    Those functions are the rows of tau's extraction in the hierarchical
    space ``space_handle``: the active functions of tau's level and
    coarser levels whose index window covers tau's ancestor.  A finer
    active function cannot reach into the coarser active cell tau.
    """
    if tau not in space_handle.partition:
        raise ValueError(f"{tau} is not an active cell")
    pos, _ = space_handle.cell_extraction(tau)
    boxes = [space_handle.support_box(space_handle.active[k]) for k in pos]
    hx0 = min(b[0] for b in boxes)
    hx1 = max(b[1] for b in boxes)
    hy0 = min(b[2] for b in boxes)
    hy1 = max(b[3] for b in boxes)
    out: set[Cell] = set()
    for c in space_handle.partition.cells_in_box(hx0, hx1, hy0, hy1):
        cx0, cx1, cy0, cy1 = c.bounds
        for bx0, bx1, by0, by1 in boxes:
            if bx0 < cx1 and bx1 > cx0 and by0 < cy1 and by1 > cy0:
                out.add(c)
                break
    out.add(tau)
    return out


def shape_report(space_handle) -> ShapeReport:
    """Exact regularity maxima over all cells of the space's partition."""
    interior, bdry = edges(space_handle.partition)
    max_edge_ratio = max(c.side / e.length for e in interior + bdry
                         for c in (e.plus, e.minus) if c is not None)
    max_ext = 0.0
    max_overlap = 0
    for c in space_handle.partition.cells:
        ext = support_extension(space_handle, c)
        max_overlap = max(max_overlap, len(ext))
        b = np.array([q.bounds for q in ext])
        corners = np.stack([b[:, [0, 0, 1, 1]], b[:, [2, 3, 2, 3]]], axis=2)
        corners = corners.reshape(-1, 2)
        diam = ((corners[:, None] - corners[None]) ** 2).sum(axis=2).max()
        max_ext = max(max_ext, float(diam) ** 0.5 / c.side)
    return ShapeReport(max_edge_ratio, max_ext, max_overlap)
