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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Cell",
    "Edge",
    "Partition",
    "ShapeReport",
    "uniform_partition",
    "refine",
    "edges",
    "cell_edges",
    "support_extension",
    "shape_report",
]

# classification of a dyadic cell relative to a partition
ACTIVE = "active"        # the cell itself is active
INSIDE = "inside"        # strictly contained in an active cell
REFINED = "refined"      # strictly subdivided into finer active cells


@dataclass(frozen=True, order=True, slots=True)
class Cell:
    """Dyadic square cell ``[i, i+1] x [j, j+1]`` scaled by ``2**-level``.

    Cells are dictionary keys everywhere, so the hash (that of the
    ``(level, i, j)`` tuple) is computed once, at construction.
    """

    level: int
    i: int
    j: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = 1 << self.level
        if not (0 <= self.i < n and 0 <= self.j < n):
            raise ValueError(f"cell index {self} outside the unit square")
        object.__setattr__(self, "_hash", hash((self.level, self.i, self.j)))

    def __hash__(self) -> int:
        return self._hash

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

    def contains(self, x: float, y: float) -> bool:
        x0, x1, y0, y1 = self.bounds
        return x0 <= x <= x1 and y0 <= y <= y1


@dataclass(frozen=True)
class Edge:
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
    """Immutable graded quadtree partition of the unit square."""

    def __init__(self, cells: Iterable[Cell], validate: bool = True):
        self.cells: tuple[Cell, ...] = tuple(sorted(cells))
        self._cell_set = frozenset(self.cells)
        if not self.cells:
            raise ValueError("partition needs at least one cell")
        self.max_level = max(c.level for c in self.cells)
        self._edges: tuple[list[Edge], list[Edge]] | None = None
        self._cell_edges: dict[Cell, list[Edge]] | None = None
        if validate:
            self._validate()

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __contains__(self, c: Cell) -> bool:
        return c in self._cell_set

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def classify(self, c: Cell) -> str:
        """Relation of an arbitrary dyadic cell to the partition."""
        anc = _active_ancestor(self._cell_set, c)
        if anc is None:
            return REFINED
        return ACTIVE if anc is c else INSIDE

    def owner(self, c: Cell) -> Cell:
        """The active cell that equals or contains the dyadic cell ``c``."""
        anc = _active_ancestor(self._cell_set, c)
        if anc is None:
            raise ValueError(f"{c} is subdivided in the partition: partitions "
                             "are not nested (not a refinement)")
        return anc

    def find_cell(self, x: float, y: float) -> Cell:
        """Active cell containing the point (half-open convention)."""
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside the unit square")
        c = Cell(0, 0, 0)
        while c not in self._cell_set:
            if c.level > self.max_level:
                raise RuntimeError("point location failed; broken partition")
            half = c.side / 2.0
            x0, _, y0, _ = c.bounds
            ci = 2 * c.i + (1 if x >= x0 + half else 0)
            cj = 2 * c.j + (1 if y >= y0 + half else 0)
            n = 1 << (c.level + 1)
            c = Cell(c.level + 1, min(ci, n - 1), min(cj, n - 1))
        return c

    def cells_in_box(self, x0: float, x1: float, y0: float, y1: float) -> list[Cell]:
        """Active cells whose interior overlaps the open box (sorted)."""
        found: list[Cell] = []

        def descend(c: Cell):
            cx0, cx1, cy0, cy1 = c.bounds
            if cx1 <= x0 or cx0 >= x1 or cy1 <= y0 or cy0 >= y1:
                return
            state = self.classify(c)
            if state == ACTIVE:
                found.append(c)
            elif state == REFINED:
                for ch in c.children():
                    descend(ch)
            # INSIDE cannot occur when descending from the root

        descend(Cell(0, 0, 0))
        return sorted(found)

    def neighbors_across(self, c: Cell, direction: str) -> list[Cell]:
        """Active cells sharing the given facet of ``c`` (may be empty on G)."""
        return _neighbors(self._cell_set, c, direction)

    # -- invariants ---------------------------------------------------

    def _validate(self):
        # disjointness: no cell may have an active strict ancestor
        for c in self.cells:
            if c.level == 0:
                continue
            anc = _active_ancestor(self._cell_set, c.parent())
            if anc is not None:
                raise ValueError(f"overlapping cells: {c} inside {anc}")
        # exact cover: dyadic areas sum to 1 (integer arithmetic)
        scale = self.max_level
        total = sum(4 ** (scale - c.level) for c in self.cells)
        if total != 4 ** scale:
            raise ValueError("cells do not cover the unit square")
        # 1-level grading across edges
        for c in self.cells:
            for direction in _STEPS:
                for nb in self.neighbors_across(c, direction):
                    if abs(nb.level - c.level) > 1:
                        raise ValueError(
                            f"grading violated between {c} and {nb}")

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
    return Partition(
        (Cell(levels, i, j) for i in range(n) for j in range(n)),
        validate=False,
    )


def refine(p: Partition, marked: Iterable[Cell]) -> Partition:
    """Replace marked cells by their children and restore 1-level grading.

    Raises if a marked cell is not active (stale marking).  An empty
    marked set returns ``p`` unchanged.
    """
    marked = sorted(set(marked))
    if not marked:
        return p
    for m in marked:
        if m not in p:
            raise ValueError(f"stale marking: {m} is not an active cell")

    active = set(p.cells)

    def split(c: Cell):
        active.remove(c)
        active.update(c.children())
        # closure: any active neighbour two levels coarser than the new
        # children must be split as well
        for direction in _STEPS:
            for nb in _neighbors(active, c, direction):
                if nb.level < c.level:
                    split(nb)

    for m in marked:
        if m in active:  # may already be gone via closure
            split(m)
    return Partition(active)


def _active_ancestor(cells, c: Cell) -> Cell | None:
    """The member of the disjoint cell set ``cells`` that equals or
    contains ``c``, or ``None`` when ``c`` is subdivided in it."""
    while c not in cells:
        if c.level == 0:
            return None
        c = c.parent()
    return c


# index steps towards the neighbour across each facet
_STEPS = {"left": (-1, 0), "right": (1, 0), "down": (0, -1), "up": (0, 1)}


def _neighbors(cells, c: Cell, direction: str) -> list[Cell]:
    """Members of the disjoint cell set ``cells`` that share the given
    facet of ``c``, in ascending order along the facet.

    The same-level cell across the facet is either covered by one
    member (its active ancestor) or subdivided, in which case the finer
    members along the facet are collected depth first.
    """
    step = _STEPS.get(direction)
    if step is None:
        raise ValueError(f"unknown direction {direction!r}")
    i, j = c.i + step[0], c.j + step[1]
    n = 1 << c.level
    if i < 0 or j < 0 or i == n or j == n:
        return []
    probe = Cell(c.level, i, j)
    if probe in cells:  # the common case, without a call
        return [probe]
    anc = _active_ancestor(cells, probe)
    if anc is not None:
        return [anc]
    # subdivided: descend depth first into the children on the side
    # facing c, pushed so that they pop in ascending order
    out: list[Cell] = []
    stack = [probe]
    while stack:
        q = stack.pop()
        if q in cells:
            out.append(q)
            continue
        if q.level > 64:  # a gap in the set would recurse forever
            raise RuntimeError("cell set does not cover the facet")
        L, a, b = q.level + 1, 2 * q.i, 2 * q.j
        if step[0]:
            a += step[0] < 0
            stack += (Cell(L, a, b + 1), Cell(L, a, b))
        else:
            b += step[1] < 0
            stack += (Cell(L, a + 1, b), Cell(L, a, b))
    return out


def edges(p: Partition) -> tuple[list[Edge], list[Edge]]:
    """Interior and boundary edge lists in deterministic order.

    At a level interface the edges are the finer cells' facets, each
    owned by the fine cell and the coarse neighbour.  Boundary edges are
    exactly the facets of active cells on the domain boundary.  The
    lists are built on the first call and shared by later calls, since
    the partition is immutable; callers must not modify them.
    """
    if p._edges is None:
        p._edges = _facet_edges(p)
    return p._edges


def cell_edges(p: Partition, c: Cell) -> list[Edge]:
    """Interior edges of the active cell ``c`` (as either owner), in the
    order of :func:`edges`.  The per-cell lists are built on the first
    call and shared like the edge lists."""
    if p._cell_edges is None:
        index: dict[Cell, list[Edge]] = {q: [] for q in p.cells}
        for e in edges(p)[0]:
            index[e.plus].append(e)
            index[e.minus].append(e)
        p._cell_edges = index
    return p._cell_edges[c]


def _facet_edges(p: Partition) -> tuple[list[Edge], list[Edge]]:
    interior: dict[tuple, Edge] = {}
    boundary: list[Edge] = []

    for c in p.cells:
        x0, x1, y0, y1 = c.bounds
        facets = (
            ("left", 0, x0, y0, (-1.0, 0.0)),
            ("right", 0, x1, y0, (1.0, 0.0)),
            ("down", 1, y0, x0, (0.0, -1.0)),
            ("up", 1, y1, x0, (0.0, 1.0)),
        )
        for direction, axis, fixed, lo, outward in facets:
            nbs = p.neighbors_across(c, direction)
            if not nbs:
                boundary.append(Edge("boundary", axis, c.level, fixed, lo,
                                     plus=c, minus=None, normal=outward))
                continue
            for nb in nbs:
                if nb.level > c.level:
                    continue  # finer neighbour registers the half-edges
                # c is the finer side or same level (deduplicated by key)
                plus, minus = sorted(
                    (c, nb), key=lambda q: (q.level, q.i, q.j))
                e = Edge("interior", axis, c.level, fixed, lo,
                         plus=plus, minus=minus,
                         normal=(1.0, 0.0) if axis == 0 else (0.0, 1.0))
                interior.setdefault(e.key, e)

    return sorted(interior.values(), key=lambda e: e.key), \
        sorted(boundary, key=lambda e: e.key)


def support_extension(p: Partition, space_handle, tau: Cell) -> set[Cell]:
    """Cells met by supports of basis functions whose support meets tau.

    Those functions are the rows of tau's extraction in the hierarchical
    space ``space_handle``: the active functions of tau's level and
    coarser levels whose index window covers tau's ancestor.  A finer
    active function cannot reach into the coarser active cell tau.
    """
    if tau not in p:
        raise ValueError(f"{tau} is not an active cell")
    pos, _ = space_handle.cell_extraction(tau)
    boxes = [space_handle.support_box(space_handle.active[k]) for k in pos]
    hx0 = min(b[0] for b in boxes)
    hx1 = max(b[1] for b in boxes)
    hy0 = min(b[2] for b in boxes)
    hy1 = max(b[3] for b in boxes)
    out: set[Cell] = set()
    for c in p.cells_in_box(hx0, hx1, hy0, hy1):
        cx0, cx1, cy0, cy1 = c.bounds
        for bx0, bx1, by0, by1 in boxes:
            if bx0 < cx1 and bx1 > cx0 and by0 < cy1 and by1 > cy0:
                out.add(c)
                break
    out.add(tau)
    return out


def shape_report(p: Partition, space_handle) -> ShapeReport:
    """Exact regularity maxima over all cells of the partition."""
    interior, bdry = edges(p)
    by_cell: dict[Cell, list[Edge]] = {c: [] for c in p.cells}
    for e in interior:
        by_cell[e.plus].append(e)
        by_cell[e.minus].append(e)
    for e in bdry:
        by_cell[e.plus].append(e)

    max_edge_ratio = 0.0
    max_ext = 0.0
    max_overlap = 0
    for c in p.cells:
        for e in by_cell[c]:
            max_edge_ratio = max(max_edge_ratio, c.side / e.length)
        ext = support_extension(p, space_handle, c)
        max_overlap = max(max_overlap, len(ext))
        corners = []
        for q in ext:
            qx0, qx1, qy0, qy1 = q.bounds
            corners.extend(((qx0, qy0), (qx0, qy1), (qx1, qy0), (qx1, qy1)))
        diam = 0.0
        for a in range(len(corners)):
            xa, ya = corners[a]
            for b in range(a + 1, len(corners)):
                xb, yb = corners[b]
                d2 = (xa - xb) ** 2 + (ya - yb) ** 2
                if d2 > diam:
                    diam = d2
        max_ext = max(max_ext, diam ** 0.5 / c.side)
    return ShapeReport(max_edge_ratio, max_ext, max_overlap)
