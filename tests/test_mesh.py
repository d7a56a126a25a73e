"""Quadtree partition, refinement closure and edge structure."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from afem.driver import run
from afem.mesh import (Cell, Edge, Partition, edges, refine, shape_report,
                       support_extension, uniform_partition)
from afem.oracles import (facet_edges_bruteforce, kraft_selection_bruteforce,
                          support_extension_bruteforce)
from afem.splines import build_space

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402


def graded_7cell():
    return refine(uniform_partition(1), [Cell(1, 0, 0)])


def random_refined(rng, rounds=3, start=1, max_marks=4):
    p = uniform_partition(start)
    for _ in range(rounds):
        k = int(rng.integers(1, max_marks + 1))
        picks = rng.choice(len(p.cells), size=min(k, len(p.cells)),
                           replace=False)
        p = refine(p, [p.cells[i] for i in picks])
    return p


class TestUniformPartition:
    def test_base_case(self):
        p = uniform_partition(0)
        assert len(p) == 1
        assert p.cells[0] == Cell(0, 0, 0)
        assert p.cells[0].side == 1.0

    def test_levels_two(self):
        p = uniform_partition(2)
        assert len(p) == 16
        assert all(c.level == 2 and c.side == 0.25 for c in p)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            uniform_partition(-1)

    def test_seven_cells_after_one_child_refine(self):
        assert len(graded_7cell()) == 7


class TestCell:
    def test_hash_equality_order_and_repr(self):
        c = Cell(3, 5, 2)
        assert hash(c) == hash((3, 5, 2))
        assert c == Cell(3, 5, 2) and c != Cell(3, 2, 5)
        assert repr(c) == "Cell(level=3, i=5, j=2)"
        cells = [Cell(2, 1, 3), Cell(1, 1, 0), Cell(2, 1, 0), Cell(0, 0, 0)]
        assert sorted(cells) == sorted(cells, key=lambda q: (q.level, q.i,
                                                             q.j))
        assert Cell(1, 0, 1) < Cell(1, 1, 0) <= Cell(1, 1, 0)

    def test_slotted_and_frozen(self):
        c = Cell(1, 1, 1)
        assert not hasattr(c, "__dict__")
        with pytest.raises(AttributeError):
            c.i = 0
        with pytest.raises(ValueError, match="outside"):
            Cell(1, 2, 0)

    def test_value_types_are_tuples(self):
        # hashing, equality and ordering run in tuple's C code
        for cls in (Cell, Edge):
            for name in ("__hash__", "__eq__", "__lt__"):
                assert getattr(cls, name) is getattr(tuple, name)
        c = Cell(1, 0, 1)
        assert c == (1, 0, 1) and hash(c) == hash((1, 0, 1))
        assert {(1, 0, 1): "memo"}[c] == "memo"
        with pytest.raises(ValueError, match=r"^cell index Cell\(level=1, "
                           r"i=2, j=0\) outside the unit square$"):
            Cell(level=1, i=2, j=0)


class TestRefine:
    def test_single_cell_split(self):
        p = refine(uniform_partition(0), [Cell(0, 0, 0)])
        assert len(p) == 4
        assert all(c.level == 1 for c in p)

    def test_empty_marking_is_identity(self):
        p = uniform_partition(1)
        assert refine(p, []) is p

    def test_stale_marking_raises(self):
        p = uniform_partition(1)
        with pytest.raises(ValueError, match="stale"):
            refine(p, [Cell(2, 0, 0)])

    def test_closure_enforces_grading(self):
        # refine the level-2 child that touches the remaining level-1
        # cells; its split creates level-3 cells, forcing the level-1
        # neighbours to split as well
        p = graded_7cell()
        p2 = refine(p, [Cell(2, 1, 1)])
        for e in edges(p2)[0]:
            assert abs(e.plus.level - e.minus.level) <= 1
        # brute-force adjacency scan over all pairs
        for a in p2:
            ax0, ax1, ay0, ay1 = a.bounds
            for b in p2:
                if a is b:
                    continue
                bx0, bx1, by0, by1 = b.bounds
                shares_v = (ax1 == bx0 or ax0 == bx1) and \
                    min(ay1, by1) - max(ay0, by0) > 0
                shares_h = (ay1 == by0 or ay0 == by1) and \
                    min(ax1, bx1) - max(ax0, bx0) > 0
                if shares_v or shares_h:
                    assert abs(a.level - b.level) <= 1

    def test_monotone_growth_and_nestedness(self):
        rng = np.random.default_rng(5)
        p = uniform_partition(1)
        for _ in range(6):
            pick = p.cells[int(rng.integers(len(p.cells)))]
            p2 = refine(p, [pick])
            assert len(p2) > len(p)
            # every new cell is contained in exactly one old cell
            for c in p2:
                owners = [o for o in p
                          if o.level <= c.level and c.ancestor(o.level) == o]
                assert len(owners) == 1
            p = p2

    def test_grading_invariant_random_sequences(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            p = random_refined(rng, rounds=4)
            # constructor validates cover, disjointness and grading
            Partition(p.cells)


class TestEdges:
    def test_single_cell(self):
        interior, boundary = edges(uniform_partition(0))
        assert interior == []
        assert len(boundary) == 4
        assert all(e.length == 1.0 for e in boundary)

    def test_built_once_per_partition(self):
        p = uniform_partition(2)
        assert edges(p) is edges(p)
        finer = refine(p, [Cell(2, 1, 1)])
        assert edges(finer) is not edges(p)
        assert len(edges(finer)[0]) > len(edges(p)[0])

    def test_four_uniform_cells(self):
        interior, boundary = edges(uniform_partition(1))
        assert len(interior) == 4
        assert len(boundary) == 8
        assert all(e.length == 0.5 for e in interior + boundary)

    def test_boundary_lengths_sum_to_four(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_refined(rng)
            _, boundary = edges(p)
            assert sum(e.length for e in boundary) == pytest.approx(4.0)

    def test_interior_owner_adjacency(self):
        rng = np.random.default_rng(12)
        p = random_refined(rng, rounds=4)
        interior, _ = edges(p)
        for e in interior:
            assert abs(e.plus.level - e.minus.level) <= 1
            assert (e.plus.level, e.plus.i, e.plus.j) <= \
                (e.minus.level, e.minus.i, e.minus.j)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_facet_matching(self, seed):
        rng = np.random.default_rng(seed)
        p = graded_7cell() if seed == 0 else random_refined(rng)
        interior, boundary = edges(p)
        oracle_int, oracle_bd = facet_edges_bruteforce(p)
        got_int = sorted((e.axis, e.level,
                          round(e.fixed * (1 << e.level)),
                          round(e.lo * (1 << e.level)), e.plus, e.minus)
                         for e in interior)
        got_bd = sorted((e.axis, e.level,
                         round(e.fixed * (1 << e.level)),
                         round(e.lo * (1 << e.level)), e.plus)
                        for e in boundary)
        assert got_int == sorted(oracle_int)
        assert got_bd == sorted(
            oracle_bd, key=lambda t: (t[0], t[1], t[2], t[3]))

    def test_boundary_normals_point_outward(self):
        _, boundary = edges(uniform_partition(1))
        for e in boundary:
            nx, ny = e.normal
            x0, x1, y0, y1 = e.plus.bounds
            if e.axis == 0:
                assert nx == (-1.0 if e.fixed == 0.0 else 1.0) and ny == 0.0
            else:
                assert ny == (-1.0 if e.fixed == 0.0 else 1.0) and nx == 0.0


class TestSupportExtension:
    def test_single_cell(self):
        p = uniform_partition(0)
        s = build_space(p, 2)
        assert support_extension(s, p.cells[0]) == {p.cells[0]}

    def test_uniform_interior_cell_matches_bruteforce(self):
        p = uniform_partition(3)
        s = build_space(p, 2)
        tau = Cell(3, 4, 4)
        got = support_extension(s, tau)
        assert got == support_extension_bruteforce(p, s, tau)

    def test_corner_cell_smaller_than_interior(self):
        p = uniform_partition(3)
        s = build_space(p, 2)
        interior = support_extension(s, Cell(3, 4, 4))
        corner = support_extension(s, Cell(3, 0, 0))
        assert corner == support_extension_bruteforce(p, s, Cell(3, 0, 0))
        assert len(corner) < len(interior)

    def test_inactive_cell_rejected(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        with pytest.raises(ValueError):
            support_extension(s, Cell(0, 0, 0))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_graded_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        p = random_refined(rng)
        s = build_space(p, 2)
        for tau in p.cells[:: max(1, len(p.cells) // 6)]:
            assert support_extension(s, tau) == \
                support_extension_bruteforce(p, s, tau)


class TestShapeReport:
    def test_uniform_edge_ratio_is_one(self):
        p = uniform_partition(2)
        rep = shape_report(build_space(p, 2))
        assert rep.max_edge_ratio == 1.0

    def test_graded_edge_ratio_at_most_two(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            p = random_refined(rng)
            rep = shape_report(build_space(p, 2))
            assert rep.max_edge_ratio <= 2.0

    def test_overlap_matches_bruteforce_and_bounded(self):
        rng = np.random.default_rng(22)
        p = random_refined(rng, rounds=5, max_marks=3)
        s = build_space(p, 2)
        rep = shape_report(s)
        brute = max(len(support_extension_bruteforce(p, s, tau))
                    for tau in p.cells)
        assert rep.max_overlap_count == brute
        assert rep.max_overlap_count <= 64
        assert np.isfinite(rep.max_extension_ratio)
        # deep level disparity under pure edge grading stretches the
        # extension; the frozen bound covers the seeded meshes here
        assert rep.max_extension_ratio <= 64.0

    def test_stable_under_no_refinement(self):
        p = graded_7cell()
        s = build_space(p, 2)
        a = shape_report(s)
        b = shape_report(s)
        assert a == b


class TestDump:
    def test_roundtrip(self):
        p = graded_7cell()
        text = p.dump()
        assert text.splitlines()[0].split() == ["1", "0", "1"]
        q = Partition.from_dump(text)
        assert q == p

    def test_deterministic_order(self):
        p = graded_7cell()
        assert p.dump() == p.dump()
        lines = p.dump().strip().splitlines()
        keys = [tuple(map(int, ln.split())) for ln in lines]
        assert keys == sorted(keys)


class TestRejections:
    """Invalid cell sets are refused with a message naming the cause."""

    def test_overlapping_cells(self):
        cells = [Cell(0, 0, 0), *Cell(0, 0, 0).children()]
        with pytest.raises(ValueError, match=r"overlapping cells: "
                           r"Cell\(level=1, i=0, j=0\) inside "
                           r"Cell\(level=0, i=0, j=0\)"):
            Partition(cells)

    def test_duplicate_cells_overlap(self):
        # a duplicate and a gap of the same area sum to the unit square
        a, b, c, _ = Cell(0, 0, 0).children()
        with pytest.raises(ValueError, match="overlapping cells"):
            Partition([a, a, b, c])

    def test_gap(self):
        with pytest.raises(ValueError,
                           match="cells do not cover the unit square"):
            Partition(Cell(0, 0, 0).children()[:3])

    def test_grading_violation(self):
        p = refine(refine(uniform_partition(1), [Cell(1, 1, 0)]),
                   [Cell(2, 2, 1)])
        # the closure split Cell(1, 0, 0); leave it whole
        cells = [c for c in p if c.ancestor(1) != Cell(1, 0, 0)]
        with pytest.raises(ValueError, match=r"grading violated between "
                           r"Cell\(level=1, i=0, j=0\) and "
                           r"Cell\(level=3, i=4, j=2\)"):
            Partition(cells + [Cell(1, 0, 0)])

    def test_level_above_key_width(self):
        deep = [Cell(32, 0, 0)]
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            Partition(deep)

    def test_every_partition_is_validated(self, monkeypatch):
        """No option skips the checks: the five overlapping cells raise,
        and the uniform partition, refinement and a dump are checked."""
        cells = [Cell(0, 0, 0), *Cell(0, 0, 0).children()]
        with pytest.raises(ValueError, match="overlapping cells"):
            Partition(cells)
        with pytest.raises(TypeError):
            Partition(cells, validate=False)
        calls = []
        check = Partition._validate
        monkeypatch.setattr(Partition, "_validate",
                            lambda p: calls.append(len(p)) or check(p))
        p = uniform_partition(2)
        q = refine(p, [Cell(2, 0, 0)])
        Partition.from_dump(q.dump())
        assert calls == [16, 19, 19]


DIRECTIONS = ("left", "right", "down", "up")

# a start level and rounds of marks, each mark an index into the cells
refine_sequences = st.tuples(
    st.integers(0, 2),
    st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
             min_size=2, max_size=6))


def refined_chain(start, rounds):
    chain = [uniform_partition(start)]
    for picks in rounds:
        p = chain[-1]
        chain.append(refine(p, [p.cells[k % len(p)] for k in picks]))
    return chain


def contains(outer, inner):
    ox0, ox1, oy0, oy1 = outer.bounds
    ix0, ix1, iy0, iy1 = inner.bounds
    return ox0 <= ix0 and ix1 <= ox1 and oy0 <= iy0 and iy1 <= oy1


def adjacency_bruteforce(p):
    """Facet neighbours per (cell, direction) from exhaustive facet
    matching in ``oracles.facet_edges_bruteforce``."""
    nbs = {(c, d): set() for c in p for d in DIRECTIONS}
    for axis, _, _, _, a, b in facet_edges_bruteforce(p)[0]:
        if a.bounds[2 * axis + 1] != b.bounds[2 * axis]:
            a, b = b, a  # now a lies left of (below) b
        low, high = DIRECTIONS[2 * axis: 2 * axis + 2]
        nbs[(b, low)].add(a)
        nbs[(a, high)].add(b)
    return nbs


class TestMeshProperties:
    """Random mark/refine sequences against brute-force scans."""

    @given(refine_sequences)
    def test_grading_cover_and_nesting(self, seq):
        chain = refined_chain(*seq)
        for coarse, fine in zip(chain, chain[1:]):
            top = fine.max_level
            assert sum(4 ** (top - c.level) for c in fine) == 4 ** top
            for c in fine:
                assert sum(contains(o, c) for o in coarse) == 1
                assert not any(contains(o, c) for o in fine if o != c)
            for e in edges(fine)[0]:
                assert abs(e.plus.level - e.minus.level) <= 1

    @given(refine_sequences)
    def test_neighbors_match_bruteforce_adjacency(self, seq):
        """The interior edges' owner pairs, plus the lower key, are
        exactly the facet-adjacent pairs of the brute-force scan."""
        p = refined_chain(*seq)[-1]
        adjacent = {tuple(sorted((c, nb)))
                    for (c, _), nbs in adjacency_bruteforce(p).items()
                    for nb in nbs}
        assert {(e.plus, e.minus) for e in edges(p)[0]} == adjacent

    @given(refine_sequences)
    def test_owner_matches_containment_scan(self, seq):
        chain = refined_chain(*seq)
        coarse, fine = chain[0], chain[-1]
        for c in fine:
            (expected,) = [o for o in coarse if contains(o, c)]
            assert coarse.owners([c]) == [expected]
        for c in coarse:
            if c not in fine:
                with pytest.raises(ValueError, match="nested"):
                    fine.owners([c])

    @given(refine_sequences)
    def test_owners_match_containment_scan(self, seq):
        chain = refined_chain(*seq)
        coarse, fine = chain[0], chain[-1]
        assert coarse.owners(fine.cells) == [
            next(o for o in coarse if contains(o, c)) for c in fine]
        assert coarse.owners([]) == fine.owners(()) == []
        subdivided = [c for c in coarse if c not in fine]
        if subdivided:
            with pytest.raises(ValueError, match=re.escape(
                    f"{subdivided[0]} is subdivided in the partition")):
                fine.owners(list(fine.cells[:3]) + subdivided)

    @given(refine_sequences, st.integers(2, 4), st.booleans())
    def test_support_extension_matches_bruteforce(self, seq, degree,
                                                  truncated):
        p = refined_chain(*seq)[-1]
        s = build_space(p, degree, truncated)
        for tau in p.cells[:: max(1, len(p) // 8)]:
            assert support_extension(s, tau) == \
                support_extension_bruteforce(p, s, tau)


# -- the Cell-walk mesh code that the integer arrays replaced -----------

STEPS = {"left": (-1, 0), "right": (1, 0), "down": (0, -1), "up": (0, 1)}


def walk_ancestor(cells, c):
    """The member of the disjoint set ``cells`` equal to or containing
    ``c`` by a parent walk, or None when ``c`` is subdivided."""
    while c not in cells:
        if c.level == 0:
            return None
        c = c.parent()
    return c


def walk_neighbors(cells, c, direction):
    """Members of ``cells`` across one facet of ``c``, ascending along
    it: the same-level probe's ancestor, or the finer cells depth first."""
    step = STEPS[direction]
    i, j = c.i + step[0], c.j + step[1]
    if i < 0 or j < 0 or i == 1 << c.level or j == 1 << c.level:
        return []
    probe = Cell(c.level, i, j)
    anc = walk_ancestor(cells, probe)
    if anc is not None:
        return [anc]
    out, stack = [], [probe]
    while stack:
        q = stack.pop()
        if q in cells:
            out.append(q)
            continue
        L, a, b = q.level + 1, 2 * q.i, 2 * q.j
        if step[0]:
            a += step[0] < 0
            stack += (Cell(L, a, b + 1), Cell(L, a, b))
        else:
            b += step[1] < 0
            stack += (Cell(L, a + 1, b), Cell(L, a, b))
    return out


def walk_edges(p):
    """Edge lists from per-facet neighbour walks, deduplicated by key."""
    cells = set(p.cells)
    interior, boundary = {}, []
    for c in p.cells:
        x0, x1, y0, y1 = c.bounds
        for direction, axis, fixed, lo, outward in (
                ("left", 0, x0, y0, (-1.0, 0.0)),
                ("right", 0, x1, y0, (1.0, 0.0)),
                ("down", 1, y0, x0, (0.0, -1.0)),
                ("up", 1, y1, x0, (0.0, 1.0))):
            nbs = walk_neighbors(cells, c, direction)
            if not nbs:
                boundary.append(Edge("boundary", axis, c.level, fixed, lo,
                                     plus=c, minus=None, normal=outward))
            for nb in nbs:
                if nb.level <= c.level:
                    plus, minus = sorted((c, nb))
                    e = Edge("interior", axis, c.level, fixed, lo,
                             plus=plus, minus=minus,
                             normal=(1.0, 0.0) if axis == 0 else (0.0, 1.0))
                    interior.setdefault(e.key, e)
    return (sorted(interior.values(), key=lambda e: e.key),
            sorted(boundary, key=lambda e: e.key))


def walk_refine(p, marked):
    """Recursive closure on a transient cell set."""
    active = set(p.cells)

    def split(c):
        active.remove(c)
        active.update(c.children())
        for direction in STEPS:
            for nb in walk_neighbors(active, c, direction):
                if nb.level < c.level:
                    split(nb)

    for m in sorted(set(marked)):
        if m in active:
            split(m)
    return sorted(active)


def walk_classify(cells, c):
    anc = walk_ancestor(cells, c)
    return "refined" if anc is None else "active" if anc == c else "inside"


def walk_select(p, r):
    """Active functions by classifying each window cell by a parent walk."""
    cells = set(p.cells)
    active = []
    for lev in sorted({c.level for c in p.cells}):
        m = 1 << lev
        candidates = {(ix, iy) for c in p.cells if c.level == lev
                      for ix in range(c.i, c.i + r + 1)
                      for iy in range(c.j, c.j + r + 1)}
        for ix, iy in sorted(candidates):
            if all(walk_classify(cells, Cell(lev, sx, sy)) != "inside"
                   for sx in range(max(0, ix - r), min(m - 1, ix) + 1)
                   for sy in range(max(0, iy - r), min(m - 1, iy) + 1)):
                active.append((lev, ix, iy))
    return active


def distinct_window_cells(p, r):
    """The number of distinct support cells, level by level, of the
    candidate functions of each level, clipped to the square."""
    total = 0
    for lev in sorted({c.level for c in p.cells}):
        m = 1 << lev
        candidates = {(ix, iy) for c in p.cells if c.level == lev
                      for ix in range(c.i, c.i + r + 1)
                      for iy in range(c.j, c.j + r + 1)}
        total += len({(sx, sy) for ix, iy in candidates
                      for sx in range(max(0, ix - r), min(m - 1, ix) + 1)
                      for sy in range(max(0, iy - r), min(m - 1, iy) + 1)})
    return total


def located_selection(p, r):
    """The active functions of the degree-``r`` space on ``p`` and the
    number of finest-grid cells its selection locates."""
    located = []
    original = Partition._locate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Partition, "_locate", lambda self, i, j: located.append(
            np.broadcast(i, j).size) or original(self, i, j))
        active = list(build_space(p, r).active)
    return active, sum(located)


def probe_cells(p):
    """Active cells, their ancestors and children, and two levels below
    the finest: every relation a dyadic cell can have to ``p``."""
    out = set()
    for c in p.cells:
        out.update(c.ancestor(lev) for lev in range(c.level + 1))
        out.update(c.children())
        out.update(ch.children()[3] for ch in c.children())
    return sorted(out)


class TestArraysEqualCellWalks:
    """The array-backed mesh gives exactly what the Cell walks gave."""

    @given(refine_sequences)
    def test_edges(self, seq):
        for p in refined_chain(*seq):
            interior, boundary = edges(p)
            want_int, want_bd = walk_edges(p)
            assert interior == want_int and boundary == want_bd
            for e in interior + boundary:
                assert type(e.level) is int and type(e.fixed) is float
                assert e.plus is p.cells[p.cells.index(e.plus)]
            oracle_int, oracle_bd = facet_edges_bruteforce(p)
            assert sorted((*e.key, e.plus, e.minus) for e in interior) \
                == sorted(oracle_int)
            assert [(*e.key, e.plus) for e in boundary] == oracle_bd

    @given(refine_sequences)
    def test_refine(self, seq):
        start, rounds = seq
        p = uniform_partition(start)
        for picks in rounds:
            marked = [p.cells[k % len(p)] for k in picks]
            fine = refine(p, marked)
            assert list(fine.cells) == walk_refine(p, marked)
            p = fine

    @given(refine_sequences)
    def test_classify_and_owner(self, seq):
        """``owners`` tells the three states apart: an equal owner means
        active, a coarser one inside, and ``ValueError`` subdivided."""
        p = refined_chain(*seq)[-1]
        cells = set(p.cells)
        for c in probe_cells(p):
            state = walk_classify(cells, c)
            try:
                (owner,) = p.owners([c])
            except ValueError as exc:
                assert "nested" in str(exc) and state == "refined"
                continue
            assert owner == walk_ancestor(cells, c)
            assert state == ("active" if owner == c else "inside")

    @given(refine_sequences, st.integers(2, 4))
    def test_select_active(self, seq, degree):
        p = refined_chain(*seq)[-1]
        active = list(build_space(p, degree).active)
        assert active == walk_select(p, degree)
        assert active == kraft_selection_bruteforce(p, degree)
        assert all(type(v) is int for fn in active for v in fn)

    @given(refine_sequences, st.integers(2, 4))
    def test_select_active_locates_each_window_cell_once(self, seq, degree):
        p = refined_chain(*seq)[-1]
        active, located = located_selection(p, degree)
        assert active == walk_select(p, degree)
        assert located == distinct_window_cells(p, degree)

    def test_final_peak_partition_locates_508_window_cells(self):
        """One lookup per window slot of every candidate function would be
        3,816 on this partition."""
        states = []
        run(*workloads.build("peak-conf-r2", 0), states.append)
        p = states[-1].partition
        active, located = located_selection(p, 2)
        assert active == walk_select(p, 2)
        assert located == distinct_window_cells(p, 2) == 508


class TestCellChurn:
    """``Cell`` objects are built for partitions, not for mesh work."""

    @pytest.mark.parametrize("name", workloads.NAMES)
    def test_constructions_per_run(self, name, monkeypatch):
        built = []
        new = Cell.__new__

        def counting(cls, *args, **kwargs):
            built.append(None)
            return new(cls, *args, **kwargs)

        cfg, prob = workloads.build(name, 0)
        sizes = []
        monkeypatch.setattr(Cell, "__new__", counting)
        run(cfg, prob, on_iteration=lambda state: sizes.append(
            len(state.partition)))
        monkeypatch.setattr(Cell, "__new__", new)
        assert len(built) <= 3 * sum(sizes)
