"""Stacked evaluation: the kernel and its consumers equal the per-cell
loops bit for bit, and the estimator respects the square's symmetries."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from afem import splines
from afem.assembly import (FormParams, _assemble_boundary, _symmetric_csr,
                           assemble, energy_error_sq)
from afem.estimator import estimate_all
from afem.mesh import Cell, edges, refine, uniform_partition
from afem.oracles import manufactured_sin2, random_spline
from afem.quadrature import gauss_cell, gauss_edge
from afem.solver import solve
from afem.splines import SplineFunction, build_space, conforming_indices
from test_splines import (ALL_ORDERS, graded_space, graded_spaces,
                          tables_per_order)

SIN2 = manufactured_sin2()


def random_requests(s, rng, copies=2, n=5):
    """Each active cell ``copies`` times at ``n`` random points inside it."""
    cells, X, Y = [], [], []
    for _ in range(copies):
        for c in s.partition:
            x0, x1, y0, y1 = c.bounds
            cells.append(c)
            X.append(rng.uniform(x0, x1, n))
            Y.append(rng.uniform(y0, y1, n))
    return cells, X, Y


def keep_first_row(s, cells):
    """Cut the extraction of ``cells`` to its first row, so they form
    groups with ``k = 1``."""
    for c in cells:
        pos, C = s.cell_extraction(c)
        one = C[:1].copy()
        one.flags.writeable = False
        s._extraction[c] = (pos[:1], one)
        s._index[c] = s._index[c][:1].copy()


def check_stacks(s, U, cells, X, Y, orders):
    """Every stacked item equals the one-cell path and the independent
    extraction-times-table product; chunks respect the grouping."""
    seen = []
    for items, index, tabs in s.basis_stacks(cells, X, Y, orders):
        assert 0 < len(items) <= splines._STACK_ITEMS
        ks = {len(s.cell_extraction(cells[q])[0]) for q in items}
        assert len(ks) == 1 and index.shape == (len(items), ks.pop())
        seen.extend(items)
        for j, q in enumerate(items):
            pos, want = s.basis_on_cell(cells[q], X[q], Y[q], orders)
            assert tuple(index[j]) == pos
            C = s.cell_extraction(cells[q])[1]
            local = tables_per_order(s, cells[q], X[q], Y[q], orders)
            for o in orders:
                assert np.array_equal(tabs[o][j], want[o]), (q, o)
                if max(o) <= s.degree:
                    assert np.array_equal(tabs[o][j], C @ local[o]), (q, o)
                else:
                    assert not tabs[o][j].any()
    assert sorted(seen) == list(range(len(cells)))
    # within one extraction size, requests keep their order
    by_k = {}
    for q in seen:
        by_k.setdefault(len(s.cell_extraction(cells[q])[0]), []).append(q)
    assert all(v == sorted(v) for v in by_k.values())

    got = U.eval_stacked(cells, X, Y, orders)
    for q, c in enumerate(cells):
        want = U.eval_batch(X[q], Y[q], orders, c)
        c_pos = U.coefficients[list(s.cell_extraction(c)[0])]
        _, tabs = s.basis_on_cell(c, X[q], Y[q], orders)
        for o in orders:
            assert got[o].shape == (len(cells), len(X[q]))
            assert np.array_equal(got[o][q], want[o]), (q, o)
            assert np.array_equal(got[o][q], c_pos @ tabs[o]), (q, o)


class TestKernel:
    @given(graded_spaces, st.integers(0, 2 ** 32 - 1))
    def test_stacks_equal_one_cell_path(self, case, seed):
        s = graded_space(*case)
        rng = np.random.default_rng(seed)
        U = random_spline(s, rng)
        check_stacks(s, U, *random_requests(s, rng), ALL_ORDERS)

    @pytest.mark.parametrize("degree,truncated", [(2, True), (3, False),
                                                  (4, True)])
    def test_single_row_groups_and_groups_over_one_chunk(self, degree,
                                                         truncated):
        p = refine(uniform_partition(3), [Cell(3, 1, 2), Cell(3, 6, 6)])
        s = build_space(p, degree, truncated)
        keep_first_row(s, p.cells[::7])
        rng = np.random.default_rng(degree)
        U = random_spline(s, rng)
        cells, X, Y = random_requests(s, rng, copies=2, n=4)
        sizes = {}
        for c in cells:
            k = len(s.cell_extraction(c)[0])
            sizes[k] = sizes.get(k, 0) + 1
        assert 1 in sizes
        assert max(sizes.values()) > splines._STACK_ITEMS
        check_stacks(s, U, cells, X, Y, ALL_ORDERS)

    def test_only_zero_orders(self):
        s = build_space(uniform_partition(2), 2)
        rng = np.random.default_rng(0)
        U = random_spline(s, rng)
        cells, X, Y = random_requests(s, rng, copies=1, n=3)
        got = U.eval_stacked(cells, X, Y, [(3, 0), (4, 0)])
        assert all(not v.any() and v.shape == (16, 3) for v in got.values())
        check_stacks(s, U, cells, X, Y, [(3, 0), (0, 4)])


# ---------------------------------------------------------------------------
# the per-cell loops the stacked consumers replace
# ---------------------------------------------------------------------------

def estimate_per_cell(U, f, p, n):
    """Per-edge jumps and per-cell residuals, one evaluation each."""

    def lap_and_normal(xs, ys, cell, axis):
        grad = [(3, 0), (1, 2)] if axis == 0 else [(2, 1), (0, 3)]
        d = U.eval_batch(xs, ys, [(2, 0), (0, 2)] + grad, cell)
        return d[(2, 0)] + d[(0, 2)], d[grad[0]] + d[grad[1]]

    jump1 = {c: 0.0 for c in p.cells}
    jump2 = {c: 0.0 for c in p.cells}
    for e in edges(p)[0]:
        rule = gauss_edge(e, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        lap_p, dlap_p = lap_and_normal(xs, ys, e.plus, e.axis)
        lap_m, dlap_m = lap_and_normal(xs, ys, e.minus, e.axis)
        h = e.length
        j1 = h ** 3 * float(w @ (dlap_p - dlap_m) ** 2)
        j2 = h * float(w @ (lap_p - lap_m) ** 2)
        jump1[e.plus] += 0.5 * j1
        jump1[e.minus] += 0.5 * j1
        jump2[e.plus] += 0.5 * j2
        jump2[e.minus] += 0.5 * j2
    records = {}
    total = 0.0
    for c in p.cells:
        rule = gauss_cell(c, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        d = U.eval_batch(xs, ys, [(4, 0), (2, 2), (0, 4)], c)
        res = (np.asarray(f(xs, ys), float)
               - (d[(4, 0)] + 2.0 * d[(2, 2)] + d[(0, 4)]))
        interior = c.side ** 4 * float(rule.weights @ res ** 2)
        eta_sq = interior + jump1[c] + jump2[c]
        records[c] = (eta_sq, interior, jump1[c], jump2[c])
        total += eta_sq
    return records, total


def assemble_per_cell(s, f, params):
    """Volume blocks scattered cell by cell, then the boundary pass."""
    params = params.resolved(s.degree)
    n = params.quad_n
    keep = (conforming_indices(s) if params.mode == "conforming"
            else tuple(range(s.dim)))
    imap = np.full(s.dim, -1, dtype=int)
    imap[list(keep)] = np.arange(len(keep))
    rows, cols, vals = [], [], []
    b = np.zeros(len(keep))

    def scatter(pos, block, load=None):
        idx = imap[list(pos)]
        live = idx >= 0
        if not np.any(live):
            return
        sub = idx[live]
        k = len(sub)
        rows.append(np.repeat(sub, k))
        cols.append(np.tile(sub, k))
        vals.append(block[np.ix_(live, live)].ravel())
        if load is not None:
            b[sub] += load[live]

    for cell in s.partition:
        rule = gauss_cell(cell, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, tabs = s.basis_on_cell(cell, xs, ys, [(0, 0), (2, 0), (0, 2)])
        lap = tabs[(2, 0)] + tabs[(0, 2)]
        scatter(pos, (lap * w) @ lap.T,
                tabs[(0, 0)] @ (w * np.asarray(f(xs, ys), float)))
    if params.mode == "nitsche":
        _assemble_boundary(s, params, scatter)
    return _symmetric_csr(rows, cols, vals, len(keep)), b


def energy_error_per_cell(lap_u, U, n):
    total = 0.0
    for cell in U.space.partition:
        rule = gauss_cell(cell, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        d = U.eval_batch(xs, ys, [(2, 0), (0, 2)], cell)
        diff = np.asarray(lap_u(xs, ys), float) - d[(2, 0)] - d[(0, 2)]
        total += float(rule.weights @ diff ** 2)
    return total


class TestConsumers:
    @given(graded_spaces, st.integers(0, 2 ** 32 - 1))
    def test_estimate_all_equals_per_cell_loop(self, case, seed):
        s = graded_space(*case)
        U = random_spline(s, np.random.default_rng(seed))
        n = s.degree + 2
        ind = estimate_all(U, SIN2.f, s.partition, n)
        records, total = estimate_per_cell(U, SIN2.f, s.partition, n)
        assert list(ind.records) == list(records)
        for c, rec in ind.records.items():
            assert (rec.eta_sq, rec.interior_sq, rec.jump1_sq,
                    rec.jump2_sq) == records[c], c
        assert ind.total_sq == total

    @given(graded_spaces)
    def test_assemble_equals_per_cell_scatter(self, case):
        s = graded_space(*case)
        modes = ["nitsche"] + (["conforming"] if conforming_indices(s)
                               else [])
        for mode in modes:
            A, b = assemble(s, SIN2.f, FormParams(mode))
            want_A, want_b = assemble_per_cell(s, SIN2.f, FormParams(mode))
            for part in ("data", "indices", "indptr"):
                got, want = getattr(A.matrix, part), getattr(want_A, part)
                assert got.tobytes() == want.tobytes(), (mode, part)
            assert b.values.tobytes() == want_b.tobytes(), mode

    @given(graded_spaces, st.integers(0, 2 ** 32 - 1))
    def test_energy_error_equals_per_cell_loop(self, case, seed):
        s = graded_space(*case)
        U = random_spline(s, np.random.default_rng(seed))
        n = s.degree + 4
        assert (energy_error_sq(SIN2.laplacian_u, U, n)
                == energy_error_per_cell(SIN2.laplacian_u, U, n))


# ---------------------------------------------------------------------------
# D4 equivariance of the indicators
# ---------------------------------------------------------------------------

def d4_images(c):
    """The eight images of a cell under the symmetries of the square."""
    m = (1 << c.level) - 1
    out = set()
    for i, j in ((c.i, c.j), (c.j, c.i)):
        for a, b in ((i, j), (m - i, j), (i, m - j), (m - i, m - j)):
            out.add(Cell(c.level, a, b))
    return out


class TestD4Equivariance:
    @pytest.mark.parametrize("mode", ["conforming", "nitsche"])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_mirror_cells_have_equal_indicators(self, degree, mode):
        """A swapped axis or derivative order in stacked trace code breaks
        the symmetry of sin2 on a symmetric mesh."""
        p = refine(uniform_partition(3), sorted(d4_images(Cell(3, 1, 2))))
        assert all(d4_images(c) <= set(p.cells) for c in p.cells)
        s = build_space(p, degree)
        params = FormParams(mode)
        A, b = assemble(s, SIN2.f, params)
        coeffs = np.zeros(s.dim)
        coeffs[list(A.positions)] = solve(A, b)
        ind = estimate_all(SplineFunction(s, coeffs), SIN2.f, p,
                           params.resolved(degree).quad_n)
        worst = 0.0
        for c, rec in ind.records.items():
            for g in d4_images(c):
                other = ind.records[g].eta_sq
                assert rec.eta_sq > 0.0
                worst = max(worst, abs(rec.eta_sq - other) / rec.eta_sq)
        assert worst <= 1e-12
