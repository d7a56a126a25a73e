"""Stacked evaluation: the kernel and its consumers equal the per-cell
loops bit for bit, and the estimator respects the square's symmetries."""

import importlib.util
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scipy.sparse import coo_matrix, csc_matrix, triu

from afem import quadrature, splines
from afem.assembly import (FormParams, _legendre_modes,
                           _monomial_poly, _spline_traces,
                           _symmetric_csr,
                           assemble, default_quad_n, energy_diff_sq,
                           energy_error_sq, energy_norm_sq, h2_seminorm_sq,
                           inconsistency_load, mesh_norm,
                           project_from_samples, project_laplacian,
                           triple_norm_matrix)
from afem.driver import (AfemConfig, IterationState, Problem,
                         discrete_reliability_probe, nitsche_energy_sq,
                         pythagoras_check, run)
from afem.estimator import dorfler_mark, estimate_all
from afem.mesh import (Cell, EdgeArrays, edge_arrays, edges, refine,
                       uniform_partition)
from afem.oracles import manufactured_sin2, random_spline
from afem.quadrature import gauss_cell, gauss_edge
from afem.solver import solve
from afem.splines import (HierarchicalSpace, SplineFunction, build_space,
                          coarse_to_fine, conforming_indices,
                          quasi_interpolant)
from test_splines import (ALL_ORDERS, graded_space, graded_spaces,
                          tables_per_order)

SIN2 = manufactured_sin2()
PROB = Problem.from_manufactured(SIN2)
LAP = [(2, 0), (0, 2)]


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
    e = s._extractions
    rows = e.rows.copy()
    rows[s._cells_at(cells)] = 1
    rows.flags.writeable = False
    s._extractions = e._replace(rows=rows)


def check_stacks(s, U, cells, X, Y, orders):
    """Every stacked item equals the one-cell path and the independent
    extraction-times-table product; each extraction size is one stack.
    Returns the stack sizes."""
    seen, sizes = [], []
    for items, index, stack in s.basis_stacks(cells, X, Y, orders):
        tabs = {o: stack(o) for o in orders}
        ks = {len(s.cell_extraction(cells[q])[0]) for q in items}
        assert len(ks) == 1 and index.shape == (len(items), ks.pop())
        assert all(T.shape[0] == len(items) for T in tabs.values())
        seen.extend(items)
        sizes.append(len(items))
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
    # one stack per extraction size, its requests in order
    by_k = {}
    for q in seen:
        by_k.setdefault(len(s.cell_extraction(cells[q])[0]), []).append(q)
    assert all(v == sorted(v) for v in by_k.values())
    assert sorted(sizes) == sorted(len(v) for v in by_k.values())

    got = U.eval_stacked(cells, X, Y, orders)
    for q, c in enumerate(cells):
        want = U.eval_batch(X[q], Y[q], orders, c)
        c_pos = U.coefficients[list(s.cell_extraction(c)[0])]
        _, tabs = s.basis_on_cell(c, X[q], Y[q], orders)
        for o in orders:
            assert got[o].shape == (len(cells), len(X[q]))
            assert np.array_equal(got[o][q], want[o]), (q, o)
            assert np.array_equal(got[o][q], c_pos @ tabs[o]), (q, o)
    return sizes


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
        """Groups of one extraction row and groups of more than 32
        requests each come out as one stack, whose items equal the
        one-cell path."""
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
        assert max(sizes.values()) > 32
        assert sorted(check_stacks(s, U, cells, X, Y, ALL_ORDERS)) == sorted(
            sizes.values())

    def test_distinct_rows_group_exactly_equal_rows(self):
        rows = np.random.default_rng(0).integers(0, 3, size=(200, 4))
        first, inv = splines._distinct_rows(rows)
        assert np.array_equal(rows[first][inv], rows)
        assert len(first) == len(np.unique(rows, axis=0))

    @given(graded_spaces, st.integers(0, 2 ** 32 - 1))
    def test_tables_exact_when_fingerprints_collide(self, case, seed):
        """Rows that share a fingerprint but differ still get their own
        tables: with every fingerprint equal, the rows' bytes decide."""
        s = graded_space(*case)
        rng = np.random.default_rng(seed)
        U = random_spline(s, rng)
        cells, X, Y = random_requests(s, rng)
        want = U.eval_stacked(cells, X, Y, ALL_ORDERS)
        original = splines._fingerprint
        splines._fingerprint = lambda width: np.zeros(width, dtype=np.uint64)
        try:
            got = U.eval_stacked(cells, X, Y, ALL_ORDERS)
        finally:
            splines._fingerprint = original
        for o in ALL_ORDERS:
            assert np.array_equal(got[o], want[o])

    def test_only_zero_orders(self):
        s = build_space(uniform_partition(2), 2)
        rng = np.random.default_rng(0)
        U = random_spline(s, rng)
        cells, X, Y = random_requests(s, rng, copies=1, n=3)
        got = U.eval_stacked(cells, X, Y, [(3, 0), (4, 0)])
        assert all(not v.any() and v.shape == (16, 3) for v in got.values())
        check_stacks(s, U, cells, X, Y, [(3, 0), (0, 4)])

    @pytest.mark.parametrize("degree", [2, 3])
    def test_empty_run_evaluates_to_nothing(self, degree):
        s = build_space(uniform_partition(2), degree)
        U = random_spline(s, np.random.default_rng(degree))
        X = Y = np.zeros((0, 4))
        assert list(s.basis_stacks([], X, Y, ALL_ORDERS)) == []
        got = U.eval_stacked([], X, Y, ALL_ORDERS)  # orders up to 4
        assert list(got) == ALL_ORDERS
        assert all(v.shape == (0, 0) for v in got.values())


# ---------------------------------------------------------------------------
# the per-cell loops the stacked consumers replace
# ---------------------------------------------------------------------------

def estimate_per_cell(U, f, p, n):
    """Per-edge jumps and per-cell residuals, one evaluation each; the
    jump that vanishes by smoothness (``[d_n lap U]`` for r = 2,
    ``[lap U]`` for r = 3, both for r >= 4) is an exact 0.0."""
    r = U.space.degree

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
        j1 = h ** 3 * float(w @ (dlap_p - dlap_m) ** 2) if r == 3 else 0.0
        j2 = h * float(w @ (lap_p - lap_m) ** 2) if r == 2 else 0.0
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


def normal_order(axis):
    return (1, 0) if axis == 0 else (0, 1)


def legendre_traces_per_edge(coef, e, d, xs, ys):
    """Trace and normal-derivative trace on one boundary edge of the
    Legendre expansion(s) ``coef`` on ``e.plus``: one product each."""
    modes_n = _legendre_modes([e.plus], d, [xs], [ys],
                              *normal_order(e.axis))[0]
    return (coef @ _legendre_modes([e.plus], d, [xs], [ys])[0],
            e.normal[e.axis] * (coef @ modes_n))


def boundary_basis(s, e, xs, ys):
    """Positions, traces and normal-derivative traces on one edge."""
    order = normal_order(e.axis)
    pos, tabs = s.basis_on_cell(e.plus, xs, ys, [(0, 0), order])
    return pos, tabs[(0, 0)], e.normal[e.axis] * tabs[order]


def projections_per_cell(cells, d, n, sample):
    """Legendre coefficients of the L2 projection of one field ``(N,)``
    or a stack ``(k, N)`` per cell: ``int P_a P_b v`` times the inverse
    mode norms ``(2a+1)(2b+1)/h^2``."""
    a = np.arange(d + 1)
    norms = np.outer(2 * a + 1, 2 * a + 1).astype(float).ravel()
    out = {}
    for cell in cells:
        rule = gauss_cell(cell, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        modes = _legendre_modes([cell], d, [xs], [ys])[0]
        vals = sample(cell, xs, ys)
        out[cell] = (((modes * rule.weights) @ vals.T).T
                     * (norms / cell.side ** 2))
    return out


def assemble_per_cell(s, f, params):
    """Volume blocks scattered cell by cell, then the boundary edge by
    edge."""
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
        d = s.degree - 2
        bdry = edges(s.partition)[1]

        def lap_basis(cell, xs, ys):
            _, tabs = s.basis_on_cell(cell, xs, ys, LAP)
            return tabs[(2, 0)] + tabs[(0, 2)]

        proj = projections_per_cell(sorted({e.plus for e in bdry}), d, n,
                                    lap_basis)
        for e in bdry:
            rule = gauss_edge(e, n)
            xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
            pos, v, vn = boundary_basis(s, e, xs, ys)
            pvals, pnvals = legendre_traces_per_edge(proj[e.plus], e, d,
                                                     xs, ys)
            h = e.length
            scatter(pos, (-((pvals * w) @ vn.T + (vn * w) @ pvals.T)
                          + ((pnvals * w) @ v.T + (v * w) @ pnvals.T)
                          + params.gamma1 * h ** -3 * (v * w) @ v.T
                          + params.gamma2 * h ** -1 * (vn * w) @ vn.T))
    return _symmetric_csr(summed_csr(*map(np.concatenate,
                                          (rows, cols, vals)), len(keep))), b


def energy_error_per_cell(lap_u, U, n):
    total = 0.0
    for cell in U.space.partition:
        rule = gauss_cell(cell, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        d = U.eval_batch(xs, ys, [(2, 0), (0, 2)], cell)
        diff = np.asarray(lap_u(xs, ys), float) - d[(2, 0)] - d[(0, 2)]
        total += float(rule.weights @ diff ** 2)
    return total


def mesh_norm_per_edge(U, sexp, normal, n):
    total = 0.0
    for e in edges(U.space.partition)[1]:
        rule = gauss_edge(e, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        if normal:
            vals = e.normal[e.axis] * U.eval_many(
                xs, ys, *normal_order(e.axis), e.plus)
        else:
            vals = U.eval_many(xs, ys, 0, 0, e.plus)
        total += e.length ** (-2.0 * sexp) * float(rule.weights @ vals ** 2)
    return total ** 0.5


def triple_norm_matrix_per_cell(s, params):
    params = params.resolved(s.degree)
    n = params.quad_n
    rows, cols, vals = [], [], []

    def scatter(pos, block):
        k = len(pos)
        rows.append(np.repeat(pos, k))
        cols.append(np.tile(pos, k))
        vals.append(block.ravel())

    for cell in s.partition:
        rule = gauss_cell(cell, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, tabs = s.basis_on_cell(cell, xs, ys, LAP)
        lap = tabs[(2, 0)] + tabs[(0, 2)]
        scatter(pos, (lap * w) @ lap.T)
    for e in edges(s.partition)[1]:
        rule = gauss_edge(e, n)
        w = rule.weights
        pos, v, vn = boundary_basis(s, e, rule.points[:, 0],
                                    rule.points[:, 1])
        h = e.length
        scatter(pos, params.gamma1 * h ** -3 * (v * w) @ v.T
                + params.gamma2 * h ** -1 * (vn * w) @ vn.T)
    return _symmetric_csr(summed_csr(*map(np.concatenate,
                                          (rows, cols, vals)), s.dim))


def inconsistency_load_per_edge(lap_u, grad_lap_u, s, n):
    d = s.degree - 2
    bdry = edges(s.partition)[1]
    proj = projections_per_cell(
        sorted({e.plus for e in bdry}), d, n,
        lambda cell, xs, ys: np.asarray(lap_u(xs, ys), float))
    g = np.zeros(s.dim)
    for e in bdry:
        rule = gauss_edge(e, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, v, vn = boundary_basis(s, e, xs, ys)
        pi_v, pi_n = legendre_traces_per_edge(proj[e.plus], e, d, xs, ys)
        lap_v = np.asarray(lap_u(xs, ys), float)
        lap_n = e.normal[e.axis] * np.asarray(grad_lap_u(xs, ys)[e.axis],
                                              float)
        g[list(pos)] += v @ (w * (pi_n - lap_n)) - vn @ (w * (pi_v - lap_v))
    return g


def nitsche_energy_per_edge(prob, U, rp, volume_sq, n):
    d = U.space.degree - 2
    bdry = edges(U.space.partition)[1]

    def lap_error(cell, xs, ys):
        lap = U.eval_batch(xs, ys, LAP, cell)
        return (np.asarray(prob.laplacian_u(xs, ys), float)
                - lap[(2, 0)] - lap[(0, 2)])

    proj = projections_per_cell(sorted({e.plus for e in bdry}), d, n,
                                lap_error)
    total = volume_sq
    for e in bdry:
        rule = gauss_edge(e, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pi_v, pi_n = legendre_traces_per_edge(proj[e.plus], e, d, xs, ys)
        order = normal_order(e.axis)
        tr = U.eval_batch(xs, ys, [(0, 0), order], e.plus)
        ev = -tr[(0, 0)]
        en = -(e.normal[e.axis] * tr[order])
        h = e.length
        total += float(w @ (-2.0 * pi_v * en + 2.0 * pi_n * ev
                            + rp.gamma1 * h ** -3 * ev ** 2
                            + rp.gamma2 * h ** -1 * en ** 2))
    return total


def project_laplacian_per_cell(U, n):
    r = U.space.degree

    def lap(cell, xs, ys):
        d = U.eval_batch(xs, ys, LAP, cell)
        return d[(2, 0)] + d[(0, 2)]

    p = U.space.partition
    return _monomial_poly(p, r - 2, projections_per_cell(p, r - 2, n, lap))


def energy_norm_per_cell(U, n):
    total = 0.0
    for cell in U.space.partition:
        rule = gauss_cell(cell, n)
        d = U.eval_batch(rule.points[:, 0], rule.points[:, 1], LAP, cell)
        lap = d[(2, 0)] + d[(0, 2)]
        total += float(rule.weights @ lap ** 2)
    return total


def h2_seminorm_per_cell(U, cells, n):
    total = 0.0
    for cell in cells:
        rule = gauss_cell(cell, n)
        d = U.eval_batch(rule.points[:, 0], rule.points[:, 1],
                         [(2, 0), (1, 1), (0, 2)], cell)
        total += float(rule.weights @ (d[(2, 0)] ** 2 + 2.0 * d[(1, 1)] ** 2
                                       + d[(0, 2)] ** 2))
    return total


def energy_diff_per_cell(fine, coarse, n):
    total = 0.0
    for cell in fine.space.partition:
        (owner,) = coarse.space.partition.owners([cell])
        rule = gauss_cell(cell, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        df = fine.eval_batch(xs, ys, LAP, cell)
        dc = coarse.eval_batch(xs, ys, LAP, owner)
        diff = df[(2, 0)] + df[(0, 2)] - dc[(2, 0)] - dc[(0, 2)]
        total += float(rule.weights @ diff ** 2)
    return total


def pythagoras_per_cell(lap_u, Uc, Uf, grid, n):
    lhs = e_coarse = diff = 0.0
    for cell in grid:
        rule = gauss_cell(cell, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        lap = np.asarray(lap_u(xs, ys), float)
        df = Uf.eval_batch(xs, ys, LAP, Uf.space.partition.owners([cell])[0])
        dc = Uc.eval_batch(xs, ys, LAP, Uc.space.partition.owners([cell])[0])
        lap_f = df[(2, 0)] + df[(0, 2)]
        lap_c = dc[(2, 0)] + dc[(0, 2)]
        lhs += float(w @ (lap - lap_f) ** 2)
        e_coarse += float(w @ (lap - lap_c) ** 2)
        diff += float(w @ (lap_f - lap_c) ** 2)
    return lhs, e_coarse - diff


def solution_jump_per_edge(fine, coarse, rp):
    """Volume term, then the boundary penalties added edge by edge."""
    total = energy_diff_per_cell(fine, coarse,
                                 default_quad_n(fine.space.degree))
    for e in edges(fine.space.partition)[1]:
        rule = gauss_edge(e, rp.quad_n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        orders = [(0, 0), normal_order(e.axis)]
        df = fine.eval_batch(xs, ys, orders, e.plus)
        dc = coarse.eval_batch(xs, ys, orders,
                               coarse.space.partition.owners([e.plus])[0])
        dv = df[(0, 0)] - dc[(0, 0)]
        dn = e.normal[e.axis] * (df[orders[1]] - dc[orders[1]])
        total += float(w @ (rp.gamma1 * e.length ** -3 * dv ** 2
                            + rp.gamma2 * e.length ** -1 * dn ** 2))
    return total


def coarse_to_fine_per_cell(fn, fine):
    """The L2 transfer with one rule, one basis table and one evaluation
    of ``fn`` per fine cell, scattered cell by cell."""
    n = fine.degree + 3
    rhs = np.zeros(fine.dim)
    rows, cols, vals = [], [], []
    for c in fine.partition:
        rule = gauss_cell(c, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, tabs = fine.basis_on_cell(c, xs, ys, [(0, 0)])
        V = tabs[(0, 0)]
        fvals = fn.eval_many(xs, ys, 0, 0, fn.space.partition.owners([c])[0])
        rhs[list(pos)] += V @ (w * fvals)
        block = (V * w) @ V.T
        k = len(pos)
        rows.extend(np.repeat(pos, k))
        cols.extend(np.tile(pos, k))
        vals.extend(block.ravel())
    M = coo_matrix((vals, (rows, cols)), shape=(fine.dim, fine.dim)).tocsc()
    return solve(M, rhs)


def summed_csr(rows, cols, vals, dim):
    """COO triplets summed into CSR by scipy: the reference route of the
    entries that ``splines._Entries`` writes in CSR order."""
    return coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def symmetric_csr_by_sparse_sum(A):
    """The mirror as the sparse sum ``triu(A) + triu(A, 1).T``."""
    return (triu(A, k=0) + triu(A, k=1).T).tocsr()


class TestSymmetricCsr:
    @pytest.mark.parametrize("mode", ["conforming", "nitsche"])
    def test_equals_the_sparse_sum_on_assembled_blocks(self, mode,
                                                       monkeypatch):
        from afem import assembly
        seen = []
        original = assembly._symmetric_csr

        def both(A):
            got = original(A)
            same_csr(got, symmetric_csr_by_sparse_sum(A))
            seen.append(A.shape[0])
            return got

        monkeypatch.setattr(assembly, "_symmetric_csr", both)
        run(AfemConfig(degree=2, mode=mode, max_dofs=150), PROB)
        assert len(seen) > 1

    def test_entries_summing_to_zero_are_dropped(self):
        rows = np.array([0, 0, 1, 0, 1, 2, 2, 0])
        cols = np.array([0, 1, 1, 1, 0, 2, 0, 2])
        vals = np.array([2.0, 1.5, 3.0, -1.5, 7.0, 1.0, 0.0, -0.0])
        A = summed_csr(rows, cols, vals, 3)
        got = _symmetric_csr(A)
        same_csr(got, symmetric_csr_by_sparse_sum(A))
        assert got.nnz == 3 and (got != got.T).nnz == 0

    @given(st.integers(1, 6).flatmap(lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                           st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0,
                                            0.5, 1.0, 2.0])),
                 max_size=40),
        st.sampled_from([np.int32, np.int64]))))
    def test_mirror_equals_the_sparse_sum_byte_for_byte(self, case):
        """Duplicates, entries that cancel to an exact zero, empty rows,
        rows with only lower entries, ``dim`` 1 and no triplets at all:
        the sort-free mirror is the sparse sum's bytes."""
        dim, triplets, itype = case
        rows, cols, vals = (np.array([t[k] for t in triplets], dtype=d)
                            for k, d in enumerate((itype, itype, float)))
        A = summed_csr(rows, cols, vals, dim)
        got = _symmetric_csr(A)
        same_csr(got, symmetric_csr_by_sparse_sum(A))
        assert got.indptr.dtype == got.indices.dtype == np.int32


@st.composite
def writer_cases(draw):
    """A fake space's extraction rows and positions, an ``imap`` that
    leaves positions out (-1), the requests (cells, with repeats) and a
    Gram block and load per request."""
    n = draw(st.integers(1, 7))
    kmax = draw(st.integers(1, min(n, 4)))
    ncells = draw(st.integers(1, 4))
    rows = np.array(draw(st.lists(st.integers(0, kmax), min_size=ncells,
                                  max_size=ncells)))
    # distinct positions per cell, as an extraction's rows are
    positions = np.array([draw(st.permutations(range(n)))[:kmax]
                          for _ in range(ncells)])
    positions[np.arange(kmax) >= rows[:, None]] = 0
    keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    imap = np.full(n, -1)
    imap[keep] = draw(st.permutations(range(int(keep.sum()))))
    cells = np.array(draw(st.lists(st.integers(0, ncells - 1), max_size=6)),
                     dtype=np.intp)
    # sums of these round differently in different orders
    value = st.sampled_from([-1e16, -1.0, -0.0, 0.0, 0.1, 1.0 / 3, 1.0,
                             1e16])
    ks = rows[cells].tolist()
    blocks = [np.reshape(draw(st.lists(value, min_size=k * k,
                                       max_size=k * k)), (k, k)) for k in ks]
    loads = [np.array(draw(st.lists(value, min_size=k, max_size=k)))
             for k in ks]
    return rows, positions, imap, cells, blocks, loads


class TestEntries:
    @given(writer_cases())
    def test_csr_order_equals_the_summed_triplets_byte_for_byte(self, case):
        """The writer's unsummed CSR is the per-request triplets placed
        by a stable counting pass by row; summed, it is scipy's sum of
        those triplets byte for byte, and its transposed blocks give
        their CSC; its loads are the triplets' loads in order."""
        rows, positions, imap, cells, blocks, loads = case
        s = SimpleNamespace(_extractions=SimpleNamespace(
            rows=rows, positions=positions))
        dim = int(np.count_nonzero(imap >= 0))
        gram = splines._Entries(s, imap, cells)
        moved = splines._Entries(s, imap, cells)
        load = splines._Entries(s, imap, cells, pairs=False)
        for k, items in splines._groups(rows[cells]):
            index = positions[cells[items], :k]
            block = np.reshape([blocks[q] for q in items], (len(items), k, k))
            gram.put(items, index, block)
            moved.put(items, index, block.transpose(0, 2, 1))
            load.put(items, index,
                     np.reshape([loads[q] for q in items], (len(items), k)))
        want = [], [], [], [], []
        for q, c in enumerate(cells):
            at = imap[positions[c, :rows[c]]]
            live = at >= 0
            sub = at[live]
            want[0].append(np.repeat(sub, len(sub)))
            want[1].append(np.tile(sub, len(sub)))
            want[2].append(blocks[q][np.ix_(live, live)].ravel())
            want[3].append(sub)
            want[4].append(loads[q][live])
        r, c, v, lr, lv = (np.concatenate(w + [[]]) for w in want)
        r, c, lr = (a.astype(np.int32) for a in (r, c, lr))
        # unsummed: each row's entries in request order, as a stable
        # counting pass by row places the triplets
        order = np.argsort(r, kind="stable")
        assert gram.cols[:-1].tobytes() == c[order].tobytes()
        assert gram.vals[:-1].tobytes() == v[order].tobytes()
        assert np.array_equal(gram.indptr, np.searchsorted(
            r[order], np.arange(dim + 1)))
        triplets = (v, (r, c))
        same_csr(gram.matrix(), coo_matrix(triplets, shape=(dim, dim))
                 .tocsr())
        same_csr(moved.matrix(csc_matrix),
                 coo_matrix(triplets, shape=(dim, dim)).tocsc())
        got_rows, got_loads = load.entries()
        assert got_rows.tobytes() == lr.tobytes()
        assert got_loads.tobytes() == lv.tobytes()


class TestMemoryBound:
    """``tracemalloc`` counts repeat exactly, so these bounds are
    deterministic."""

    @staticmethod
    def traced_peak(fn) -> int:
        """Bytes that ``fn()`` holds at its peak above what it starts
        with."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_eval_stacked_holds_one_order_at_a_time(self):
        """Three live orders on one group ``(B, k, n)`` peak below two
        stacks: each stack is multiplied and dropped before the next is
        formed (all three at once peaked at 4.4 stacks)."""
        p = uniform_partition(1)
        for _ in range(8):
            p = refine(p, [p.find_cell(0.3, 0.3)])
        s = build_space(p, 2)
        q = int(np.argmax(s._extractions.rows))
        cell, k = p.cells[q], int(s._extractions.rows[q])
        B, n = 256, 64
        x0, x1, y0, y1 = cell.bounds
        X = np.tile(np.linspace(x0, x1, n), (B, 1))
        Y = np.tile(np.linspace(y0, y1, n), (B, 1))
        U = random_spline(s, np.random.default_rng(0))
        orders = [(2, 0), (1, 1), (0, 2)]
        want = U.eval_stacked([cell] * B, X, Y, orders)  # fills the tables
        peak = self.traced_peak(
            lambda: U.eval_stacked([cell] * B, X, Y, orders))
        assert k == 24
        assert peak < 2 * B * k * n * 8
        got = U.eval_stacked([cell] * B, X, Y, orders)
        assert all(np.array_equal(got[o], want[o]) for o in orders)

    def test_assemble_holds_its_entries_once(self, monkeypatch):
        """Nitsche r=3 on ``uniform_partition(5)`` peaks below 24 B per
        Gram entry plus the CSR result: the entries are written once, in
        CSR order (int32 column, float64 value, 12 B), and summed in
        place, where COO triplets and their unsummed CSR copy took 28 B.
        Runs of 64 cells keep the run's stacks small beside the entries,
        which then set the peak."""
        monkeypatch.setattr(quadrature, "_BLOCK_POINTS", 64 * 36)
        s = build_space(uniform_partition(5), 3)
        params = FormParams(mode="nitsche")
        rows = s._extractions.rows
        _, bdry = edge_arrays(s.partition)
        entries = int((rows ** 2).sum() + (rows[bdry.plus] ** 2).sum())
        want, _ = assemble(s, SIN2.f, params)
        peak = self.traced_peak(lambda: assemble(s, SIN2.f, params))
        A = want.matrix
        assert entries == 1024 * 256 + 128 * 256
        assert peak < 24 * entries + (A.data.nbytes + A.indices.nbytes
                                     + A.indptr.nbytes)


def count_rules(monkeypatch):
    """Requests given to ``quadrature._rules``: ``{"cell": k, "edge": k}``."""
    counts = {"cell": 0, "edge": 0}
    original = quadrature._rules

    def counting(requests, n):
        edge = isinstance(requests, EdgeArrays)
        counts["edge" if edge else "cell"] += len(requests)
        return original(requests, n)

    monkeypatch.setattr(quadrature, "_rules", counting)
    return counts


def count_calls(monkeypatch, owner, name, calls):
    """Count the calls of ``owner.name`` in ``calls[name]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def same_poly(got, want):
    """Equal cellwise polynomials on the same partition, with the cells
    in the same order."""
    assert got.partition is want.partition
    assert list(got.coeffs) == list(want.coeffs)
    for c, a in got.coeffs.items():
        assert a.tobytes() == want.coeffs[c].tobytes(), c


def same_csr(got, want):
    for part in ("data", "indices", "indptr"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


def nested_pair(degree, truncated):
    """A graded space, a space on a refinement of it, and a random spline
    on each."""
    p = refine(uniform_partition(2), [Cell(2, 1, 1), Cell(2, 3, 0)])
    p = refine(p, [Cell(3, 2, 2), Cell(3, 7, 1), Cell(3, 6, 0)])
    fine_p = refine(p, p.cells[::4])
    rng = np.random.default_rng(10 * degree + truncated)
    coarse = random_spline(build_space(p, degree, truncated), rng)
    fine = random_spline(build_space(fine_p, degree, truncated), rng)
    return coarse, fine


def iteration_states(splines, n):
    """A conforming :class:`IterationState` of each spline, with its
    indicators on an ``n``-point rule."""
    states = []
    for U in splines:
        ind = estimate_all(U, SIN2.f, n)
        states.append(IterationState(
            U.space.partition, U.space, U, ind, dorfler_mark(ind, 0.5),
            None, None, FormParams("conforming")))
    return states


SPACES = [(r, t) for r in (2, 3, 4) for t in (True, False)]


class TestConsumers:
    @given(graded_spaces, st.integers(0, 2 ** 32 - 1))
    def test_estimate_all_equals_per_cell_loop(self, case, seed):
        s = graded_space(*case)
        U = random_spline(s, np.random.default_rng(seed))
        n = s.degree + 2
        ind = estimate_all(U, SIN2.f, n)
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


@pytest.mark.parametrize("degree,truncated", SPACES)
class TestPortedConsumers:
    """Every boundary term, norm, projection and iterate comparison equals
    the per-cell (per-edge) loop it replaces, bit for bit."""

    def test_boundary_terms(self, degree, truncated):
        U, _ = nested_pair(degree, truncated)
        s = U.space
        rp = FormParams("nitsche").resolved(degree)
        n = rp.quad_n
        for sexp, normal in ((1.5, False), (0.5, True)):
            assert (mesh_norm(U, sexp, s.partition, normal, n)
                    == mesh_norm_per_edge(U, sexp, normal, n))
        A, b = assemble(s, SIN2.f, FormParams("nitsche"))
        want_A, want_b = assemble_per_cell(s, SIN2.f, FormParams("nitsche"))
        same_csr(A.matrix, want_A)
        assert b.values.tobytes() == want_b.tobytes()
        same_csr(triple_norm_matrix(s, rp),
                 triple_norm_matrix_per_cell(s, rp))
        # sin2 has a zero normal derivative of lap u on the boundary
        lap = lambda x, y: np.exp(x) * np.cos(3.0 * y)
        grad = lambda x, y: (lap(x, y), -3.0 * np.exp(x) * np.sin(3.0 * y))
        got = inconsistency_load(lap, grad, s, n)
        assert got.tobytes() == inconsistency_load_per_edge(lap, grad, s,
                                                            n).tobytes()
        # small penalties, so the projection terms show in the last bits
        weak = FormParams("nitsche", 1e-3, 1e-3).resolved(degree)
        assert (nitsche_energy_sq(PROB, U, weak, 0.375)
                == nitsche_energy_per_edge(PROB, U, weak, 0.375, n + 2))

    def test_projections_and_norms(self, degree, truncated):
        U, _ = nested_pair(degree, truncated)
        p = U.space.partition
        n = degree + 3
        exact = default_quad_n(degree)  # the spline-only integrals' rule
        same_poly(project_laplacian(U), project_laplacian_per_cell(U, exact))
        same_poly(project_from_samples(p, SIN2.f, degree - 1, n),
                  _monomial_poly(p, degree - 1, projections_per_cell(
                      p, degree - 1, n,
                      lambda cell, xs, ys: np.asarray(SIN2.f(xs, ys),
                                                      float))))
        cells = p.cells[::-3]
        assert energy_norm_sq(U) == energy_norm_per_cell(U, exact)
        assert h2_seminorm_sq(U) == h2_seminorm_per_cell(U, p, exact)
        assert (h2_seminorm_sq(U, cells)
                == h2_seminorm_per_cell(U, cells, exact))

    def test_iterate_comparisons(self, degree, truncated):
        coarse, fine = nested_pair(degree, truncated)
        n = degree + 2
        assert (energy_diff_sq(fine, coarse) == energy_diff_per_cell(
            fine, coarse, default_quad_n(degree)))
        states = iteration_states((coarse, fine), n)
        for a, b in (states, states[::-1]):  # either way, on the fine grid
            lhs, rhs, _ = pythagoras_check(PROB, a, b, n)
            assert (lhs, rhs) == pythagoras_per_cell(
                SIN2.laplacian_u, a.solution, b.solution,
                fine.space.partition, n)
        rp = FormParams("conforming").resolved(degree)
        got = discrete_reliability_probe(*states)["solution_jump_sq"]
        assert got == solution_jump_per_edge(fine, coarse, rp)

    def test_probe_builds_each_edge_rule_once(self, degree, truncated,
                                              monkeypatch):
        """One boundary pass evaluates both iterates."""
        coarse, fine = nested_pair(degree, truncated)
        states = iteration_states((coarse, fine), degree + 2)
        rules = count_rules(monkeypatch)
        discrete_reliability_probe(*states)
        assert rules["edge"] == len(edges(fine.space.partition)[1])

    def test_spline_traces_are_stacked_values(self, degree, truncated):
        """Spline traces per run equal the stacked values on each edge's
        cell, with the normal's sign, on each edge's own rule."""
        _, fine = nested_pair(degree, truncated)
        n = degree + 2
        bdry = edges(fine.space.partition)[1]
        rules = [gauss_edge(e, n) for e in bdry]
        X = [r.points[:, 0] for r in rules]
        Y = [r.points[:, 1] for r in rules]
        d = fine.eval_stacked([e.plus for e in bdry], X, Y,
                              [(0, 0), (1, 0), (0, 1)])
        got = list(_spline_traces(fine, edge_arrays(fine.space.partition)[1],
                                  n))
        assert [e for es, *_ in got for e in es.edges()] == bdry
        q = 0
        for es, Xr, Yr, W, V, VN in got:
            for x, y, w, v, vn in zip(Xr, Yr, W, V, VN):
                e = bdry[q]
                assert x.tobytes() == X[q].tobytes() and x.strides == (16,)
                assert y.tobytes() == Y[q].tobytes()
                assert w.tobytes() == rules[q].weights.tobytes()
                assert np.array_equal(v, d[(0, 0)][q])
                assert np.array_equal(
                    vn, e.normal[e.axis] * d[normal_order(e.axis)][q])
                q += 1
        assert q == len(bdry)

    def test_coarse_to_fine(self, degree, truncated, monkeypatch):
        coarse, fine = nested_pair(degree, truncated)
        want = [coarse_to_fine_per_cell(coarse, s)
                for s in (fine.space, coarse.space)]
        calls = {"basis_on_cell": 0, "eval_batch": 0}
        count_calls(monkeypatch, HierarchicalSpace, "basis_on_cell", calls)
        count_calls(monkeypatch, SplineFunction, "eval_batch", calls)
        for s, w in zip((fine.space, coarse.space), want):
            assert np.array_equal(coarse_to_fine(coarse, s).coefficients, w)
        assert calls == {"basis_on_cell": 0, "eval_batch": 0}


def test_requests_hand_out_arrays(monkeypatch):
    """A pass sees each run's points, weights and samples as ``(R, N)``
    arrays, a point row strided as a rule's ``points[:, 0]``, and no
    rule object is built.  The 256 cells of 9 points are one run at the
    default budget, and runs of 100 at a budget of 908 points."""
    cells = uniform_partition(4).cells
    rules = [gauss_cell(c, 3) for c in cells]
    monkeypatch.setattr(quadrature, "QuadratureRule", None)
    f = lambda x, y: x + 2.0 * y  # noqa: E731
    assert [lo for lo, *_ in quadrature._requests(cells, 3, f)] == [0]
    monkeypatch.setattr(quadrature, "_BLOCK_POINTS", 908)
    runs = list(quadrature._requests(cells, 3, f))
    assert [lo for lo, *_ in runs] == [0, 100, 200]
    for lo, run, X, Y, W, F in runs:
        assert run == cells[lo:lo + len(run)]
        assert X.shape == Y.shape == W.shape == F.shape == (len(run), 9)
        for q, rule in enumerate(rules[lo:lo + len(run)]):
            assert X[q].strides == rule.points[:, 0].strides
            assert X[q].tobytes() == rule.points[:, 0].tobytes()
            assert Y[q].tobytes() == rule.points[:, 1].tobytes()
            assert W[q].tobytes() == rule.weights.tobytes()
            assert np.array_equal(F[q], X[q] + 2.0 * Y[q])


def test_stacked_calls_take_at_most_one_run(monkeypatch):
    """Every ``basis_stacks`` call of a pass takes at most one run of
    ``_requests`` (the edge jumps: its two sides), also in
    ``coarse_to_fine`` and the dual functionals on spaces of more cells.
    At the default budget each of these passes is one run; at a budget
    of 128 edges of 6 points the jump pass takes runs of 128 edges."""
    sizes = []
    original = HierarchicalSpace.basis_stacks

    def recording(self, cells, X, Y, orders):
        sizes.append(len(cells))
        return original(self, cells, X, Y, orders)

    monkeypatch.setattr(HierarchicalSpace, "basis_stacks", recording)
    run(AfemConfig(degree=2, max_dofs=400), PROB)
    assert max(sizes) == 2684  # both sides of the last 1,342 interior edges
    p = uniform_partition(4)
    coarse = random_spline(build_space(p, 2), np.random.default_rng(0))
    fine = build_space(refine(p, [Cell(4, 3, 3)]), 2)
    sizes.clear()
    coarse_to_fine(coarse, fine)
    quasi_interpolant(fine, SIN2.u)
    # the coarse spline on the owners, the fine basis, the dual functionals
    assert sizes == [len(fine.partition)] * 3 == [259] * 3
    monkeypatch.setattr(quadrature, "_BLOCK_POINTS", 128 * 6)
    sizes.clear()
    run(AfemConfig(degree=2, max_dofs=400), PROB)
    assert max(sizes) == 256


def test_energy_diff_of_swapped_iterates_names_first_subdivided_cell():
    """The coarse spline is evaluated on the owners of each run of fine
    cells; on swapped iterates the error names the first coarse cell
    that the other partition subdivides, as one lookup over all would."""
    coarse, fine = nested_pair(2, True)
    fine_p = fine.space.partition
    first = next(c for c in coarse.space.partition if c not in fine_p)
    with pytest.raises(ValueError, match=f"^{re.escape(str(first))} is "
                                         "subdivided in the partition"):
        energy_diff_sq(coarse, fine)


def _benchmark_workloads():
    """The benchmark's workload definitions, loaded from its directory."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()
RUNS = [*WORKLOADS.NAMES, "sin2-nitsche-track"]


@pytest.mark.parametrize("name", RUNS)
def test_run_makes_no_one_cell_calls(name, monkeypatch):
    """The adaptive loop evaluates only through the stacked kernel."""
    if name == "sin2-nitsche-track":
        cfg, prob = AfemConfig(degree=2, mode="nitsche", max_dofs=150,
                               track_inconsistency=True), PROB
    else:
        cfg, prob = WORKLOADS.build(name, 0)
    calls = {"basis_on_cell": 0, "eval_batch": 0}

    def counted(cls, method):
        original = getattr(cls, method)

        def wrapper(*args, **kwargs):
            calls[method] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    counted(HierarchicalSpace, "basis_on_cell")
    counted(SplineFunction, "eval_batch")
    records = run(cfg, prob)
    assert len(records) > 1
    if cfg.track_inconsistency:
        assert all(r.inconsistency_sup is not None for r in records)
    assert calls == {"basis_on_cell": 0, "eval_batch": 0}


SIN2_CONF_R4 = (AfemConfig(degree=4, theta=0.5, initial_levels=2,
                           max_dofs=150), PROB)


@pytest.mark.parametrize("name,count", [("sin2-conf-r2", 2104),
                                        ("sin2-nitsche-r3", 1359),
                                        ("peak-conf-r2", 2227),
                                        ("sin2-conf-r4", 0)])
def test_run_builds_each_edge_rule_once_per_pass(name, count, monkeypatch):
    """Per iteration: one rule per interior edge for the jumps, none at
    r >= 4, where both jumps vanish by smoothness.  A conforming record
    makes no boundary pass (its traces are exact zeros); Nitsche adds one
    rule per boundary edge for the boundary assembly, the two boundary
    norms of the record and the error's boundary terms."""
    rules = count_rules(monkeypatch)
    cfg, prob = (SIN2_CONF_R4 if name == "sin2-conf-r4"
                 else WORKLOADS.build(name, 0))
    passes = 3 if cfg.mode == "nitsche" else 0
    want = []

    def on_iteration(state):
        interior, bdry = edges(state.partition)
        want.append(len(interior) * (cfg.degree < 4) + passes * len(bdry))

    run(cfg, prob, on_iteration)
    assert rules["edge"] == sum(want) == count


@pytest.mark.parametrize("name,count", [("sin2-conf-r2", 3219),
                                        ("sin2-nitsche-r3", 1599),
                                        ("peak-conf-r2", 2218)])
def test_run_builds_each_cell_rule_once_per_pass(name, count, monkeypatch):
    """Per iteration: one rule per cell for the volume assembly, the
    interior residual (whose rule also serves the oscillation of the new
    cells) and, with an exact solution, the energy error; Nitsche adds
    one per boundary cell for each of the two projected Laplacians."""
    rules = count_rules(monkeypatch)
    cfg, prob = WORKLOADS.build(name, 0)
    passes = 3 if prob.has_exact else 2
    want = []

    def on_iteration(state):
        want.append(passes * len(state.partition))
        if cfg.mode == "nitsche":
            want[-1] += 2 * len({e.plus for e in edges(state.partition)[1]})

    run(cfg, prob, on_iteration)
    assert rules["cell"] == sum(want) == count


@pytest.mark.parametrize("name", [*WORKLOADS.NAMES,
                                  "sin2-conf-r3-untruncated"])
def test_records_do_not_depend_on_the_run_budget(name, monkeypatch):
    """``run()`` gives the same records when every run of ``_requests``
    is one request (a budget of one point) as at the default budget, and
    every run holds at most the budget's points unless one request alone
    exceeds it."""
    if name == "sin2-conf-r3-untruncated":
        cfg, prob = AfemConfig(degree=3, max_dofs=300, truncated=False), PROB
    else:
        cfg, prob = WORKLOADS.build(name, 0)
    shapes = []
    original = quadrature._rules

    def recording(requests, n):
        P, W = original(requests, n)
        shapes.append(W.shape)
        return P, W

    monkeypatch.setattr(quadrature, "_rules", recording)
    records = repr(run(cfg, prob))
    assert max(R * N for R, N in shapes) <= quadrature._BLOCK_POINTS
    shapes.clear()
    monkeypatch.setattr(quadrature, "_BLOCK_POINTS", 1)
    assert repr(run(cfg, prob)) == records
    assert {R for R, _ in shapes} == {1}


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
        ind = estimate_all(SplineFunction(s, coeffs), SIN2.f,
                           params.resolved(degree).quad_n)
        worst = 0.0
        for c, rec in ind.records.items():
            for g in d4_images(c):
                other = ind.records[g].eta_sq
                assert rec.eta_sq > 0.0
                worst = max(worst, abs(rec.eta_sq - other) / rec.eta_sq)
        assert worst <= 1e-12
