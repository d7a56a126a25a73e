"""Hierarchical spline spaces: selection, evaluation, duals, transfer."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import legendre as npleg
from scipy.sparse import coo_matrix

from afem import splines
from afem.assembly import _legendre_modes, _legendre_tables, _local_coords
from afem.mesh import Cell, edge_arrays, edges, refine, uniform_partition
from afem.oracles import (exact_two_scale_matrix, kraft_selection_bruteforce,
                          random_spline, scipy_univariate_ders)
from afem.splines import (DualFunctionalSet, SplineFunction, bspline_ders,
                          build_space, coarse_to_fine, conforming_indices,
                          knot_vector, load_solution, num_functions,
                          quasi_interpolant, save_solution, span_class,
                          two_scale_matrix, _two_scale_block)
from afem.quadrature import _requests, gauss_cell, gauss_points_1d
from afem.solver import solve


def graded_7cell():
    return refine(uniform_partition(1), [Cell(1, 0, 0)])


class TestUnivariate:
    @pytest.mark.parametrize("level,degree", [(0, 2), (1, 2), (2, 3), (3, 4)])
    def test_ders_match_scipy(self, level, degree):
        rng = np.random.default_rng(level * 10 + degree)
        t = np.asarray(knot_vector(level, degree))
        m = 1 << level
        for x in rng.uniform(0.0, 1.0, 12):
            span = min(int(x * m), m - 1)
            d = bspline_ders(t, degree, span + degree, float(x), 4)
            for j in range(degree + 1):
                idx = span + j
                for k in range(min(4, degree) + 1):
                    ref = scipy_univariate_ders(level, degree, idx, float(x), k)
                    assert d[k, j] == pytest.approx(ref, abs=1e-11, rel=1e-11)

    def test_orders_beyond_degree_vanish(self):
        t = np.asarray(knot_vector(1, 2))
        d = bspline_ders(t, 2, 2, 0.3, 4)
        assert np.all(d[3:] == 0.0)

    def test_two_scale_reproduces_functions(self):
        rng = np.random.default_rng(3)
        for level, degree in [(0, 2), (1, 3), (2, 2)]:
            P = np.asarray(two_scale_matrix(level, degree))
            assert P.shape == (num_functions(level + 1, degree),
                               num_functions(level, degree))
            c = rng.standard_normal(num_functions(level, degree))
            cf = P @ c
            for x in rng.uniform(0.0, 1.0, 20):
                coarse = sum(
                    c[i] * scipy_univariate_ders(level, degree, i, float(x), 0)
                    for i in range(len(c)))
                fine = sum(
                    cf[i] * scipy_univariate_ders(level + 1, degree, i,
                                                  float(x), 0)
                    for i in range(len(cf)))
                assert coarse == pytest.approx(fine, abs=1e-12)


def dense_two_scale_loop(level, degree):
    """The two-scale matrix as one dense single-knot insertion matrix per
    midpoint, multiplied up in floating point."""
    t = np.asarray(knot_vector(level, degree))
    m = 1 << level
    P = np.eye(num_functions(level, degree))
    for x in (2 * np.arange(m) + 1) / (2 * m):
        n = len(t) - degree - 1
        k = int(np.searchsorted(t, x, side="right")) - 1
        A = np.zeros((n + 1, n))
        for i in range(n + 1):
            if i <= k - degree:
                A[i, i] = 1.0
            elif i <= k:
                alpha = (x - t[i]) / (t[i + degree] - t[i])
                A[i, i] = alpha
                A[i, i - 1] = 1.0 - alpha
            else:
                A[i, i - 1] = 1.0
        P = A @ P
        t = np.insert(t, k + 1, x)
    return P


class TestTwoScaleBlocks:
    """Span-class blocks against exact and dense constructions."""

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_matrix_equals_exact_oracle(self, degree):
        for level in range(6):
            P = two_scale_matrix(level, degree)
            assert np.array_equal(P, exact_two_scale_matrix(level, degree))
            assert not P.flags.writeable

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_exactly_centrosymmetric(self, degree):
        for level in range(7):
            P = two_scale_matrix(level, degree)
            assert np.array_equal(P, P[::-1, ::-1])
        r = degree
        for a in range(r + 1):
            for b in range(r + 1):
                for parity in (0, 1):
                    assert np.array_equal(
                        _two_scale_block(r, a, b, parity),
                        _two_scale_block(r, b, a, 1 - parity)[::-1, ::-1])

    @pytest.mark.parametrize("degree", [2, 3])
    def test_bit_identical_to_dense_loop_for_dyadic_degrees(self, degree):
        for level in range(8):
            assert np.array_equal(two_scale_matrix(level, degree),
                                  dense_two_scale_loop(level, degree))

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_blocks_are_the_matrix_windows(self, degree):
        w = degree + 1
        for level in range(5):
            P = two_scale_matrix(level, degree)
            for child in range(2 << level):
                s = child // 2
                assert np.array_equal(
                    P[child:child + w, s:s + w],
                    _two_scale_block(degree, *span_class(level, s, degree),
                                     child % 2))


def span_points(level: int, span: int) -> np.ndarray:
    """Points of a span as the code builds them: both endpoints, a cell
    rule, and edge rules on the halves of the span (the half-edges a
    finer neighbour gives a coarser cell)."""
    m = 1 << level
    lo, hi = span / m, (span + 1) / m
    mid = (span + 0.5) / m
    return np.concatenate([[lo, hi], gauss_points_1d(lo, hi, 4)[0],
                           gauss_points_1d(lo, mid, 3)[0],
                           gauss_points_1d(mid, hi, 3)[0]])


def scipy_span_ders(level: int, degree: int, span: int, idx: int, x: float,
                    order: int) -> float:
    """One-sided derivative of the span's polynomial piece via scipy.

    Orders below the degree are continuous at the span's knots; the
    degree-th derivative is constant on the span and higher ones vanish,
    so those are taken at the span midpoint.
    """
    if order >= degree:
        x = (span + 0.5) / (1 << level)
    return scipy_univariate_ders(level, degree, idx, x, order)


def univariate(s, level: int, span: int, xs, max_order: int = 4):
    """The scaled table ``(max_order+1, r+1, len(xs))`` of one row, through
    ``HierarchicalSpace._tables``."""
    T, at = s._tables(np.array([level]), np.array([span]),
                      np.array(xs, dtype=float)[None], max_order)
    return T[:, at[0]]


def counting_ders(monkeypatch) -> list:
    """The ``(rows, points)`` of every ``bspline_ders`` array pass that
    fills tables, recorded as they come."""
    calls = []

    def counting(knots, degree, span, x, n_ders):
        calls.append(np.shape(x))
        return bspline_ders(knots, degree, span, x, n_ders)

    monkeypatch.setattr(splines, "bspline_ders", counting)
    return calls


def span_class_representatives(level: int, degree: int) -> list[int]:
    m = 1 << level
    return sorted(set(range(min(m, degree + 1)))
                  | set(range(max(0, m - degree - 1), m)) | {m // 2})


class TestReferenceTables:
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_univariate_matches_scipy_on_every_span_class(self, degree):
        s = build_space(uniform_partition(0), degree)
        for level in range(7):
            m = 1 << level
            spans = span_class_representatives(level, degree)
            assert {span_class(level, i, degree) for i in spans} == \
                {span_class(level, i, degree) for i in range(m)}
            for span in spans:
                xs = span_points(level, span)
                tab = univariate(s, level, span, xs)
                for k in range(5):
                    for j in range(degree + 1):
                        ref = [scipy_span_ders(level, degree, span, span + j,
                                               float(x), k) for x in xs]
                        assert np.allclose(tab[k, j], ref, rtol=0.0,
                                           atol=1e-12 * float(m) ** k), \
                            (level, span, k, j)

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_basis_on_cell_matches_scipy_tensor_products(self, degree):
        orders = [(0, 0), (1, 0), (0, 2), (1, 1), (3, 1), (0, 4), (2, 2)]
        for level in range(4):
            m = 1 << level
            s = build_space(uniform_partition(level), degree)
            spans = span_class_representatives(level, degree)
            for i, j in zip(spans, spans[::-1]):
                cell = Cell(level, i, j)
                xs, ys = span_points(level, i), span_points(level, j)
                pos, tabs = s.basis_on_cell(cell, xs, ys, orders)
                ux = {(ix, a): np.array([scipy_span_ders(level, degree, i,
                                                         ix, x, a)
                                         for x in xs])
                      for ix in range(i, i + degree + 1) for a in range(5)}
                uy = {(iy, a): np.array([scipy_span_ders(level, degree, j,
                                                         iy, y, a)
                                         for y in ys])
                      for iy in range(j, j + degree + 1) for a in range(5)}
                for (ax, ay), T in tabs.items():
                    for row, q in enumerate(pos):
                        _, ix, iy = s.active[q]
                        assert np.allclose(T[row], ux[ix, ax] * uy[iy, ay],
                                           rtol=0.0,
                                           atol=1e-12 * float(m) ** (ax + ay))

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_tables_bit_identical_to_physical_knot_evaluation(self, degree,
                                                              monkeypatch):
        """Rows of every span class and of levels 0..9, filled together in
        one array pass, each equal to the per-point evaluation on the
        level's physical knots."""
        calls = counting_ders(monkeypatch)
        s = build_space(uniform_partition(0), degree)
        rng = np.random.default_rng(degree)
        rows = []
        for level in range(10):
            m = 1 << level
            spans = span_class_representatives(level, degree)
            for span in spans + rng.integers(0, m, 3).tolist():
                rows.append((level, span, np.concatenate([
                    span_points(level, span),
                    rng.uniform(span / m, (span + 1) / m, 4)])))
        levels, spans, X = (np.array(a) for a in zip(*rows))
        T, at = s._tables(levels, spans, X, 4)
        assert len(calls) == 1 and calls[0] == (T.shape[1], X.shape[1])
        for (level, span, xs), tab in zip(rows, T[:, at].transpose(1, 0, 2,
                                                                    3)):
            t = np.asarray(knot_vector(level, degree))
            for k, x in enumerate(xs):
                direct = bspline_ders(t, degree, span + degree, x, 4)
                assert np.array_equal(tab[:, :, k], direct)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_array_ders_equal_scalar_calls_bit_for_bit(self, degree):
        rng = np.random.default_rng(degree)
        xs = np.concatenate([[0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.5,
                              np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
                             rng.uniform(0.0, 1.0, 40)])
        for a in range(degree + 1):
            for b in range(degree + 1):
                t = np.clip(np.arange(2 * degree + 2, dtype=float) - degree,
                            -a, b + 1)
                for n_ders in (0, degree, 6):
                    tab = bspline_ders(t, degree, degree, xs, n_ders)
                    assert tab.shape == (n_ders + 1, degree + 1, len(xs))
                    for k, x in enumerate(xs):
                        one = bspline_ders(t, degree, degree, float(x),
                                           n_ders)
                        assert one.shape == (n_ders + 1, degree + 1)
                        assert tab[:, :, k].tobytes() == one.tobytes(), \
                            (a, b, n_ders, x)
                grid = bspline_ders(t, degree, degree, xs.reshape(-1, 1), 4)
                assert grid.shape == (5, degree + 1, len(xs), 1)
                assert grid.tobytes() == bspline_ders(t, degree, degree,
                                                      xs, 4).tobytes()

    def test_tables_fill_in_one_pass_per_call(self, monkeypatch):
        calls = counting_ders(monkeypatch)
        s = build_space(uniform_partition(3), 3)
        cells = [Cell(3, 1, 6), Cell(3, 6, 1), Cell(3, 1, 5)]
        rules = [gauss_cell(c, 6) for c in cells]
        X, Y = (np.array([rule.points[:, a] for rule in rules])
                for a in (0, 1))
        list(s.basis_stacks(cells, X, Y, [(0, 0), (2, 0), (0, 2)]))
        # one array pass over both axes' distinct rows: the x rows of
        # spans 1 and 6, the y rows of spans 6, 1 and 5
        assert calls == [(5, 36)]
        # each call fills its own tables, up to its highest order
        list(s.basis_stacks(cells, X, Y, [(0, 0), (1, 3)]))
        assert calls == [(5, 36), (5, 36)]
        T, at = s._tables(np.full(3, 3), np.array([1, 6, 1]), X, 2)
        assert T.shape == (3, 2, 4, 36) and T.flags.c_contiguous
        assert at[0] == at[2] != at[1]

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_basis_on_cell_equals_tensor_grid_product(self, degree):
        orders = [(0, 0), (2, 0), (0, 2), (1, 1), (4, 0), (2, 2)]
        p = refine(refine(graded_7cell(), [Cell(2, 1, 1)]), [Cell(3, 3, 3)])
        s = build_space(p, degree)
        for cell in p:
            for n in (4, degree + 3):
                rule = gauss_cell(cell, n)
                pos, tabs = s.basis_on_cell(cell, rule.points[:, 0],
                                            rule.points[:, 1], orders)
                x0, x1, y0, y1 = cell.bounds
                Dx = univariate(s, cell.level, cell.i,
                                gauss_points_1d(x0, x1, n)[0])
                Dy = univariate(s, cell.level, cell.j,
                                gauss_points_1d(y0, y1, n)[0])
                _, C = s.cell_extraction(cell)
                for ax, ay in orders:
                    T = np.einsum("ap,bq->abpq", Dx[ax], Dy[ay]).reshape(
                        (degree + 1) ** 2, n * n)
                    assert np.array_equal(tabs[(ax, ay)], C @ T), (cell, n)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_legendre_traces_evaluate_each_row_once(self, d, monkeypatch):
        """Per axis the value table on every edge and the derivative table
        only on the edges whose normal lies along that axis: three rows
        per boundary edge, and the traces of a per-edge evaluation."""
        from afem.assembly import _legendre_traces
        from afem.quadrature import _rules

        es = edge_arrays(uniform_partition(4))[1]  # 64 boundary edges
        P, _ = _rules(es, 5)
        X, Y = P[:, :, 0], P[:, :, 1]
        coef = np.random.default_rng(d).standard_normal((len(es),
                                                         (d + 1) ** 2))
        rows = []
        legval = npleg.legval
        monkeypatch.setattr(npleg, "legval", lambda x, c: rows.append(
            len(x)) or legval(x, c))
        pv, pn = _legendre_traces(coef, es, d, X, Y)
        assert len(rows) == 4 and sum(rows) == 3 * len(es)
        monkeypatch.setattr(npleg, "legval", legval)
        cells = es.cells(es.plus)
        for q, (axis, sign) in enumerate(zip(es.axis, es.sign)):
            one = slice(q, q + 1)
            value = _legendre_modes(cells[one], d, X[one], Y[one])
            normal = _legendre_modes(cells[one], d, X[one], Y[one],
                                     int(axis == 0), int(axis == 1))
            assert np.array_equal(pv[q], (coef[q][None] @ value[0])[0])
            assert np.array_equal(pn[q], sign * (coef[q][None] @ normal[0])[0])

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_legendre_tables_equal_per_row_legval(self, d):
        def direct(t, order):
            return npleg.legval(t, npleg.legder(np.eye(d + 1), order, axis=0))

        cells = list(refine(graded_7cell(), [Cell(2, 1, 1)]))
        X = np.array([gauss_points_1d(c.bounds[0], c.bounds[1], 5)[0]
                      for c in cells])
        Y = np.array([gauss_points_1d(c.bounds[2], c.bounds[3], 5)[0][::-1]
                      for c in cells])
        xi, zeta = _local_coords(cells, X, Y)
        for ax, ay in [(0, 0), (1, 0), (0, 1), (2, 1)]:
            got = _legendre_modes(cells, d, X, Y, ax, ay)  # one run
            for q, cell in enumerate(cells):
                want = (direct(xi[q], ax)[:, None, :]
                        * direct(zeta[q], ay)[None, :, :]).reshape(
                            (d + 1) ** 2, -1) * (2.0 / cell.side) ** (ax + ay)
                assert np.array_equal(got[q], want), (cell, ax, ay)
        # several orders in one call, up to two above the degree
        tabs = _legendre_tables(xi, d, *range(d + 3))
        for order, tab in enumerate(tabs):
            for q in range(len(cells)):
                assert np.array_equal(tab[q], direct(xi[q], order)), (q, order)


# a start level, rounds of marks (indices into the cells), a degree and
# truncation
graded_spaces = st.tuples(
    st.integers(0, 2),
    st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
             max_size=3),
    st.integers(2, 4), st.booleans())


def graded_space(start, rounds, degree, truncated):
    p = uniform_partition(start)
    for picks in rounds:
        p = refine(p, [p.cells[k % len(p)] for k in picks])
    return build_space(p, degree, truncated)


def extraction_by_level_loop(s, cell):
    """Per-cell extraction as one loop over the cell's levels, with
    ``np.ix_`` blocks of the two-scale matrix and their ``np.kron``."""
    r = s.degree
    w = r + 1
    rows = []
    carry = np.zeros((0, w * w))
    for m in range(cell.level + 1):
        anc = cell.ancestor(m)
        if m > 0:
            prev = cell.ancestor(m - 1)
            P = np.asarray(two_scale_matrix(m - 1, r))
            Px = P[np.ix_(np.arange(anc.i, anc.i + w),
                          np.arange(prev.i, prev.i + w))]
            Py = P[np.ix_(np.arange(anc.j, anc.j + w),
                          np.arange(prev.j, prev.j + w))]
            if carry.shape[0]:
                carry = carry @ np.kron(Px, Py).T
        level_map = {(ix, iy): k for k, (lev, ix, iy) in enumerate(s.active)
                     if lev == m}
        here = [(level_map[(anc.i + a, anc.j + b)], a * w + b)
                for a in range(w) for b in range(w)
                if (anc.i + a, anc.j + b) in level_map]
        if s.truncated and carry.shape[0] and here:
            carry[:, [lc for _, lc in here]] = 0.0
        if here:
            unit = np.zeros((len(here), w * w))
            for k, (_, lc) in enumerate(here):
                unit[k, lc] = 1.0
            carry = np.vstack([carry, unit]) if carry.shape[0] else unit
            rows.extend(pos for pos, _ in here)
    return tuple(rows), carry


def tables_per_order(s, cell, xs, ys, orders):
    """Window tables with one scaled univariate table per axis and one
    outer product per order."""
    r = s.degree
    w = r + 1

    def univariate(span, pts, k):
        # per point on the level's physical knots
        t = np.asarray(knot_vector(cell.level, r))
        return np.stack([bspline_ders(t, r, span + r, x, k) for x in pts],
                        axis=-1)

    Dx = univariate(cell.i, xs, max(o[0] for o in orders))
    Dy = univariate(cell.j, ys, max(o[1] for o in orders))
    return {(ax, ay): (Dx[ax][:, None, :] * Dy[ay][None, :, :]).reshape(
                w * w, len(xs))
            for ax, ay in orders}


ALL_ORDERS = [(ax, ay) for ax in range(5) for ay in range(5 - ax)]


class TestFastEvaluationPath:
    """Ancestor-shared extraction, memoised tables and zero orders give
    the same bits as the per-cell loops they replace."""

    @given(graded_spaces)
    def test_extraction_equals_per_cell_level_loop(self, case):
        s = graded_space(*case)
        for cell in s.partition:
            pos, C = s.cell_extraction(cell)
            want_pos, want = extraction_by_level_loop(s, cell)
            assert pos == want_pos
            assert np.array_equal(C, want) and C.flags.c_contiguous

    @given(graded_spaces)
    def test_extraction_arrays_equal_per_cell_walk_bit_for_bit(self, case):
        """The space's three arrays hold, in partition order, each cell's
        row count, matrix and positions as the per-cell walk over its
        ancestors gives them, byte for byte, then zero padding; all three
        are read-only."""
        s = graded_space(*case)
        e = s._extractions
        n, K = len(s.partition), int(e.rows.max())
        assert e.rows.shape == (n,) and e.positions.shape == (n, K)
        assert e.matrices.shape == (n, K, (s.degree + 1) ** 2)
        assert e.positions.dtype == np.intp
        for q, cell in enumerate(s.partition.cells):
            pos, C = extraction_by_level_loop(s, cell)
            k = int(e.rows[q])
            assert tuple(e.positions[q, :k].tolist()) == pos
            assert e.matrices[q, :k].tobytes() == C.tobytes()
            assert not e.positions[q, k:].any()
            assert not e.matrices[q, k:].any()
        for a in e:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    @given(graded_spaces)
    def test_all_level_selection_equals_bruteforce(self, case):
        """One pass over all levels selects the brute-force active set,
        and keeps per level the sorted keys of its functions and the
        position of the first."""
        s = graded_space(*case)
        p, r = s.partition, s.degree
        assert list(s.active) == kraft_selection_bruteforce(p, r)
        level, ix, iy = s._fns
        assert sorted(s._levels) == sorted(set(level.tolist()))
        for lev, (keys, first) in s._levels.items():
            at = np.flatnonzero(level == lev)
            assert first == at[0] and np.array_equal(at, first + np.arange(
                len(at)))
            assert np.array_equal(keys, ix[at] * ((1 << lev) + r) + iy[at])
            assert np.all(np.diff(keys) > 0)

    @given(graded_spaces)
    def test_tables_and_basis_equal_per_order_products(self, case):
        s = graded_space(*case)
        r = s.degree
        for cell in s.partition:
            rule = gauss_cell(cell, r + 2)
            xs, ys = rule.points[:, 0], rule.points[:, 1]
            want = tables_per_order(s, cell, xs, ys, ALL_ORDERS)
            _, C = extraction_by_level_loop(s, cell)
            _, basis = s.basis_on_cell(cell, xs, ys, ALL_ORDERS)
            for o in ALL_ORDERS:
                if max(o) <= r:
                    assert np.array_equal(basis[o], C @ want[o]), (cell, o)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_orders_above_degree_are_exact_zeros(self, degree):
        s = build_space(refine(graded_7cell(), [Cell(2, 1, 1)]), degree)
        high = [o for o in ALL_ORDERS if max(o) > degree]
        for cell in s.partition:
            rule = gauss_cell(cell, 4)
            xs, ys = rule.points[:, 0], rule.points[:, 1]
            orders = [(0, 0)] + high
            pos, tabs = s.basis_on_cell(cell, xs, ys, orders)
            assert list(tabs) == orders
            for o in high:
                assert tabs[o].shape == (len(pos), len(xs))
                assert not tabs[o].any() and not np.signbit(tabs[o]).any()

    @given(graded_spaces, st.integers(0, 2 ** 32 - 1))
    def test_mixed_order_eval_batch_equals_single_orders(self, case, seed):
        s = graded_space(*case)
        U = random_spline(s, np.random.default_rng(seed))
        for cell in s.partition.cells[:: max(1, len(s.partition) // 5)]:
            rule = gauss_cell(cell, 3)
            xs, ys = rule.points[:, 0], rule.points[:, 1]
            batch = U.eval_batch(xs, ys, ALL_ORDERS, cell)
            for o in ALL_ORDERS:
                assert np.array_equal(batch[o], U.eval_many(xs, ys, *o, cell))

    @given(graded_spaces, st.integers(0, 2 ** 32 - 1))
    def test_eval_batch_equals_gathered_coefficient_products(self, case,
                                                             seed):
        s = graded_space(*case)
        U = random_spline(s, np.random.default_rng(seed))
        for cell in s.partition:
            rule = gauss_cell(cell, 3)
            xs, ys = rule.points[:, 0], rule.points[:, 1]
            batch = U.eval_batch(xs, ys, ALL_ORDERS, cell)
            pos, tabs = s.basis_on_cell(cell, xs, ys, ALL_ORDERS)
            e, q = s._extractions, s.partition._position[cell]
            index = e.positions[q, :e.rows[q]]
            assert index.dtype == np.intp and tuple(index) == pos
            c = U.coefficients[list(pos)]
            for o in ALL_ORDERS:
                assert batch[o].tobytes() == (c @ tabs[o]).tobytes()

    def test_extraction_and_positions_are_read_only(self):
        s = build_space(graded_7cell(), 3)
        cell = Cell(2, 1, 1)
        rule = gauss_cell(cell, 5)
        _, C = s.cell_extraction(cell)
        assert not C.flags.writeable
        (_, index, _), = s.basis_stacks([cell], [rule.points[:, 0]],
                                        [rule.points[:, 1]], [(0, 0)])
        for a in s._extractions:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            C[0, 0] = 1.0
        with pytest.raises(ValueError):
            index[0, 0] = 1

    def test_ancestor_of_active_cells_is_not_extractable(self):
        s = build_space(graded_7cell(), 2)
        s.cell_extraction(Cell(2, 0, 0))  # builds the carry of Cell(1, 0, 0)
        with pytest.raises(ValueError, match="not an active cell"):
            s.cell_extraction(Cell(1, 0, 0))


class TestBuildSpace:
    @pytest.mark.parametrize("L,r", [(0, 2), (1, 2), (2, 2), (2, 3), (1, 4)])
    def test_uniform_dimension(self, L, r):
        s = build_space(uniform_partition(L), r)
        assert s.dim == ((1 << L) + r) ** 2

    def test_single_cell_quadratic_dim(self):
        assert build_space(uniform_partition(0), 2).dim == 9

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_space(uniform_partition(1), 1)

    @pytest.mark.parametrize("degree", [2.5, 2.0, "2", True])
    def test_degree_that_is_not_an_integer_rejected(self, degree):
        """As ``AfemConfig(degree=...)``: a ``ValueError`` naming the
        setting, not a numpy ``TypeError`` from the selection."""
        with pytest.raises(ValueError,
                           match=f"^degree must be an integer, got "
                                 f"{re.escape(repr(degree))}"):
            build_space(uniform_partition(1), degree)
        assert build_space(uniform_partition(1), np.int64(2)).dim == 16

    @pytest.mark.parametrize("flag", ["no", 0, None])
    def test_truncated_that_is_not_a_bool_rejected(self, flag):
        with pytest.raises(ValueError,
                           match=f"^truncated must be a bool, got {flag!r}"):
            build_space(uniform_partition(1), 2, flag)

    @pytest.mark.parametrize("seed", range(5))
    def test_active_set_matches_bruteforce_kraft(self, seed):
        rng = np.random.default_rng(seed)
        p = graded_7cell()
        if seed:
            picks = rng.choice(len(p.cells), size=2, replace=False)
            p = refine(p, [p.cells[i] for i in picks])
        for r in (2, 3):
            s = build_space(p, r)
            assert list(s.active) == kraft_selection_bruteforce(p, r)

    def test_support_containment_selection_rule(self):
        p = graded_7cell()
        s = build_space(p, 2)
        for (lev, ix, iy) in s.active:
            x0, x1, y0, y1 = s.support_box((lev, ix, iy))
            for c in p.cells_in_box(x0, x1, y0, y1):
                assert c.level >= lev


class TestEvaluation:
    def test_constant_reproduction_thb(self):
        p = graded_7cell()
        s = build_space(p, 2, truncated=True)
        one = SplineFunction(s, np.ones(s.dim))
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(0.0, 1.0, (20, 2)):
            assert one(x, y) == pytest.approx(1.0, abs=1e-13)
            for ax, ay in [(1, 0), (0, 1), (2, 0), (1, 1)]:
                assert one.eval(x, y, ax, ay) == pytest.approx(0.0, abs=1e-9)

    def test_partition_of_unity_pointwise(self):
        p = refine(graded_7cell(), [Cell(2, 1, 1)])
        s = build_space(p, 3, truncated=True)
        rng = np.random.default_rng(2)
        for x, y in rng.uniform(0.0, 1.0, (25, 2)):
            cell = p.find_cell(x, y)
            pos, tabs = s.basis_on_cell(cell, np.array([x]), np.array([y]),
                                        [(0, 0)])
            assert tabs[(0, 0)].sum() == pytest.approx(1.0, abs=1e-13)

    def test_fourth_derivative_matches_finite_differences(self):
        p = uniform_partition(2)
        s = build_space(p, 4)
        fn = random_spline(s, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        h = 1e-3
        checked = 0
        while checked < 50:
            x, y = rng.uniform(0.05, 0.95, 2)
            cell = p.find_cell(x, y)
            x0, x1, y0, y1 = cell.bounds
            if min(x - x0, x1 - x) < 3 * h or min(y - y0, y1 - y) < 3 * h:
                continue
            from math import comb
            num = sum((-1) ** i * comb(4, i) * fn.eval(x + (2 - i) * h, y,
                                                       cell=cell)
                      for i in range(5)) / h ** 4
            ana = fn.eval(x, y, 4, 0, cell=cell)
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-5)
            checked += 1

    def test_derivative_order_cap(self):
        s = build_space(uniform_partition(1), 2)
        fn = SplineFunction(s, np.zeros(s.dim))
        with pytest.raises(ValueError, match="unsupported"):
            fn.eval(0.5, 0.5, 3, 2)

    def test_one_sided_evaluation_at_cell_boundary(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        fn = random_spline(s, np.random.default_rng(3))
        left = Cell(1, 0, 0)
        right = Cell(1, 1, 0)
        # value is C1: one-sided values agree; third derivative may jump
        v_l = fn.eval(0.5, 0.25, cell=left)
        v_r = fn.eval(0.5, 0.25, cell=right)
        assert v_l == pytest.approx(v_r, abs=1e-12)

    def test_c1_smoothness_across_same_level_edges(self):
        p = uniform_partition(2)
        s = build_space(p, 2)
        interior, _ = edges(p)
        rng = np.random.default_rng(4)
        for k in range(s.dim):
            if k % 7:
                continue
            coeffs = np.zeros(s.dim)
            coeffs[k] = 1.0
            fn = SplineFunction(s, coeffs)
            for e in interior[::3]:
                ts = rng.uniform(e.lo, e.lo + e.length, 3)
                for t in ts:
                    pt = (e.fixed, t) if e.axis == 0 else (t, e.fixed)
                    for ax, ay in [(0, 0), (1, 0), (0, 1)]:
                        jump = (fn.eval(*pt, ax, ay, cell=e.plus)
                                - fn.eval(*pt, ax, ay, cell=e.minus))
                        assert abs(jump) <= 1e-12

    def test_local_linear_independence_proxy(self):
        # restrictions to one cell live in a (r+1)^2-dimensional local
        # polynomial space, so the cell Gram rank is capped by it; the
        # proxy asserts the restrictions achieve that cap (and are
        # genuinely independent whenever they fit)
        p = graded_7cell()
        s = build_space(p, 2)
        from afem.quadrature import gauss_cell
        local_dim = (s.degree + 1) ** 2
        for cell in p:
            rule = gauss_cell(cell, 4)
            pos, tabs = s.basis_on_cell(cell, rule.points[:, 0],
                                        rule.points[:, 1], [(0, 0)])
            V = tabs[(0, 0)]
            G = (V * rule.weights) @ V.T
            assert np.linalg.matrix_rank(G, tol=1e-10) == \
                min(len(pos), local_dim)


class TestConformingIndices:
    def test_uniform_l2_r2_count(self):
        s = build_space(uniform_partition(2), 2)
        idx = conforming_indices(s)
        assert len(idx) == 4

    def test_single_cell_r2_empty(self):
        s = build_space(uniform_partition(0), 2)
        assert conforming_indices(s) == ()

    @pytest.mark.parametrize("r", [2, 3])
    def test_zero_boundary_traces(self, r):
        p = refine(uniform_partition(2), [Cell(2, 1, 1), Cell(2, 3, 0)])
        s = build_space(p, r)
        idx = conforming_indices(s)
        assert idx
        t = np.linspace(0.0, 1.0, 50)
        for k in idx:
            coeffs = np.zeros(s.dim)
            coeffs[k] = 1.0
            fn = SplineFunction(s, coeffs)
            worst = 0.0
            for xs, ys, nx, ny in ((np.zeros_like(t), t, -1, 0),
                                   (np.ones_like(t), t, 1, 0),
                                   (t, np.zeros_like(t), 0, -1),
                                   (t, np.ones_like(t), 0, 1)):
                for x, y in zip(xs, ys):
                    worst = max(worst, abs(fn(x, y)))
                    worst = max(worst, abs(nx * fn.eval(x, y, 1, 0)
                                           + ny * fn.eval(x, y, 0, 1)))
            assert worst <= 1e-14

    def test_nonconforming_functions_have_boundary_mass(self):
        s = build_space(uniform_partition(2), 2)
        conf = set(conforming_indices(s))
        t = np.linspace(0.0, 1.0, 40)
        for k in range(s.dim):
            if k in conf:
                continue
            coeffs = np.zeros(s.dim)
            coeffs[k] = 1.0
            fn = SplineFunction(s, coeffs)
            worst = 0.0
            for xs, ys in ((np.zeros_like(t), t), (np.ones_like(t), t),
                           (t, np.zeros_like(t)), (t, np.ones_like(t))):
                for x, y in zip(xs, ys):
                    worst = max(worst, abs(fn(x, y)),
                                abs(fn.eval(x, y, 1, 0)),
                                abs(fn.eval(x, y, 0, 1)))
            assert worst > 1e-8


def duals_per_pair(space, n):
    """Dual functionals with the basis evaluated once per (function,
    cell of its support box) pair: ``[(points, weights)]``."""
    p = space.partition
    out = []
    for lam_pos, fn in enumerate(space.active):
        per_cell = []
        neighbors = set()
        for c in p.cells_in_box(*space.support_box(fn)):
            rule = gauss_cell(c, n)
            pos, tabs = space.basis_on_cell(
                c, rule.points[:, 0], rule.points[:, 1], [(0, 0)])
            per_cell.append((rule, pos, tabs[(0, 0)]))
            neighbors.update(pos)
        where = {q: k for k, q in enumerate(sorted(neighbors))}
        M = np.zeros((len(where), len(where)))
        for rule, pos, V in per_cell:
            idx = [where[q] for q in pos]
            M[np.ix_(idx, idx)] += (V * rule.weights) @ V.T
        rhs = np.zeros(len(where))
        rhs[where[lam_pos]] = 1.0
        a, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        out.append((np.vstack([rule.points for rule, _, _ in per_cell]),
                    np.concatenate([(a[[where[q] for q in pos]] @ V)
                                    * rule.weights
                                    for rule, pos, V in per_cell])))
    return out


class TestDualFunctionalsStacked:
    @given(graded_spaces)
    def test_equal_to_per_pair_loop(self, case):
        s = graded_space(*case)
        n = s.degree + 3
        duals = DualFunctionalSet(s)
        want = duals_per_pair(s, n)
        assert len(duals.functionals) == len(want)
        for psi, (pts, wts) in zip(duals.functionals, want):
            assert np.array_equal(psi.points, pts)
            assert np.array_equal(psi.weights, wts)

    def test_each_cell_evaluated_once(self, monkeypatch):
        s = build_space(uniform_partition(3), 3)
        seen = []
        stacks = s.basis_stacks

        def counting(cells, *args):
            seen.extend(cells)
            return stacks(cells, *args)

        monkeypatch.setattr(s, "basis_stacks", counting)
        DualFunctionalSet(s)
        assert sorted(seen) == list(s.partition.cells)


class TestQuasiInterpolant:
    def test_reproduces_splines(self):
        p = graded_7cell()
        s = build_space(p, 2)
        fn = random_spline(s, np.random.default_rng(1))
        out = quasi_interpolant(s, fn)
        assert np.max(np.abs(out.coefficients - fn.coefficients)) <= 1e-12

    def test_reproduces_constants(self):
        s = build_space(graded_7cell(), 2, truncated=True)
        out = quasi_interpolant(s, lambda x, y: np.ones_like(x))
        assert np.max(np.abs(out.coefficients - 1.0)) <= 1e-11

    def test_scalar_valued_callable_equals_its_spread_array(self):
        s = build_space(graded_7cell(), 2)
        duals = DualFunctionalSet(s)
        got = quasi_interpolant(s, lambda x, y: 1.0, duals=duals)
        want = quasi_interpolant(s, lambda x, y: np.ones_like(x), duals=duals)
        assert np.array_equal(got.coefficients, want.coefficients)

    def test_idempotent_on_basis(self):
        s = build_space(uniform_partition(1), 2)
        duals = DualFunctionalSet(s)
        for k in range(s.dim):
            coeffs = np.zeros(s.dim)
            coeffs[k] = 1.0
            once = quasi_interpolant(s, SplineFunction(s, coeffs),
                                     duals=duals)
            twice = quasi_interpolant(s, once, duals=duals)
            assert np.max(np.abs(once.coefficients
                                 - twice.coefficients)) <= 1e-11

    def test_biorthogonality(self):
        s = build_space(graded_7cell(), 2)
        duals = DualFunctionalSet(s)
        for k in range(s.dim):
            coeffs = np.zeros(s.dim)
            coeffs[k] = 1.0
            fn = SplineFunction(s, coeffs)
            applied = duals.apply(
                lambda x, y, fn=fn: np.array(
                    [fn(xi, yi) for xi, yi in zip(np.atleast_1d(x),
                                                  np.atleast_1d(y))]))
            expect = np.zeros(s.dim)
            expect[k] = 1.0
            assert np.max(np.abs(applied - expect)) <= 1e-10

    def test_l2_error_decay_order(self):
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = []
        from afem.quadrature import gauss_cell
        for L in (3, 4, 5, 6):
            p = uniform_partition(L)
            s = build_space(p, 2)
            out = quasi_interpolant(s, f)
            err = 0.0
            for cell in p:
                rule = gauss_cell(cell, 4)
                xs, ys = rule.points[:, 0], rule.points[:, 1]
                diff = f(xs, ys) - out.eval_many(xs, ys, 0, 0, cell)
                err += float(rule.weights @ diff ** 2)
            errs.append(err ** 0.5)
        slope = np.polyfit(np.log([2.0 ** -L for L in (3, 4, 5, 6)]),
                           np.log(errs), 1)[0]
        assert slope >= 2.7


class TestCoarseToFine:
    def test_identity_without_refinement(self):
        s = build_space(uniform_partition(1), 2)
        fn = random_spline(s, np.random.default_rng(2))
        out = coarse_to_fine(fn, s)
        assert np.max(np.abs(out.coefficients - fn.coefficients)) <= 1e-12

    def test_pointwise_identity_after_refinement(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        fn = random_spline(s, np.random.default_rng(3))
        p2 = refine(p, [Cell(1, 0, 1)])
        s2 = build_space(p2, 2)
        out = coarse_to_fine(fn, s2)
        rng = np.random.default_rng(4)
        for x, y in rng.uniform(0.0, 1.0, (100, 2)):
            assert out(x, y) == pytest.approx(fn(x, y), abs=1e-12)

    def test_constant_preserved(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        one = SplineFunction(s, np.ones(s.dim))
        s2 = build_space(refine(p, [Cell(1, 1, 1)]), 2)
        out = coarse_to_fine(one, s2)
        assert np.max(np.abs(out.coefficients - 1.0)) <= 1e-12

    def test_basis_nesting_residual(self):
        p = graded_7cell()
        s = build_space(p, 2)
        p2 = refine(p, [Cell(2, 0, 0)])
        s2 = build_space(p2, 2)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, (30, 2))
        for k in range(s.dim):
            coeffs = np.zeros(s.dim)
            coeffs[k] = 1.0
            fn = SplineFunction(s, coeffs)
            out = coarse_to_fine(fn, s2)
            resid = max(abs(fn(x, y) - out(x, y)) for x, y in pts)
            assert resid <= 1e-12

    def test_gram_entries_reach_csc_matrix_as_arrays(self, monkeypatch):
        """The Gram blocks are written into preallocated arrays in CSC
        order, float64 values and 32-bit row indices, and the transfer
        equals the former scatter into Python lists of numpy scalars bit
        for bit."""
        p = uniform_partition(3)
        fn = random_spline(build_space(p, 3), np.random.default_rng(7))
        fine = build_space(refine(p, p.cells[::5]), 3)
        real, kinds = splines.csc_matrix, []

        def spy(arg, shape):
            kinds.extend((type(a), a.dtype) for a in arg[:2])
            return real(arg, shape=shape)

        monkeypatch.setattr(splines, "csc_matrix", spy)
        out = coarse_to_fine(fn, fine)
        assert kinds == [(np.ndarray, np.float64), (np.ndarray, np.int32)]
        assert np.array_equal(out.coefficients, _coarse_to_fine_lists(fn, fine))

    def test_non_nested_rejected(self):
        s_fine = build_space(uniform_partition(2), 2)
        fn = random_spline(s_fine, np.random.default_rng(6))
        s_coarse = build_space(uniform_partition(1), 2)
        with pytest.raises(ValueError, match="refinement"):
            coarse_to_fine(fn, s_coarse)
        s_deg = build_space(uniform_partition(3), 3)
        with pytest.raises(ValueError, match="degree"):
            coarse_to_fine(fn, s_deg)


def _coarse_to_fine_lists(fn, fine):
    """Coefficients of ``coarse_to_fine(fn, fine)`` with the COO triplets
    extended into Python lists of numpy scalars, as the transfer once
    scattered them."""
    owners = fn.space.partition.owners(fine.partition.cells)
    rhs = np.zeros(fine.dim)
    rows, cols, vals = [], [], []
    for lo, run, X, Y, W, _ in _requests(fine.partition.cells,
                                         fine.degree + 3):
        f = fn.eval_stacked(owners[lo:lo + len(run)], X, Y, [(0, 0)])[(0, 0)]
        got = [None] * len(run)
        for items, index, stack in fine.basis_stacks(run, X, Y, [(0, 0)]):
            for q, pos, V in zip(items, index, stack((0, 0))):
                got[q] = pos, V
        for (pos, V), w, fq in zip(got, W, f):
            rhs[pos] += V @ (w * fq)
            rows.extend(np.repeat(pos, len(pos)))
            cols.extend(np.tile(pos, len(pos)))
            vals.extend(((V * w) @ V.T).ravel())
    M = coo_matrix((vals, (rows, cols)), shape=(fine.dim, fine.dim)).tocsc()
    return solve(M, rhs)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        p = graded_7cell()
        s = build_space(p, 2)
        fn = random_spline(s, np.random.default_rng(9))
        path = tmp_path / "solution.txt"
        save_solution(fn, path)
        back = load_solution(path)
        assert back.space.degree == 2
        assert back.space.partition == p
        assert np.array_equal(back.coefficients, fn.coefficients)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("degree 2\nbogus\n")
        with pytest.raises(ValueError):
            load_solution(path)


# a start level, rounds of marks (indices into the cells), a degree,
# truncation, and a seed and decimal exponent for the coefficients
saved_splines = st.tuples(
    st.integers(0, 1),
    st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
             max_size=3),
    st.integers(2, 4), st.booleans(), st.integers(0, 2 ** 32 - 1),
    st.integers(-300, 300))


def saved_spline(start, rounds, degree, truncated, seed, exponent):
    p = uniform_partition(start)
    for picks in rounds:
        p = refine(p, [p.cells[k % len(p)] for k in picks])
    s = build_space(p, degree, truncated)
    rng = np.random.default_rng(seed)
    return SplineFunction(s, rng.standard_normal(s.dim) * 10.0 ** exponent)


def save_and_load(fn, mutate=None):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "solution.txt")
        save_solution(fn, path)
        if mutate is not None:
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(mutate(data))
        return load_solution(path)


class TestSerializationProperties:
    @given(saved_splines)
    def test_roundtrip_is_exact(self, case):
        fn = saved_spline(*case)
        back = save_and_load(fn)
        assert back.space.partition == fn.space.partition
        assert (back.space.degree, back.space.truncated) == \
            (fn.space.degree, fn.space.truncated)
        assert back.space.active == fn.space.active
        assert back.coefficients.tobytes() == fn.coefficients.tobytes()

    @given(saved_splines, st.integers(0, 10 ** 6),
           st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                    max_size=4),
           st.booleans())
    def test_mutated_file_loads_or_raises_value_error(self, case, cut, subs,
                                                       truncate):
        def mutate(data):
            data = bytearray(data)
            for at, byte in subs:
                data[at % len(data)] = byte
            return bytes(data[:cut % len(data)] if truncate else data)

        try:
            back = save_and_load(saved_spline(*case), mutate)
        except ValueError:
            return
        assert back.coefficients.shape == (back.space.dim,)
