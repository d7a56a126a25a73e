"""Gauss rules on cells and edges."""

import numpy as np
import pytest

from afem.mesh import Cell, Edge, edge_arrays, edges, uniform_partition
from afem.oracles import manufactured_sin2
from afem.quadrature import (_requests, gauss_cell, gauss_edge,
                             gauss_points_1d)


def integrate_cell(rule, fn):
    return float(rule.weights @ fn(rule.points[:, 0], rule.points[:, 1]))


class TestCellRules:
    def test_xy_on_unit_square(self):
        rule = gauss_cell(Cell(0, 0, 0), 2)
        val = integrate_cell(rule, lambda x, y: x * y)
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_x5y5_with_three_points(self):
        rule = gauss_cell(Cell(0, 0, 0), 3)
        val = integrate_cell(rule, lambda x, y: x ** 5 * y ** 5)
        assert val == pytest.approx(1.0 / 36.0, abs=1e-14)

    def test_sin_sin_with_eight_points(self):
        rule = gauss_cell(Cell(0, 0, 0), 8)
        val = integrate_cell(
            rule, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        assert val == pytest.approx(4.0 / np.pi ** 2, abs=1e-12)

    def test_weights_positive_and_sum_to_area(self):
        for cell in (Cell(0, 0, 0), Cell(2, 1, 3), Cell(4, 9, 2)):
            for n in (1, 3, 6):
                rule = gauss_cell(cell, n)
                assert np.all(rule.weights > 0)
                assert rule.weights.sum() == pytest.approx(
                    cell.side ** 2, abs=1e-14)

    def test_invalid_point_count(self):
        with pytest.raises(ValueError):
            gauss_cell(Cell(0, 0, 0), 0)

    def test_monomial_exactness_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            lev = int(rng.integers(0, 4))
            n_side = 1 << lev
            cell = Cell(lev, int(rng.integers(n_side)),
                        int(rng.integers(n_side)))
            n = int(rng.integers(2, 7))
            rule = gauss_cell(cell, n)
            x0, x1, y0, y1 = cell.bounds
            for p in range(2 * n - 1):
                for q in range(2 * n - 1):
                    exact = ((x1 ** (p + 1) - x0 ** (p + 1)) / (p + 1)
                             * (y1 ** (q + 1) - y0 ** (q + 1)) / (q + 1))
                    got = integrate_cell(rule, lambda x, y: x ** p * y ** q)
                    assert got == pytest.approx(exact, rel=1e-13, abs=1e-16)

    def test_bit_identical_to_meshgrid_of_interval_rules(self):
        def meshgrid_rule(cell, n):
            x0, x1, y0, y1 = cell.bounds
            xs, wx = gauss_points_1d(x0, x1, n)
            ys, wy = gauss_points_1d(y0, y1, n)
            px, py = np.meshgrid(xs, ys, indexing="ij")
            return (np.column_stack([px.ravel(), py.ravel()]),
                    np.outer(wx, wy).ravel())

        rng = np.random.default_rng(1)
        for lev in range(16):
            m = 1 << lev
            idx = sorted({0, m // 2, m - 1} | set(rng.integers(0, m, 6).tolist()))
            for i, j in zip(idx, idx[::-1]):
                for n in range(1, 11):
                    rule = gauss_cell(Cell(lev, i, j), n)
                    points, weights = meshgrid_rule(Cell(lev, i, j), n)
                    assert rule.points.tobytes() == points.tobytes()
                    assert rule.weights.tobytes() == weights.tobytes()

    def test_rules_do_not_share_memory(self):
        rule = gauss_cell(Cell(2, 1, 3), 4)
        rule.points[:] = 0.0
        rule.weights[:] = 0.0
        again = gauss_cell(Cell(2, 1, 3), 4)
        assert again.weights.sum() == pytest.approx(1.0 / 16.0, abs=1e-16)
        assert again.points.min() > 0.0

    def test_affine_covariance(self):
        ref = gauss_cell(Cell(0, 0, 0), 4)
        cell = Cell(3, 5, 2)
        rule = gauss_cell(cell, 4)
        x0, x1, y0, y1 = cell.bounds
        mapped_x = x0 + (x1 - x0) * ref.points[:, 0]
        mapped_y = y0 + (y1 - y0) * ref.points[:, 1]
        assert np.allclose(rule.points[:, 0], mapped_x, atol=1e-15)
        assert np.allclose(rule.points[:, 1], mapped_y, atol=1e-15)
        assert np.allclose(rule.weights, ref.weights * cell.side ** 2,
                           atol=1e-16)


class TestEdgeRules:
    def test_x_squared_line(self):
        _, boundary = edges(uniform_partition(0))
        bottom = next(e for e in boundary if e.axis == 1 and e.fixed == 0.0)
        rule = gauss_edge(bottom, 2)
        val = float(rule.weights @ rule.points[:, 0] ** 2)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_weights_sum_to_length(self):
        _, boundary = edges(uniform_partition(1))
        for e in boundary:
            rule = gauss_edge(e, 3)
            assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)
            assert np.all(rule.weights > 0)

    def test_degree_seven_matches_monomial_oracle(self):
        interior, _ = edges(uniform_partition(2))
        rng = np.random.default_rng(1)
        coef = rng.standard_normal(8)
        for e in interior[:4]:
            rule = gauss_edge(e, 4)
            t = rule.points[:, 1] if e.axis == 0 else rule.points[:, 0]
            got = float(rule.weights @ sum(c * t ** k
                                           for k, c in enumerate(coef)))
            lo, hi = e.lo, e.lo + e.length
            exact = sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                        for k, c in enumerate(coef))
            assert got == pytest.approx(exact, rel=1e-13)

    def test_points_lie_on_edge(self):
        interior, boundary = edges(uniform_partition(1))
        for e in interior + boundary:
            rule = gauss_edge(e, 3)
            if e.axis == 0:
                assert np.all(rule.points[:, 0] == e.fixed)
            else:
                assert np.all(rule.points[:, 1] == e.fixed)

    def test_bit_identical_to_column_stack_construction(self):
        def column_stack_rule(e, n):
            ts, wt = gauss_points_1d(e.lo, e.lo + e.length, n)
            fixed = np.full_like(ts, e.fixed)
            cols = [fixed, ts] if e.axis == 0 else [ts, fixed]
            return np.column_stack(cols), wt

        rng = np.random.default_rng(2)
        for lev in range(16):
            m = 1 << lev
            idx = sorted({0, m // 2, m - 1} | set(rng.integers(0, m, 4).tolist()))
            for axis in (0, 1):
                for k, t in zip(idx, idx[::-1]):
                    cell = Cell(lev, k, t) if axis == 0 else Cell(lev, t, k)
                    e = Edge("boundary", axis, lev, k / m, t / m, plus=cell,
                             minus=None, normal=(-1.0, 0.0) if axis == 0
                             else (0.0, -1.0))
                    for n in range(1, 11):
                        rule = gauss_edge(e, n)
                        points, weights = column_stack_rule(e, n)
                        assert rule.points.tobytes() == points.tobytes()
                        assert rule.points.flags.c_contiguous
                        assert rule.weights.tobytes() == weights.tobytes()


def peak_source(x, y, centre=(0.3712, 0.5861), width=1e-4):
    r2 = (np.asarray(x) - centre[0]) ** 2 + (np.asarray(y) - centre[1]) ** 2
    return np.exp(-r2 / width) / width


class TestRequestSamples:
    """Data sampled by ``_requests``: per run of one pass, kept by
    nothing."""

    @pytest.mark.parametrize("name", ["f", "laplacian_u", "peak"])
    @pytest.mark.parametrize("n", [6, 8])
    def test_run_samples_equal_per_row_calls_bit_for_bit(self, name, n):
        """Sampling a run in one call gives each row the bytes of a call
        on that row alone."""
        sin2 = manufactured_sin2()
        f = peak_source if name == "peak" else getattr(sin2, name)
        rng = np.random.default_rng(n)
        cells = []
        for level in range(2, 8):
            m = 1 << level
            cells += [Cell(level, *ij) for ij in
                      {tuple(ij) for ij in rng.integers(0, m, size=(40, 2))}]
        cells = [cells[k] for k in rng.permutation(len(cells))[:128]]
        calls = []
        (_, _, X, Y, _, F), = _requests(
            cells, n, lambda x, y: calls.append(x) or f(x, y))
        want = np.array([f(X[q], Y[q]) for q in range(len(cells))])
        assert F.tobytes() == want.tobytes()
        assert [len(x) for x in calls] == [len(cells) * n * n]

    @pytest.mark.parametrize("on_edges", [False, True])
    def test_one_call_per_run_on_a_strided_copy(self, on_edges):
        seen = []
        if on_edges:
            requests, n = edge_arrays(uniform_partition(2))[1], 3
        else:
            requests, n = [Cell(1, 0, 0), Cell(1, 1, 1)], 2
        (_, _, X, Y, _, F), = _requests(requests, n,
                                        lambda x, y: seen.append(x) or x)
        # a 1-D pair, request after request, strided as a rule's
        # points[:, 0], on a copy of the rule
        assert [(x.shape, x.strides) for x in seen] == [((X.size,), (16,))]
        assert np.array_equal(seen[0], X.ravel())
        assert not np.shares_memory(seen[0], X)
        assert np.array_equal(F, X) and not np.shares_memory(F, seen[0])

    def test_scalar_spreads_and_a_wrong_shape_raises(self):
        cells = [Cell(0, 0, 0)]
        (*_, F), = _requests(cells, 2, lambda x, y: 2)
        assert F.dtype == float and np.array_equal(F, [[2.0] * 4])
        with pytest.raises(ValueError):
            list(_requests(cells, 2, lambda x, y: np.ones(3)))
