"""Residual indicators, oscillation, marking, and the reduction laws."""

import numpy as np
import pytest

import afem.estimator
from afem.assembly import _legendre_modes
from afem.estimator import (CellIndicator, Indicators, dorfler_mark,
                            estimate_all, indicator, lipschitz_gap,
                            oscillation)
from afem.mesh import Cell, edges, refine, uniform_partition
from afem.oracles import manufactured_sin2, random_spline
from afem.quadrature import gauss_cell, gauss_points_1d
from afem.splines import SplineFunction, build_space, coarse_to_fine


def graded_7cell():
    return refine(uniform_partition(1), [Cell(1, 0, 0)])


def make_indicators(values):
    """Synthetic Indicators over a uniform mesh, one eta^2 per cell."""
    p = uniform_partition(1) if len(values) == 4 else uniform_partition(2)
    cells = list(p)[: len(values)]
    assert len(cells) == len(values)
    recs = {c: CellIndicator(v, v, 0.0, 0.0, 0.0)
            for c, v in zip(cells, values)}
    return Indicators(recs, float(sum(values)), 0.0), p


class TestIndicatorComponents:
    def test_bilaplacian_constant_for_biquadratics(self):
        # tensor degree 2 leaves exactly the mixed fourth derivative:
        # lap^2 V is cellwise constant, so the interior term integrates
        # (f - const)^2
        p = uniform_partition(1)
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(0))
        cell = Cell(1, 0, 0)
        rng = np.random.default_rng(1)
        x0, x1, y0, y1 = cell.bounds
        vals = {U.eval(x, y, 4, 0, cell=cell)
                + 2 * U.eval(x, y, 2, 2, cell=cell)
                + U.eval(x, y, 0, 4, cell=cell)
                for x, y in zip(rng.uniform(x0, x1, 5),
                                rng.uniform(y0, y1, 5))}
        assert max(vals) - min(vals) <= 1e-10 * max(1.0, abs(max(vals)))

    def test_interior_term_with_polynomial_source(self):
        # with a constant source and degree 2, the residual is f minus a
        # cellwise constant; quadrature is exact, so a hand evaluation
        # on the reference cell must match
        p = uniform_partition(0)
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(2))
        cell = Cell(0, 0, 0)
        fval = 3.25
        rec = indicator(U, lambda x, y: fval * np.ones_like(x), cell, p)
        lap2 = 2 * U.eval(0.3, 0.7, 2, 2, cell=cell)
        assert rec.interior_sq == pytest.approx((fval - lap2) ** 2, rel=1e-11)
        assert rec.jump1_sq == 0.0 and rec.jump2_sq == 0.0

    def test_smooth_quartic_has_no_jumps(self):
        # a single-level C3 space: the Laplacian and its gradient are
        # continuous, so jump terms vanish identically
        p = uniform_partition(2)
        s = build_space(p, 4)
        U = random_spline(s, np.random.default_rng(3))
        ind = estimate_all(U, manufactured_sin2().f, p)
        scale = max(r.eta_sq for r in ind.records.values())
        for rec in ind.records.values():
            assert rec.jump1_sq <= 1e-20 * max(scale, 1.0)
            assert rec.jump2_sq <= 1e-20 * max(scale, 1.0)

    def test_components_match_bruteforce_quadrature_oracle(self):
        # independent integration of every component on a graded mesh;
        # the source is polynomial so both paths are quadrature-exact
        p = graded_7cell()
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(4))
        f = lambda x, y: 2.0 + x + y * x ** 2
        ind = estimate_all(U, f, p)
        interior_edges, _ = edges(p)

        for c, rec in ind.records.items():
            x0, x1, y0, y1 = c.bounds
            xs, wx = gauss_points_1d(x0, x1, 9)
            ys, wy = gauss_points_1d(y0, y1, 9)
            tot = 0.0
            for x, wa in zip(xs, wx):
                for y, wb in zip(ys, wy):
                    lap2 = (U.eval(x, y, 4, 0, cell=c)
                            + 2 * U.eval(x, y, 2, 2, cell=c)
                            + U.eval(x, y, 0, 4, cell=c))
                    tot += wa * wb * (f(x, y) - lap2) ** 2
            assert rec.interior_sq == pytest.approx(c.side ** 4 * tot,
                                                    rel=1e-10, abs=1e-13)
            j1t = j2t = 0.0
            for e in interior_edges:
                if e.plus != c and e.minus != c:
                    continue
                ts, wt = gauss_points_1d(e.lo, e.lo + e.length, 9)
                j1 = j2 = 0.0
                for t, w in zip(ts, wt):
                    pt = (e.fixed, t) if e.axis == 0 else (t, e.fixed)
                    lp = (U.eval(*pt, 2, 0, cell=e.plus)
                          + U.eval(*pt, 0, 2, cell=e.plus))
                    lm = (U.eval(*pt, 2, 0, cell=e.minus)
                          + U.eval(*pt, 0, 2, cell=e.minus))
                    if e.axis == 0:
                        gp = (U.eval(*pt, 3, 0, cell=e.plus)
                              + U.eval(*pt, 1, 2, cell=e.plus))
                        gm = (U.eval(*pt, 3, 0, cell=e.minus)
                              + U.eval(*pt, 1, 2, cell=e.minus))
                    else:
                        gp = (U.eval(*pt, 2, 1, cell=e.plus)
                              + U.eval(*pt, 0, 3, cell=e.plus))
                        gm = (U.eval(*pt, 2, 1, cell=e.minus)
                              + U.eval(*pt, 0, 3, cell=e.minus))
                    j1 += w * (gp - gm) ** 2
                    j2 += w * (lp - lm) ** 2
                j1t += 0.5 * e.length ** 3 * j1
                j2t += 0.5 * e.length * j2
            assert rec.jump1_sq == pytest.approx(j1t, rel=1e-10, abs=1e-16)
            assert rec.jump2_sq == pytest.approx(j2t, rel=1e-10, abs=1e-16)

    def test_jump_sign_convention_irrelevant(self):
        p = graded_7cell()
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(5))
        ind = estimate_all(U, lambda x, y: np.zeros_like(x), p)
        flipped = estimate_all((-1.0) * U, lambda x, y: np.zeros_like(x), p)
        for c in p:
            assert ind.records[c].jump1_sq == pytest.approx(
                flipped.records[c].jump1_sq, rel=1e-12)


class TestEstimateAll:
    def test_zero_data_zero_estimator(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        U = SplineFunction(s, np.zeros(s.dim))
        ind = estimate_all(U, lambda x, y: np.zeros_like(x), p)
        assert ind.total_sq == 0.0

    def test_single_cell_total_equals_record(self):
        p = uniform_partition(0)
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(6))
        ind = estimate_all(U, manufactured_sin2().f, p)
        assert ind.total_sq == pytest.approx(
            ind.records[Cell(0, 0, 0)].eta_sq, rel=1e-15)

    def test_per_cell_sum_equals_total(self):
        p = refine(graded_7cell(), [Cell(2, 1, 0)])
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(7))
        ind = estimate_all(U, manufactured_sin2().f, p)
        assert sum(r.eta_sq for r in ind.records.values()) == pytest.approx(
            ind.total_sq, rel=1e-14)

    def test_subdomain_sum(self):
        p = graded_7cell()
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(8))
        ind = estimate_all(U, manufactured_sin2().f, p)
        subset = list(p)[:3]
        assert ind.restricted_sq(subset) == pytest.approx(
            sum(ind.records[c].eta_sq for c in subset), rel=1e-15)

    def test_scaling_quadratic(self):
        p = graded_7cell()
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(9))
        f = manufactured_sin2().f
        ind1 = estimate_all(U, f, p)
        ind10 = estimate_all(10.0 * U, lambda x, y: 10.0 * f(x, y), p)
        assert ind10.total_sq == pytest.approx(100.0 * ind1.total_sq,
                                               rel=1e-12)

    def test_indicator_matches_estimate_all(self):
        p = graded_7cell()
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(10))
        f = manufactured_sin2().f
        ind = estimate_all(U, f, p)
        for c in p:
            rec = indicator(U, f, c, p)
            assert rec.eta_sq == pytest.approx(ind.records[c].eta_sq,
                                               rel=1e-13)

    @pytest.mark.parametrize("r", [2, 3])
    def test_indicator_equals_estimate_all_exactly(self, r):
        # the cell's own edges are summed in the same key order
        p = refine(refine(graded_7cell(), [Cell(2, 1, 1)]), [Cell(3, 2, 2)])
        s = build_space(p, r)
        U = random_spline(s, np.random.default_rng(12))
        f = manufactured_sin2().f
        ind = estimate_all(U, f, p)
        for c in p:
            assert indicator(U, f, c, p) == ind.records[c]

    @pytest.mark.parametrize("r", [2, 3])
    def test_previous_oscillation_equals_fresh_one(self, r, monkeypatch):
        f = manufactured_sin2().f
        p0 = graded_7cell()
        prev = estimate_all(random_spline(build_space(p0, r),
                                          np.random.default_rng(13)), f, p0)
        p1 = refine(p0, [Cell(2, 1, 1), Cell(1, 1, 1)])
        U = random_spline(build_space(p1, r), np.random.default_rng(14))
        new = [c for c in p1 if c not in p0]
        assert new and len(new) < len(p1)  # some cells persist, some are new
        want = estimate_all(U, f, p1)

        sampled = []
        fresh = afem.estimator.oscillation
        monkeypatch.setattr(afem.estimator, "oscillation",
                            lambda f, tau, *a: sampled.append(tau)
                            or fresh(f, tau, *a))
        got = estimate_all(U, f, p1, previous=prev)
        assert sampled == new
        assert list(got.records) == list(want.records)
        for c in p1:
            assert got.records[c] == want.records[c], c
        assert got.total_sq == want.total_sq
        assert got.osc_total_sq == want.osc_total_sq

    def test_dump_format(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        U = random_spline(s, np.random.default_rng(11))
        ind = estimate_all(U, manufactured_sin2().f, p)
        lines = ind.dump().strip().splitlines()
        assert len(lines) == 4
        assert len(lines[0].split()) == 8


class TestOscillation:
    def test_zero_for_resolvable_polynomials(self):
        cell = Cell(1, 1, 0)
        assert oscillation(lambda x, y: np.full_like(x, 2.5), cell, 2) \
            <= 1e-13
        # degree r-2 = 1 polynomial for cubic splines
        assert oscillation(lambda x, y: 1 + 2 * x - y, cell, 3) <= 1e-13

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_equals_projection_with_modes_built_twice(self, r):
        f = manufactured_sin2().f
        d = r - 2
        for cell in refine(graded_7cell(), [Cell(2, 1, 1)]):
            rule = gauss_cell(cell, 6)
            xs, ys = rule.points[:, 0], rule.points[:, 1]
            vals = f(xs, ys)
            a = np.arange(d + 1)
            norms = np.outer(2 * a + 1, 2 * a + 1).astype(float).ravel() \
                / cell.side ** 2
            cleg = ((_legendre_modes(cell, d, xs, ys) * rule.weights)
                    @ vals.T).T * norms
            resid = vals - cleg @ _legendre_modes(cell, d, xs, ys)
            want = cell.side ** 2 * float(rule.weights @ resid ** 2) ** 0.5
            assert oscillation(f, cell, r, 6) == want

    def test_constant_zero(self):
        assert oscillation(lambda x, y: np.ones_like(x), Cell(0, 0, 0), 2) \
            == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("r,expected_slope", [(2, 3.0), (3, 4.0)])
    def test_global_decay_slope(self, r, expected_slope):
        # global sqrt(sum osc^2) decays like h^(2 + min(r-1, 1)):
        # the projection error order is r-1, capped by the data term
        f = manufactured_sin2().f
        totals = []
        hs = []
        for L in (2, 3, 4):
            p = uniform_partition(L)
            tot = sum(oscillation(f, c, r) ** 2 for c in p)
            totals.append(tot ** 0.5)
            hs.append(2.0 ** -L)
        slope = np.polyfit(np.log(hs), np.log(totals), 1)[0]
        assert slope == pytest.approx(expected_slope, rel=0.2)


class TestDorflerMarking:
    def test_single_dominant_cell(self):
        ind, _ = make_indicators([9.0, 4.0, 1.0, 1.0, 1.0])
        marked = dorfler_mark(ind, 0.5)
        assert len(marked.cells) == 1
        assert ind.records[marked.cells[0]].eta_sq == 9.0

    def test_tie_break_lowest_keys_first(self):
        ind, p = make_indicators([4.0, 4.0, 4.0, 4.0])
        marked = dorfler_mark(ind, 0.5)
        assert len(marked.cells) == 2
        assert list(marked.cells) == sorted(p.cells)[:2]

    def test_theta_one_marks_all_positive(self):
        ind, _ = make_indicators([1.0, 0.0, 2.0, 3.0])
        marked = dorfler_mark(ind, 1.0)
        assert len(marked.cells) == 3
        assert all(ind.records[c].eta_sq > 0 for c in marked.cells)

    def test_zero_total_marks_nothing(self):
        ind, _ = make_indicators([0.0, 0.0, 0.0, 0.0])
        assert dorfler_mark(ind, 0.7).cells == ()

    def test_minimality(self):
        rng = np.random.default_rng(12)
        vals = list(rng.uniform(0.1, 5.0, 16))
        ind, _ = make_indicators(vals)
        for theta in (0.3, 0.5, 0.8):
            marked = dorfler_mark(ind, theta)
            mass = ind.restricted_sq(marked.cells)
            assert mass >= theta * ind.total_sq
            without_last = ind.restricted_sq(marked.cells[:-1])
            assert without_last < theta * ind.total_sq
            assert marked.achieved_fraction == pytest.approx(
                mass / ind.total_sq)

    def test_theta_validation(self):
        ind, _ = make_indicators([1.0, 1.0, 1.0, 1.0])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="theta"):
                dorfler_mark(ind, bad)


class TestEstimatorReduction:
    @pytest.mark.parametrize("seed", range(20))
    def test_reduction_inequality_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        p = graded_7cell() if seed % 2 else uniform_partition(1)
        if seed % 3 == 0:
            p = refine(p, [list(p)[int(rng.integers(len(p)))]])
        s = build_space(p, 2)
        V = random_spline(s, rng)
        f = manufactured_sin2().f
        ind = estimate_all(V, f, p)
        k = int(rng.integers(1, len(p) + 1))
        picks = rng.choice(len(p.cells), size=k, replace=False)
        marked = [p.cells[i] for i in picks]
        p2 = refine(p, marked)
        V2 = coarse_to_fine(V, build_space(p2, 2))
        ind2 = estimate_all(V2, f, p2)
        lhs = ind2.total_sq
        rhs = ind.total_sq - 0.5 * ind.restricted_sq(marked)
        assert lhs <= rhs + 1e-10 * max(1.0, ind.total_sq)

    def test_monotone_on_unrefined_cells(self):
        rng = np.random.default_rng(77)
        p = graded_7cell()
        s = build_space(p, 2)
        V = random_spline(s, rng)
        f = manufactured_sin2().f
        ind = estimate_all(V, f, p)
        marked = [list(p)[0]]
        p2 = refine(p, marked)
        V2 = coarse_to_fine(V, build_space(p2, 2))
        ind2 = estimate_all(V2, f, p2)
        for c in p2:
            if c in ind.records:
                assert ind2.records[c].eta_sq <= \
                    ind.records[c].eta_sq * (1.0 + 1e-10)


class TestLipschitz:
    def test_identical_functions_zero_gap(self):
        p = graded_7cell()
        s = build_space(p, 2)
        V = random_spline(s, np.random.default_rng(13))
        gap, bound = lipschitz_gap(V, V, list(p)[0], p)
        assert gap == 0.0
        assert bound <= 1e-12

    def test_far_perturbation_leaves_local_indicator(self):
        p = uniform_partition(3)
        s = build_space(p, 2)
        rng = np.random.default_rng(14)
        V = random_spline(s, rng)
        tau = Cell(3, 0, 0)
        from afem.mesh import support_extension
        omega = support_extension(p, s, tau)
        far = np.zeros(s.dim)
        for k, fn in enumerate(s.active):
            bx0, bx1, by0, by1 = s.support_box(fn)
            if bx0 >= 0.75 and by0 >= 0.75:  # far corner, outside omega
                far[k] = rng.standard_normal()
        assert np.any(far != 0.0)
        W = V + SplineFunction(s, far)
        gap, _ = lipschitz_gap(V, W, tau, p)
        assert gap <= 1e-12

    def test_ratio_bounded_across_mesh_levels(self):
        # dyadic self-similarity keeps the worst ratio scale-invariant
        # across uniform levels; graded meshes stay the same order
        rng = np.random.default_rng(15)
        ratios = []
        for p in (uniform_partition(2), uniform_partition(3)):
            s = build_space(p, 2)
            worst = 0.0
            for _ in range(100):
                V = random_spline(s, rng)
                W = random_spline(s, rng)
                tau = list(p)[int(rng.integers(len(p)))]
                gap, bound = lipschitz_gap(V, W, tau, p)
                if bound > 1e-12:
                    worst = max(worst, gap / bound)
            ratios.append(worst)
        assert all(np.isfinite(r) for r in ratios)
        assert ratios[1] / ratios[0] == pytest.approx(1.0, abs=0.3)
