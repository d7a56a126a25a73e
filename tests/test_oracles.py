"""Self-validation of the ground-truth generators."""

import numpy as np
import pytest

from afem.mesh import Cell, uniform_partition
from afem.oracles import (AnalyticCallable, dense_l2_projection, fd_check,
                          global_dual_basis, gram_matrix, manufactured_sin2,
                          random_spline, zero_problem)
from afem.quadrature import gauss_cell
from afem.splines import (DualFunctionalSet, SplineFunction, build_space,
                          quasi_interpolant)


class TestManufacturedSin2:
    def test_peak_value_and_clamped_boundary(self):
        mp = manufactured_sin2()
        assert mp.u(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
        t = np.linspace(0.0, 1.0, 100)
        for xs, ys, nx, ny in ((np.zeros_like(t), t, -1, 0),
                               (np.ones_like(t), t, 1, 0),
                               (t, np.zeros_like(t), 0, -1),
                               (t, np.ones_like(t), 0, 1)):
            assert np.max(np.abs(mp.u(xs, ys))) <= 1e-12
            gx, gy = mp.grad_u(xs, ys)
            assert np.max(np.abs(nx * gx + ny * gy)) <= 1e-12

    def test_source_matches_finite_differences_of_u(self):
        # step 2.5e-3 keeps the O(h^2) stencil truncation below the
        # 1e-4 relative tolerance for this oscillatory solution
        mp = manufactured_sin2()
        rng = np.random.default_rng(0)
        h = 2.5e-3
        for x, y in rng.uniform(0.2, 0.8, (50, 2)):
            num = 0.0
            # lap^2 u = u_xxxx + 2 u_xxyy + u_yyyy via composed stencils
            from math import comb
            for i in range(5):
                num += (-1) ** i * comb(4, i) * (
                    mp.u(x + (2 - i) * h, y) + mp.u(x, y + (2 - i) * h))
            for i in range(3):
                for j in range(3):
                    num += 2 * (-1) ** (i + j) * comb(2, i) * comb(2, j) \
                        * mp.u(x + (1 - i) * h, y + (1 - j) * h)
            num /= h ** 4
            assert num == pytest.approx(mp.f(x, y), rel=1e-4, abs=1e-3)

    def test_laplacian_matches_fd(self):
        mp = manufactured_sin2()
        rng = np.random.default_rng(1)
        h = 1e-4
        for x, y in rng.uniform(0.1, 0.9, (20, 2)):
            num = (mp.u(x + h, y) + mp.u(x - h, y) + mp.u(x, y + h)
                   + mp.u(x, y - h) - 4 * mp.u(x, y)) / h ** 2
            assert num == pytest.approx(mp.laplacian_u(x, y),
                                        rel=1e-6, abs=1e-6)

    def test_grad_laplacian_matches_fd(self):
        mp = manufactured_sin2()
        rng = np.random.default_rng(2)
        h = 1e-5
        for x, y in rng.uniform(0.1, 0.9, (10, 2)):
            gx = (mp.laplacian_u(x + h, y) - mp.laplacian_u(x - h, y)) / (2 * h)
            gy = (mp.laplacian_u(x, y + h) - mp.laplacian_u(x, y - h)) / (2 * h)
            ax, ay = mp.grad_laplacian_u(x, y)
            assert gx == pytest.approx(ax, rel=1e-6, abs=1e-5)
            assert gy == pytest.approx(ay, rel=1e-6, abs=1e-5)

    def test_zero_problem_is_zero(self):
        zp = zero_problem()
        assert zp.f(0.3, 0.4) == 0.0
        assert zp.u(0.3, 0.4) == 0.0


class TestFdCheck:
    def test_quadratic_monomial(self):
        fn = AnalyticCallable(
            value=lambda x, y: x ** 2,
            derivative=lambda x, y, ax, ay: {(0, 0): x ** 2, (1, 0): 2 * x,
                                             (2, 0): 2.0}.get((ax, ay), 0.0))
        analytic, numeric, gap = fd_check(fn, 0.4, 0.6, (2, 0), step=1e-2)
        assert analytic == 2.0
        assert numeric == pytest.approx(2.0, abs=1e-10)

    def test_constant_all_gaps_small(self):
        fn = AnalyticCallable(value=lambda x, y: 7.0,
                              derivative=lambda x, y, ax, ay:
                              7.0 if ax == ay == 0 else 0.0)
        for alpha in ((1, 0), (0, 2), (2, 2), (1, 1)):
            _, _, gap = fd_check(fn, 0.5, 0.5, alpha, step=1e-3)
            assert gap <= 1e-12 * max(1.0, 7.0 / 1e-3 ** sum(alpha) * 1e-15)

    def test_random_spline_mixed_derivative(self):
        # gap measured against the derivative scale of the function;
        # pointwise ratios degenerate where the derivative crosses zero
        p = uniform_partition(2)
        s = build_space(p, 4)
        fn = random_spline(s, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        rows = []
        while len(rows) < 100:
            x, y = rng.uniform(0.05, 0.95, 2)
            try:
                rows.append(fd_check(fn, x, y, (2, 2), step=1e-3))
            except ValueError:
                continue
        scale = max(abs(a) for a, _, _ in rows)
        assert max(g for _, _, g in rows) <= 1e-4 * scale

    def test_stencil_across_cell_boundary_rejected(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        fn = random_spline(s, np.random.default_rng(5))
        with pytest.raises(ValueError, match="stencil"):
            fd_check(fn, 0.4999, 0.25, (2, 0), step=1e-3)

    def test_order_cap(self):
        fn = AnalyticCallable(value=lambda x, y: 0.0,
                              derivative=lambda x, y, ax, ay: 0.0)
        with pytest.raises(ValueError):
            fd_check(fn, 0.5, 0.5, (3, 2))


class TestDenseProjection:
    def test_reproduces_target_degree_polynomial(self):
        cell = Cell(1, 1, 0)
        g = lambda x, y: 2.0 - x + 3 * y - x * y
        coef = dense_l2_projection(1, cell, g)
        x0, x1, y0, y1 = cell.bounds
        rng = np.random.default_rng(6)
        for x, y in zip(rng.uniform(x0, x1, 10), rng.uniform(y0, y1, 10)):
            xi = 2 * (x - x0) / (x1 - x0) - 1
            zeta = 2 * (y - y0) / (y1 - y0) - 1
            val = sum(coef[a, b] * xi ** a * zeta ** b
                      for a in range(2) for b in range(2))
            assert val == pytest.approx(g(x, y), abs=1e-12)

    def test_zero_input(self):
        coef = dense_l2_projection(2, Cell(0, 0, 0),
                                   lambda x, y: np.zeros_like(x))
        assert np.max(np.abs(coef)) <= 1e-15


class TestGlobalDualBasis:
    def test_identity_on_single_cell_space(self):
        s = build_space(uniform_partition(0), 2)
        D = global_dual_basis(s)
        M = gram_matrix(s)
        assert np.max(np.abs(D @ M - np.eye(s.dim))) <= 1e-10

    def test_rejects_large_spaces(self):
        s = build_space(uniform_partition(4), 3)
        with pytest.raises(ValueError):
            global_dual_basis(s)

    def test_global_and_local_interpolants_agree_on_splines(self):
        from afem.mesh import refine

        p = refine(uniform_partition(1), [Cell(1, 0, 0)])
        s = build_space(p, 2)
        fn = random_spline(s, np.random.default_rng(7))
        # global route: coefficients = D @ (integrals of f against basis)
        D = global_dual_basis(s)
        loads = np.zeros(s.dim)
        for cell in p:
            rule = gauss_cell(cell, 5)
            pos, tabs = s.basis_on_cell(cell, rule.points[:, 0],
                                        rule.points[:, 1], [(0, 0)])
            vals = fn.eval_many(rule.points[:, 0], rule.points[:, 1],
                                0, 0, cell)
            loads[list(pos)] += tabs[(0, 0)] @ (rule.weights * vals)
        coefs_global = D @ loads
        local = quasi_interpolant(s, fn)
        assert np.max(np.abs(coefs_global - fn.coefficients)) <= 1e-10
        assert np.max(np.abs(local.coefficients - fn.coefficients)) <= 1e-12

    def test_both_interpolants_locally_stable_on_smooth_data(self):
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        p = uniform_partition(2)
        s = build_space(p, 2)
        D = global_dual_basis(s)
        loads = np.zeros(s.dim)
        for cell in p:
            rule = gauss_cell(cell, 6)
            pos, tabs = s.basis_on_cell(cell, rule.points[:, 0],
                                        rule.points[:, 1], [(0, 0)])
            loads[list(pos)] += tabs[(0, 0)] @ (
                rule.weights * f(rule.points[:, 0], rule.points[:, 1]))
        fn_global = SplineFunction(s, D @ loads)
        fn_local = quasi_interpolant(s, f)
        from afem.mesh import support_extension

        consts = []
        for fn in (fn_global, fn_local):
            worst = 0.0
            for cell in p:
                rule = gauss_cell(cell, 6)
                num = float(rule.weights @ fn.eval_many(
                    rule.points[:, 0], rule.points[:, 1], 0, 0, cell) ** 2)
                den = 0.0
                for q in support_extension(s, cell):
                    rq = gauss_cell(q, 6)
                    den += float(rq.weights @ f(rq.points[:, 0],
                                                rq.points[:, 1]) ** 2)
                worst = max(worst, (num / den) ** 0.5)
            consts.append(worst)
        # the two constructions differ on non-spline data but share the
        # stability constant within 50%
        assert consts[0] <= 1.0 and consts[1] <= 1.0
        assert consts[1] / consts[0] == pytest.approx(1.0, abs=0.5)


class TestDualFunctionalSet:
    def test_weights_live_on_support(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        duals = DualFunctionalSet(s)
        for k, fn in enumerate(s.active):
            x0, x1, y0, y1 = s.support_box(fn)
            pts = duals.functionals[k].points
            assert np.all(pts[:, 0] >= x0 - 1e-14)
            assert np.all(pts[:, 0] <= x1 + 1e-14)
            assert np.all(pts[:, 1] >= y0 - 1e-14)
            assert np.all(pts[:, 1] <= y1 + 1e-14)
