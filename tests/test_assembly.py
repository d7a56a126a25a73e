"""Forms, projections, mesh-dependent norms and the boundary defect."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from afem import quadrature
from afem.assembly import (AnalyticField, FormParams, PiecewisePoly,
                           assemble, default_gamma, energy_diff_sq,
                           energy_error_sq, energy_norm_sq, h2_seminorm_sq,
                           inconsistency_apply, inconsistency_load,
                           mesh_norm, project_from_samples, project_laplacian,
                           triple_norm)
from afem.mesh import Cell, edges, refine, uniform_partition
from afem.oracles import (dense_l2_projection, manufactured_sin2,
                          random_spline, scipy_univariate_ders)
from afem.quadrature import gauss_cell, gauss_edge, gauss_points_1d
from afem.solver import SolveOptions, solve
from afem.splines import (SplineFunction, build_space, conforming_indices,
                          quasi_interpolant)


def graded_mesh():
    return refine(uniform_partition(2), [Cell(2, 1, 1), Cell(2, 2, 3)])


def solve_mode(space, f, params):
    A, b = assemble(space, f, params)
    x = solve(A, b, SolveOptions())
    coeffs = np.zeros(space.dim)
    coeffs[list(A.positions)] = x
    return SplineFunction(space, coeffs), A, b


class TestProjectLaplacian:
    def test_reproduces_polynomial_laplacian(self):
        # x^2 y^2 lies in the degree-4 single-cell space and its
        # Laplacian 2x^2 + 2y^2 lies in the degree-2 target space
        s = build_space(uniform_partition(0), 4)
        fn = quasi_interpolant(s, lambda x, y: x ** 2 * y ** 2)
        pi = project_laplacian(fn)
        rng = np.random.default_rng(0)
        cell = Cell(0, 0, 0)
        for x, y in rng.uniform(0.0, 1.0, (25, 2)):
            assert pi.eval(x, y, cell=cell) == pytest.approx(
                2 * x ** 2 + 2 * y ** 2, abs=1e-11)

    def test_degree_bound_and_orthogonality(self):
        p = graded_mesh()
        s = build_space(p, 2)
        fn = random_spline(s, np.random.default_rng(1))
        pi = project_laplacian(fn)
        assert pi.degree == 0
        # residual of the projection is orthogonal to the target space
        for cell in list(p)[::3]:
            rule = gauss_cell(cell, 6)
            xs, ys = rule.points[:, 0], rule.points[:, 1]
            lap = (fn.eval_many(xs, ys, 2, 0, cell)
                   + fn.eval_many(xs, ys, 0, 2, cell))
            resid = lap - pi.eval_many(xs, ys, 0, 0, cell)
            assert abs(float(rule.weights @ resid)) <= 1e-12

    @pytest.mark.parametrize("r", [3, 4])
    def test_matches_dense_gram_oracle(self, r):
        p = refine(uniform_partition(1), [Cell(1, 0, 1)])
        s = build_space(p, r)
        rng = np.random.default_rng(2)
        for trial in range(6):
            fn = random_spline(s, rng)
            pi = project_laplacian(fn)
            for cell in p:
                def lap(x, y, fn=fn, cell=cell):
                    return (fn.eval_many(np.atleast_1d(x), np.atleast_1d(y),
                                         2, 0, cell)
                            + fn.eval_many(np.atleast_1d(x), np.atleast_1d(y),
                                           0, 2, cell))
                ref = dense_l2_projection(r - 2, cell, lap)
                assert np.max(np.abs(pi.coeffs[cell] - ref)) <= 1e-11


class TestAssemble:
    def test_exact_symmetry(self):
        s = build_space(graded_mesh(), 2)
        for mode in ("conforming", "nitsche"):
            A, _ = assemble(s, manufactured_sin2().f, FormParams(mode=mode))
            diff = (A.matrix - A.matrix.T).tocoo()
            assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_conforming_entries_match_nitsche_on_conforming_pairs(self):
        s = build_space(uniform_partition(2), 2)
        f = manufactured_sin2().f
        Ac, _ = assemble(s, f, FormParams(mode="conforming"))
        An, _ = assemble(s, f, FormParams(mode="nitsche"))
        conf = list(Ac.positions)
        lookup = {p: k for k, p in enumerate(An.positions)}
        sub = An.matrix.toarray()[np.ix_([lookup[p] for p in conf],
                                         [lookup[p] for p in conf])]
        scale = np.abs(Ac.matrix.toarray()).max()
        assert np.max(np.abs(sub - Ac.matrix.toarray())) <= 1e-12 * scale

    def test_single_conforming_function_entry_vs_oracle(self):
        # degree 3 on the 2x2 mesh leaves exactly one conforming function
        s = build_space(uniform_partition(1), 3)
        conf = conforming_indices(s)
        assert len(conf) == 1
        A, _ = assemble(s, lambda x, y: np.zeros_like(x),
                        FormParams(mode="conforming"))
        assert A.dimension == 1
        # oracle: scipy univariate evaluation + cellwise dense Gauss
        # (the integrand kinks at the interior knot), no shared code
        lev, ix, iy = s.active[conf[0]]
        pieces = [gauss_points_1d(0.0, 0.5, 12), gauss_points_1d(0.5, 1.0, 12)]
        val = 0.0
        for xs, wx in pieces:
            for ys, wy in pieces:
                for x, wxa in zip(xs, wx):
                    bx = scipy_univariate_ders(lev, 3, ix, float(x), 0)
                    bxx = scipy_univariate_ders(lev, 3, ix, float(x), 2)
                    for y, wya in zip(ys, wy):
                        by = scipy_univariate_ders(lev, 3, iy, float(y), 0)
                        byy = scipy_univariate_ders(lev, 3, iy, float(y), 2)
                        val += wxa * wya * (bxx * by + bx * byy) ** 2
        assert A.matrix[0, 0] == pytest.approx(val, rel=1e-12)

    def test_full_nitsche_matrix_vs_dense_oracle(self):
        # every term of the weak-boundary form recomputed with scipy
        # basis evaluation and direct integration, no shared code
        from afem.mesh import edges

        p = uniform_partition(1)
        s = build_space(p, 2)
        params = FormParams(mode="nitsche", gamma1=3.7, gamma2=1.9, quad_n=6)
        A, _ = assemble(s, lambda x, y: np.zeros_like(x), params)
        n = s.dim

        def B(k, x, y, dx=0, dy=0):
            lev, ix, iy = s.active[k]
            return (scipy_univariate_ders(lev, 2, ix, x, dx)
                    * scipy_univariate_ders(lev, 2, iy, y, dy))

        M = np.zeros((n, n))
        for cell in p:
            x0, x1, y0, y1 = cell.bounds
            xs, wx = gauss_points_1d(x0, x1, 8)
            ys, wy = gauss_points_1d(y0, y1, 8)
            for xv, wa in zip(xs, wx):
                for yv, wb in zip(ys, wy):
                    lap = np.array([B(k, xv, yv, 2, 0) + B(k, xv, yv, 0, 2)
                                    for k in range(n)])
                    M += wa * wb * np.outer(lap, lap)
        _, bdry = edges(p)
        for e in bdry:
            cx0, cx1, cy0, cy1 = e.plus.bounds
            area = (cx1 - cx0) * (cy1 - cy0)
            xs, wx = gauss_points_1d(cx0, cx1, 8)
            ys, wy = gauss_points_1d(cy0, cy1, 8)
            pi = np.zeros(n)  # projection of lap B onto cell constants
            for xv, wa in zip(xs, wx):
                for yv, wb in zip(ys, wy):
                    pi += wa * wb * np.array(
                        [B(k, xv, yv, 2, 0) + B(k, xv, yv, 0, 2)
                         for k in range(n)])
            pi /= area
            nx, ny = e.normal
            ts, wt = gauss_points_1d(e.lo, e.lo + e.length, 8)
            h = e.length
            for t, w in zip(ts, wt):
                xv, yv = (e.fixed, t) if e.axis == 0 else (t, e.fixed)
                v = np.array([B(k, xv, yv) for k in range(n)])
                vn = np.array([nx * B(k, xv, yv, 1, 0)
                               + ny * B(k, xv, yv, 0, 1) for k in range(n)])
                M += w * (-(np.outer(pi, vn) + np.outer(vn, pi))
                          + 3.7 * h ** -3 * np.outer(v, v)
                          + 1.9 * h ** -1 * np.outer(vn, vn))
                # the projected Laplacian is cellwise constant here, so
                # its normal-derivative terms vanish identically
        assert np.abs(A.matrix.toarray() - M).max() <= 1e-12

    def test_empty_conforming_space_raises(self):
        s = build_space(uniform_partition(0), 2)
        with pytest.raises(ValueError, match="conforming"):
            assemble(s, lambda x, y: np.ones_like(x),
                     FormParams(mode="conforming"))

    def test_load_vector_entries(self):
        s = build_space(uniform_partition(1), 2)
        f = lambda x, y: np.ones_like(x)
        _, b = assemble(s, f, FormParams(mode="nitsche"))
        # partition of unity: sum of loads = integral of f = 1
        assert b.values.sum() == pytest.approx(1.0, abs=1e-13)

    def test_export_coo_sorted(self):
        s = build_space(uniform_partition(1), 2)
        A, _ = assemble(s, lambda x, y: np.ones_like(x),
                        FormParams(mode="nitsche"))
        text = A.export_coo()
        rows = [tuple(map(float, ln.split()[:2]))
                for ln in text.strip().splitlines()]
        assert rows == sorted(rows)

    def test_galerkin_orthogonality_residual(self):
        prob = manufactured_sin2()
        s = build_space(uniform_partition(2), 2)
        U, A, b = solve_mode(s, prob.f, FormParams(mode="conforming"))
        resid = A.matrix @ U.coefficients[list(A.positions)] - b.values
        assert np.abs(resid).max() <= 1e-10 * np.linalg.norm(b.values)


class TestCoercivity:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_spd_at_default_gamma(self, r):
        for p in (uniform_partition(2), graded_mesh()):
            s = build_space(p, r)
            A, b = assemble(s, manufactured_sin2().f,
                            FormParams(mode="nitsche"))
            solve(A, b, SolveOptions())  # raises NotSPDError on failure

    def test_tiny_gamma_fails_spd(self):
        from afem.solver import NotSPDError
        s = build_space(uniform_partition(2), 2)
        A, b = assemble(s, manufactured_sin2().f,
                        FormParams(mode="nitsche", gamma1=1e-6, gamma2=1e-6))
        with pytest.raises(NotSPDError):
            solve(A, b, SolveOptions())

    def test_continuity_bound_and_constant_stability(self):
        from scipy.linalg import eigh
        from afem.assembly import triple_norm_matrix

        rng = np.random.default_rng(4)
        params = FormParams(mode="nitsche")
        rp = params.resolved(2)
        conts, coers = [], []
        for p in (uniform_partition(2), uniform_partition(3)):
            s = build_space(p, 2)
            A, _ = assemble(s, lambda x, y: np.zeros_like(x), params)
            T = triple_norm_matrix(s, params)
            w = eigh(A.matrix.toarray(), T.toarray(), eigvals_only=True)
            conts.append(w[-1])
            coers.append(w[0])
            # the fitted constant bounds 100 random pairs
            for _ in range(100):
                v = random_spline(s, rng)
                u = random_spline(s, rng)
                num = abs(v.coefficients @ (A.matrix @ u.coefficients))
                den = (triple_norm(v, p, rp) * triple_norm(u, p, rp))
                assert num <= w[-1] * den * (1.0 + 1e-10)
        # mesh-independence of the fitted constants
        assert conts[1] / conts[0] == pytest.approx(1.0, abs=0.2)
        assert coers[1] / coers[0] == pytest.approx(1.0, abs=0.2)
        assert min(coers) > 0.0

    def test_triple_norm_matrix_matches_functional(self):
        from afem.assembly import triple_norm_matrix

        p = graded_mesh()
        s = build_space(p, 2)
        params = FormParams(mode="nitsche")
        T = triple_norm_matrix(s, params)
        rng = np.random.default_rng(14)
        rp = params.resolved(2)
        for _ in range(5):
            v = random_spline(s, rng)
            quadr = float(v.coefficients @ (T @ v.coefficients)) ** 0.5
            assert quadr == pytest.approx(triple_norm(v, p, rp), rel=1e-11)


class TestProjectionEstimates:
    def test_stability_of_projected_laplacian(self):
        p = graded_mesh()
        s = build_space(p, 3)
        rng = np.random.default_rng(5)
        for _ in range(100):
            fn = random_spline(s, rng)
            pi = project_laplacian(fn)
            norm_pi = 0.0
            norm_lap = 0.0
            for cell in p:
                rule = gauss_cell(cell, 6)
                xs, ys = rule.points[:, 0], rule.points[:, 1]
                norm_pi += float(rule.weights
                                 @ pi.eval_many(xs, ys, 0, 0, cell) ** 2)
                lap = (fn.eval_many(xs, ys, 2, 0, cell)
                       + fn.eval_many(xs, ys, 0, 2, cell))
                norm_lap += float(rule.weights @ lap ** 2)
            assert norm_pi <= norm_lap * (1.0 + 1e-12)

    @pytest.mark.parametrize("r", [2, 3])
    def test_projection_error_rate(self, r):
        from afem.assembly import project_from_samples
        g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = []
        hs = []
        for L in (2, 3, 4, 5):
            p = uniform_partition(L)
            pi = project_from_samples(p, g, r - 2, quad_n=8)
            err = 0.0
            for cell in p:
                rule = gauss_cell(cell, 8)
                xs, ys = rule.points[:, 0], rule.points[:, 1]
                diff = g(xs, ys) - pi.eval_many(xs, ys, 0, 0, cell)
                err += float(rule.weights @ diff ** 2)
            errs.append(err ** 0.5)
            hs.append(2.0 ** -L)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(r - 1, rel=0.15)


class TestMeshNorms:
    def test_conforming_function_has_zero_boundary_norm(self):
        p = uniform_partition(2)
        s = build_space(p, 2)
        conf = conforming_indices(s)
        coeffs = np.zeros(s.dim)
        for k in conf:
            coeffs[k] = 1.0
        fn = SplineFunction(s, coeffs)
        assert mesh_norm(fn, 1.5, p) <= 1e-13
        assert mesh_norm(fn, 0.5, p, normal=True) <= 1e-13

    def test_constant_on_single_cell(self):
        p = uniform_partition(0)
        s = build_space(p, 2)
        one = SplineFunction(s, np.ones(s.dim))
        assert mesh_norm(one, 1.5, p) ** 2 == pytest.approx(4.0, abs=1e-12)

    def test_constant_on_uniform_level_one(self):
        p = uniform_partition(1)
        one = lambda x, y: np.ones_like(x)
        assert mesh_norm(one, 1.5, p) ** 2 == pytest.approx(32.0, abs=1e-11)


    def test_scalar_valued_fields_equal_their_spread_arrays(self):
        p = uniform_partition(1)
        spread = lambda x, y: np.full_like(x, 0.5)
        assert (mesh_norm(lambda x, y: 0.5, 1.5, p)
                == mesh_norm(spread, 1.5, p))
        field = AnalyticField(lambda x, y: 0.5, lambda x, y: (1.0, -2.0))
        full = AnalyticField(spread, lambda x, y: (np.full_like(x, 1.0),
                                                   np.full_like(x, -2.0)))
        for normal in (False, True):
            assert (mesh_norm(field, 0.5, p, normal)
                    == mesh_norm(full, 0.5, p, normal))
        with pytest.raises(ValueError):
            mesh_norm(lambda x, y: np.ones((2, 2)), 1.5, p)
        with pytest.raises(TypeError, match="gradient"):
            mesh_norm(spread, 0.5, p, normal=True)

    def test_gradient_called_once_per_run(self):
        """A field's gradient is called once per run of boundary edges, on
        one 1-D pair strided as a rule's ``points[:, 0]``; one pass gives
        both boundary norms of ``triple_norm``."""
        seen = []

        def grad(x, y):
            seen.append(x)
            return np.cos(x) * y, np.sin(y)

        field = AnalyticField(lambda x, y: x * y, grad,
                              lambda x, y: np.zeros_like(x))
        p = uniform_partition(3)  # 32 boundary edges, one run
        got = mesh_norm(field, 0.5, p, normal=True)
        assert len(seen) == 1 and len(seen[0]) == 32 * 6
        triple_norm(field, p, FormParams(mode="nitsche"))
        assert len(seen) == 2
        assert {(x.ndim, x.strides) for x in seen} == {(1, (16,))}
        want = 0.0
        for e in edges(p)[1]:
            rule = gauss_edge(e, 6)
            gx, gy = grad(rule.points[:, 0], rule.points[:, 1])
            nx, ny = e.normal
            want += float(rule.weights @ (nx * gx + ny * gy) ** 2) / e.length
        assert got == pytest.approx(want ** 0.5, rel=1e-12)


class TestTripleNorm:
    def test_zero_function(self):
        p = uniform_partition(1)
        s = build_space(p, 2)
        zero = SplineFunction(s, np.zeros(s.dim))
        assert triple_norm(zero, p, FormParams(mode="nitsche")) == 0.0

    def test_conforming_equals_energy_norm(self):
        p = uniform_partition(2)
        s = build_space(p, 2)
        conf = conforming_indices(s)
        rng = np.random.default_rng(6)
        coeffs = np.zeros(s.dim)
        for k in conf:
            coeffs[k] = rng.standard_normal()
        fn = SplineFunction(s, coeffs)
        t = triple_norm(fn, p, FormParams(mode="nitsche"))
        e = energy_norm_sq(fn) ** 0.5
        assert t == pytest.approx(e, rel=1e-12)

    def test_analytic_sine_product(self):
        pi_ = np.pi
        u = AnalyticField(
            value=lambda x, y: np.sin(pi_ * x) * np.sin(pi_ * y),
            grad=lambda x, y: (pi_ * np.cos(pi_ * x) * np.sin(pi_ * y),
                               pi_ * np.sin(pi_ * x) * np.cos(pi_ * y)),
            laplacian=lambda x, y: -2 * pi_ ** 2 * np.sin(pi_ * x)
            * np.sin(pi_ * y))
        p = uniform_partition(0)
        params = FormParams(mode="nitsche", gamma1=1.0, gamma2=1.0,
                            quad_n=10)
        val = triple_norm(u, p, params)
        # ||lap u||^2 = pi^4, zero value trace, normal trace mass 2 pi^2
        assert val ** 2 == pytest.approx(pi_ ** 4 + 2 * pi_ ** 2, rel=1e-10)


class TestInconsistency:
    def test_zero_on_conforming_test_functions(self):
        prob = manufactured_sin2()
        p = uniform_partition(2)
        s = build_space(p, 2)
        rng = np.random.default_rng(7)
        conf = conforming_indices(s)
        coeffs = np.zeros(s.dim)
        for k in conf:
            coeffs[k] = rng.standard_normal()
        v = SplineFunction(s, coeffs)
        val = inconsistency_apply(prob.laplacian_u, prob.grad_laplacian_u,
                                  v)
        assert abs(val) <= 1e-12

    def test_zero_when_laplacian_in_target_space(self):
        # u = x^2 + y^2 has constant Laplacian, reproduced exactly by the
        # degree-0 projection, so the defect vanishes for every test fn
        p = uniform_partition(1)
        s = build_space(p, 2)
        lap = lambda x, y: 4.0 * np.ones_like(x)
        grad_lap = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
        rng = np.random.default_rng(8)
        for _ in range(5):
            v = random_spline(s, rng)
            val = inconsistency_apply(lap, grad_lap, v)
            assert abs(val) <= 1e-12

    def test_nonzero_in_general(self):
        prob = manufactured_sin2()
        p = uniform_partition(2)
        s = build_space(p, 2)
        v = random_spline(s, np.random.default_rng(9))
        val = inconsistency_apply(prob.laplacian_u, prob.grad_laplacian_u,
                                  v)
        assert abs(val) > 1e-8

    def test_gradient_called_once_per_run(self, monkeypatch):
        prob = manufactured_sin2()
        seen = []

        def grad(x, y):
            seen.append(x)
            return prob.grad_laplacian_u(x, y)

        s = build_space(uniform_partition(6), 2)  # 256 boundary edges
        inconsistency_load(prob.laplacian_u, grad, s)
        assert len(seen) == 1  # one run of 256 edges of 6 points
        monkeypatch.setattr(quadrature, "_BLOCK_POINTS", 128 * 6)
        inconsistency_load(prob.laplacian_u, grad, s)
        assert len(seen) == 3  # then two runs of 128 edges
        assert {(x.ndim, x.strides) for x in seen} == {(1, (16,))}

    @pytest.mark.parametrize("r", [2, 3])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_direct_edge_integration(self, r, seed):
        prob = manufactured_sin2()
        p = graded_mesh()
        s = build_space(p, r)
        v = random_spline(s, np.random.default_rng(seed))
        got = inconsistency_apply(prob.laplacian_u, prob.grad_laplacian_u,
                                  v)
        # the defect integrated edge by edge with the dense monomial
        # projection and the full normal nx*d/dx + ny*d/dy
        n = max(r + 2, 6)
        _, bdry = edges(p)
        pi = PiecewisePoly(p, r - 2, {
            e.plus: dense_l2_projection(r - 2, e.plus, prob.laplacian_u, n)
            for e in bdry})
        want = 0.0
        for e in bdry:
            rule = gauss_edge(e, n)
            xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
            nx, ny = e.normal
            c = e.plus
            pi_v = pi.eval_many(xs, ys, 0, 0, c)
            pi_n = (nx * pi.eval_many(xs, ys, 1, 0, c)
                    + ny * pi.eval_many(xs, ys, 0, 1, c))
            gx, gy = prob.grad_laplacian_u(xs, ys)
            lap_n = nx * gx + ny * gy
            vn = (nx * v.eval_many(xs, ys, 1, 0, c)
                  + ny * v.eval_many(xs, ys, 0, 1, c))
            want += float(w @ ((pi_n - lap_n) * v.eval_many(xs, ys, 0, 0, c)
                               - (pi_v - prob.laplacian_u(xs, ys)) * vn))
        assert got == pytest.approx(want, rel=1e-12)


class TestPiecewisePolyEval:
    def test_point_outside_stored_cells_raises_key_error(self):
        p = uniform_partition(1)
        full = project_from_samples(p, lambda x, y: x + 2.0 * y, 1)
        pi = PiecewisePoly(p, 1, {Cell(1, 0, 0): full.coeffs[Cell(1, 0, 0)]})
        assert pi.eval(0.25, 0.25) == pytest.approx(0.75, rel=1e-12)
        with pytest.raises(KeyError, match="0.75"):
            pi.eval(0.75, 0.75)

    @pytest.mark.parametrize("r", [2, 3])
    def test_shared_corners_pick_the_spline_cell(self, r):
        """Without a cell, the projected Laplacian is evaluated on the
        cell ``find_cell`` gives, the one a spline is evaluated on."""
        p = uniform_partition(3)
        U = random_spline(build_space(p, r), np.random.default_rng(r))
        pi = project_laplacian(U)
        for x, y in [(0.5, 0.5), (0.25, 0.75), (0.375, 0.125)]:
            cell = p.find_cell(x, y)
            assert pi.eval(x, y) == pi.eval(x, y, cell=cell)
            assert pi.eval(x, y) != pi.eval(x, y, cell=Cell(3, *(
                int(v * 8) - 1 for v in (x, y))))


class TestErrorIntegrals:
    def test_energy_error_of_exact_representation(self):
        # quartic spline space contains x^2 y^2 exactly
        s = build_space(uniform_partition(1), 4)
        fn = quasi_interpolant(s, lambda x, y: x ** 2 * y ** 2)
        lap = lambda x, y: 2 * x ** 2 + 2 * y ** 2
        assert energy_error_sq(lap, fn) <= 1e-20

    def test_energy_diff_requires_nested(self):
        s1 = build_space(uniform_partition(1), 2)
        s2 = build_space(uniform_partition(2), 2)
        f1 = random_spline(s1, np.random.default_rng(10))
        f2 = random_spline(s2, np.random.default_rng(11))
        val = energy_diff_sq(f2, f1)
        assert val >= 0.0
        with pytest.raises(ValueError, match="nested"):
            energy_diff_sq(f1, f2)

    def test_h2_seminorm_of_linear_is_zero(self):
        s = build_space(uniform_partition(1), 2)
        fn = quasi_interpolant(s, lambda x, y: 1.0 + 2 * x - 3 * y)
        assert h2_seminorm_sq(fn) <= 1e-22


class TestDiscreteEstimates:
    """Trace and inverse inequalities for cellwise polynomials.

    The scaled ratios must be level-independent (constants depend only
    on the degree), which is what the quadrature-based audit checks.
    """

    def test_trace_and_inverse_constants_scale_free(self):
        from afem.mesh import edges

        rng = np.random.default_rng(20)
        worst_trace = []
        worst_inverse = []
        for L in (1, 2, 3):
            p = uniform_partition(L)
            s = build_space(p, 3)
            interior, bdry = edges(p)
            wt = wi = 0.0
            for _ in range(30):
                fn = random_spline(s, rng)
                cell = list(p)[int(rng.integers(len(p)))]
                rule = gauss_cell(cell, 6)
                xs, ys = rule.points[:, 0], rule.points[:, 1]
                l2_sq = float(rule.weights
                              @ fn.eval_many(xs, ys, 0, 0, cell) ** 2)
                gx = fn.eval_many(xs, ys, 1, 0, cell)
                gy = fn.eval_many(xs, ys, 0, 1, cell)
                h1_sq = float(rule.weights @ (gx ** 2 + gy ** 2))
                wi = max(wi, (h1_sq / l2_sq) ** 0.5 * cell.side)
                for e in interior + bdry:
                    if e.plus != cell:
                        continue
                    from afem.quadrature import gauss_edge

                    er = gauss_edge(e, 6)
                    tr_sq = float(er.weights @ fn.eval_many(
                        er.points[:, 0], er.points[:, 1], 0, 0, cell) ** 2)
                    wt = max(wt, (tr_sq / l2_sq) ** 0.5 * e.length ** 0.5)
            worst_trace.append(wt)
            worst_inverse.append(wi)
        for seq in (worst_trace, worst_inverse):
            assert all(np.isfinite(v) and v > 0 for v in seq)
            assert max(seq) / min(seq) <= 1.5


def test_default_gamma_values():
    assert default_gamma(2) == 810.0
    assert default_gamma(3) == 2560.0


def test_form_params_validation():
    with pytest.raises(ValueError):
        FormParams(mode="weird")
    with pytest.raises(ValueError):
        FormParams(mode="nitsche", gamma1=-1.0).resolved(2)


@pytest.mark.parametrize("bad", [0, -3, 2.5, 6.0, "6", True])
def test_form_params_reject_a_rule_that_is_not_a_positive_integer(bad):
    with pytest.raises(ValueError, match="quad_n must be a positive integer"):
        FormParams(quad_n=bad)


def test_form_params_take_any_positive_integer_rule():
    assert FormParams(quad_n=np.int64(3)).resolved(2).quad_n == 3
    assert FormParams(quad_n=1).resolved(4).quad_n == 1


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["gamma1", "gamma2"])
def test_form_params_reject_non_finite_gamma(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be positive and "
                                         "finite"):
        FormParams("nitsche", **{name: bad})
