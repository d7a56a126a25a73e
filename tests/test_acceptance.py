"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one ``ACCEPTANCE k [...] PASS/FAIL`` line (run
with ``pytest -s`` to see them live).  The manufactured adaptive runs
are shared module-scoped fixtures; the conforming run goes to 20k
degrees of freedom as the criteria demand.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from afem.assembly import (FormParams, assemble, inconsistency_apply,
                           project_from_samples, project_laplacian)
from afem.driver import (AfemConfig, Problem, contraction_ratios,
                         default_c_est, effectivity, inconsistency_sup,
                         pythagoras_check, run)
from afem.estimator import estimate_all, lipschitz_gap
from afem.mesh import Partition, refine, uniform_partition
from afem.oracles import (dense_l2_projection, facet_edges_bruteforce,
                          manufactured_sin2, random_spline)
from afem.quadrature import gauss_cell
from afem.solver import solve
from afem.splines import (SplineFunction, build_space, coarse_to_fine,
                          conforming_indices)

SIN2 = Problem.from_manufactured(manufactured_sin2())


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} [{name}]: PASS")


@pytest.fixture(scope="module")
def conforming_20k():
    states = []
    cfg = AfemConfig(degree=2, theta=0.5, mode="conforming",
                     initial_levels=2, max_dofs=20000)
    records = run(cfg, SIN2, on_iteration=states.append)
    assert records[-1].n_dofs >= 20000
    return records, states


@pytest.fixture(scope="module")
def nitsche_20k():
    cfg = AfemConfig(degree=2, theta=0.5, mode="nitsche",
                     initial_levels=2, max_dofs=20000)
    records = run(cfg, SIN2)
    return records


@pytest.mark.slow
def test_criterion_1_conforming_contraction(conforming_20k):
    with criterion(1, "conforming contraction"):
        records, _ = conforming_20k
        c_est = default_c_est(records)
        rhos = contraction_ratios(records, c_est)
        assert len(rhos) >= 5
        assert max(rhos) <= 0.97
        geo = float(np.exp(np.mean(np.log(rhos))))
        assert geo <= 0.9


@pytest.mark.parametrize("r", [2, 3])
def test_criterion_2_a_priori_rate(r):
    with criterion(2, f"a priori energy rate, degree {r}"):
        errs = []
        hs = []
        for L in (2, 3, 4, 5):
            p = uniform_partition(L)
            s = build_space(p, r)
            A, b = assemble(s, SIN2.f, FormParams(mode="conforming"))
            x = solve(A, b)
            coeffs = np.zeros(s.dim)
            coeffs[list(A.positions)] = x
            U = SplineFunction(s, coeffs)
            from afem.assembly import energy_error_sq

            errs.append(energy_error_sq(SIN2.laplacian_u, U) ** 0.5)
            hs.append(2.0 ** -L)
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        assert abs(slope - (r - 1)) <= 0.15 * (r - 1)


@pytest.mark.slow
def test_criterion_3_reliability_efficiency(conforming_20k):
    with criterion(3, "effectivity window"):
        records, _ = conforming_20k
        effs = effectivity(records)
        assert all(1.0 <= e <= 20.0 for e in effs)
        tail = effs[-4:]
        assert max(tail) / min(tail) <= 3.0


@pytest.mark.slow
def test_criterion_4_galerkin_orthogonality(conforming_20k):
    with criterion(4, "Galerkin orthogonality residual"):
        _, states = conforming_20k
        for st in states:
            r = (st.system.matrix
                 @ st.solution.coefficients[list(st.system.positions)]
                 - st.load.values)
            assert np.abs(r).max() <= 1e-10 * np.linalg.norm(st.load.values)


@pytest.mark.slow
def test_criterion_5_galerkin_pythagoras(conforming_20k):
    with criterion(5, "orthogonality identity between iterates"):
        _, states = conforming_20k
        for a, b in zip(states, states[1:]):
            _, _, gap = pythagoras_check(SIN2, a, b)
            assert gap <= 1e-8


def test_criterion_6_estimator_reduction():
    with criterion(6, "estimator reduction"):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            p = uniform_partition(1 + seed % 2)
            for _ in range(seed % 3):
                picks = rng.choice(len(p.cells), size=1)
                p = refine(p, [p.cells[int(picks[0])]])
            s = build_space(p, 2)
            V = random_spline(s, rng)
            ind = estimate_all(V, SIN2.f)
            k = int(rng.integers(1, len(p) + 1))
            picks = rng.choice(len(p.cells), size=k, replace=False)
            marked = [p.cells[i] for i in picks]
            p2 = refine(p, marked)
            V2 = coarse_to_fine(V, build_space(p2, 2))
            ind2 = estimate_all(V2, SIN2.f)
            assert ind2.total_sq <= (ind.total_sq
                                     - 0.5 * ind.restricted_sq(marked)
                                     + 1e-10 * max(1.0, ind.total_sq))


def test_criterion_7_estimator_lipschitz():
    with criterion(7, "estimator Lipschitz stability"):
        rng = np.random.default_rng(42)
        maxima = []
        for L in (2, 3):
            p = uniform_partition(L)
            s = build_space(p, 2)
            worst = 0.0
            for _ in range(200):
                V = random_spline(s, rng)
                W = random_spline(s, rng)
                tau = list(p)[int(rng.integers(len(p)))]
                gap, bound = lipschitz_gap(V, W, tau)
                if bound > 1e-12:
                    worst = max(worst, gap / bound)
            maxima.append(worst)
        assert all(np.isfinite(m) and m > 0 for m in maxima)
        assert maxima[1] / maxima[0] <= 1.3
        assert maxima[1] / maxima[0] >= 1.0 / 1.3


def test_criterion_8_projection_suite():
    with criterion(8, "projected-Laplacian suite"):
        # (a) exact reproduction of degree r-2 data
        p0 = uniform_partition(1)
        for r in (2, 3, 4):
            poly = (lambda x, y: 2.0 + 0.0 * x) if r == 2 else \
                (lambda x, y: 1.0 + x - 2 * y)
            pi = project_from_samples(p0, poly, r - 2)
            for cell in p0:
                rule = gauss_cell(cell, 4)
                xs, ys = rule.points[:, 0], rule.points[:, 1]
                diff = poly(xs, ys) - pi.eval_many(xs, ys, 0, 0, cell)
                assert np.max(np.abs(diff)) <= 1e-12
        # (b) stability on 100 random spline Laplacians
        p = uniform_partition(2)
        s = build_space(p, 3)
        rng = np.random.default_rng(7)
        for _ in range(100):
            fn = random_spline(s, rng)
            pi = project_laplacian(fn)
            n_pi = n_lap = 0.0
            for cell in p:
                rule = gauss_cell(cell, 6)
                xs, ys = rule.points[:, 0], rule.points[:, 1]
                n_pi += float(rule.weights
                              @ pi.eval_many(xs, ys, 0, 0, cell) ** 2)
                lap = (fn.eval_many(xs, ys, 2, 0, cell)
                       + fn.eval_many(xs, ys, 0, 2, cell))
                n_lap += float(rule.weights @ lap ** 2)
            assert n_pi <= n_lap * (1.0 + 1e-12)
        # (c) dense-Gram oracle agreement on 20 random splines
        s2 = build_space(uniform_partition(1), 3)
        rng = np.random.default_rng(8)
        for _ in range(20):
            fn = random_spline(s2, rng)
            pi = project_laplacian(fn)
            for cell in s2.partition:
                def lap(x, y, fn=fn, cell=cell):
                    return (fn.eval_many(np.atleast_1d(x),
                                         np.atleast_1d(y), 2, 0, cell)
                            + fn.eval_many(np.atleast_1d(x),
                                           np.atleast_1d(y), 0, 2, cell))
                ref = dense_l2_projection(1, cell, lap)
                assert np.max(np.abs(pi.coeffs[cell] - ref)) <= 1e-11
        # (d) L2 projection error rate ~ r-1
        g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        for r in (2, 3):
            errs = []
            hs = []
            for L in (2, 3, 4, 5):
                pl = uniform_partition(L)
                pi = project_from_samples(pl, g, r - 2, quad_n=8)
                err = 0.0
                for cell in pl:
                    rule = gauss_cell(cell, 8)
                    xs, ys = rule.points[:, 0], rule.points[:, 1]
                    diff = g(xs, ys) - pi.eval_many(xs, ys, 0, 0, cell)
                    err += float(rule.weights @ diff ** 2)
                errs.append(err ** 0.5)
                hs.append(2.0 ** -L)
            slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
            assert abs(slope - (r - 1)) <= 0.15 * (r - 1)


def test_criterion_9_nitsche_coercivity_and_consistency():
    with criterion(9, "weak-boundary coercivity and consistency"):
        # SPD at the default stabilization for degrees 2..4
        graded = refine(uniform_partition(2), [uniform_partition(2).cells[5]])
        for r in (2, 3, 4):
            for p in (uniform_partition(2), graded):
                s = build_space(p, r)
                A, b = assemble(s, SIN2.f, FormParams(mode="nitsche"))
                solve(A, b)
        # the defect annihilates conforming test functions
        p = uniform_partition(2)
        s = build_space(p, 2)
        rng = np.random.default_rng(11)
        conf = conforming_indices(s)
        coeffs = np.zeros(s.dim)
        for k in conf:
            coeffs[k] = rng.standard_normal()
        v = SplineFunction(s, coeffs)
        val = inconsistency_apply(SIN2.laplacian_u, SIN2.grad_laplacian_u,
                                  v)
        assert abs(val) <= 1e-12
        # surrogate dual norm decays with order >= 1 on uniform levels
        sups = []
        hs = []
        params = FormParams(mode="nitsche")
        for L in (2, 3, 4, 5):
            sl = build_space(uniform_partition(L), 2)
            sups.append(inconsistency_sup(SIN2, sl, params,
                                          np.random.default_rng(0)))
            hs.append(2.0 ** -L)
        slope = float(np.polyfit(np.log(hs), np.log(sups), 1)[0])
        assert slope >= 1.0


@pytest.mark.slow
def test_criterion_10_nitsche_boundary_control(nitsche_20k):
    with criterion(10, "weak-boundary trace decay"):
        records = nitsche_20k
        assert records[-1].bnorm32 <= 0.1 * records[0].bnorm32
        assert records[-1].bnorm12 <= 0.1 * records[0].bnorm12


def test_criterion_11_mesh_invariants():
    with criterion(11, "mesh invariants under random refinement"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p = uniform_partition(1)
            for _ in range(3):
                k = int(rng.integers(1, 4))
                picks = rng.choice(len(p.cells), size=min(k, len(p.cells)),
                                   replace=False)
                marked = [p.cells[i] for i in picks]
                p2 = refine(p, marked)
                # grading, disjointness, cover are constructor-validated
                Partition(p2.cells)
                # nestedness
                for c in p2:
                    owners = [o for o in p if o.level <= c.level
                              and c.ancestor(o.level) == o]
                    assert len(owners) == 1
                p = p2
            from afem.mesh import edges

            interior, boundary = edges(p)
            oracle_int, oracle_bd = facet_edges_bruteforce(p)
            got_int = sorted((e.axis, e.level,
                              round(e.fixed * (1 << e.level)),
                              round(e.lo * (1 << e.level)),
                              e.plus, e.minus) for e in interior)
            assert got_int == sorted(oracle_int)
            assert len(boundary) == len(oracle_bd)


def test_criterion_12_reproducibility(tmp_path):
    with criterion(12, "byte-identical reruns"):
        from afem.cli import main

        args = ["--problem", "sin2", "--mode", "conforming", "--degree",
                "2", "--theta", "0.5", "--initial-levels", "2",
                "--max-dofs", "400"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "convergence.csv").read_bytes()
        csv_b = (tmp_path / "b" / "convergence.csv").read_bytes()
        assert csv_a == csv_b
        assert b"\r\n" in csv_a  # RFC-4180 line endings on disk
