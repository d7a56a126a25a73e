"""Adaptive loop behaviour, convergence bookkeeping and identities."""

import re
from dataclasses import replace

import numpy as np
import pytest

import afem.driver
from afem import quadrature
from afem.assembly import (FormParams, energy_diff_sq, inconsistency_load,
                           triple_norm_matrix, _mesh_norms)
from afem.driver import (AfemConfig, Problem, contraction_ratios,
                         default_c_est, discrete_reliability_probe,
                         effectivity, inconsistency_sup, pythagoras_check,
                         records_to_csv, run, run_summary, CSV_HEADER,
                         _SampleMemo)
from afem.estimator import Indicators
from afem.mesh import Cell, uniform_partition
from afem.oracles import manufactured_sin2, zero_problem
from afem.solver import SolveOptions
from afem.splines import build_space, conforming_indices, SplineFunction


SIN2 = Problem.from_manufactured(manufactured_sin2())


@pytest.fixture(scope="module")
def short_conforming_run():
    states = []
    cfg = AfemConfig(degree=2, theta=0.5, mode="conforming",
                     initial_levels=2, max_dofs=700)
    records = run(cfg, SIN2, on_iteration=states.append)
    return cfg, records, states


@pytest.fixture(scope="module")
def short_nitsche_run():
    states = []
    cfg = AfemConfig(degree=2, theta=0.5, mode="nitsche",
                     initial_levels=2, max_dofs=700)
    records = run(cfg, SIN2, on_iteration=states.append)
    return cfg, records, states


class TestRunBasics:
    def test_zero_source_stops_immediately(self):
        cfg = AfemConfig(degree=2, theta=0.5, mode="conforming",
                         initial_levels=2, max_dofs=4000)
        records = run(cfg, Problem.from_manufactured(zero_problem()))
        assert len(records) == 1
        assert records[0].eta == 0.0
        assert records[0].marked_count == 0
        assert records[0].energy_error == 0.0

    def test_errors_and_estimator_decrease(self, short_conforming_run):
        _, records, _ = short_conforming_run
        assert len(records) >= 4
        for a, b in zip(records[1:], records[2:]):
            assert b.energy_error < a.energy_error
            assert b.eta < a.eta

    def test_conforming_energy_error_non_increasing(self,
                                                    short_conforming_run):
        _, records, _ = short_conforming_run
        for a, b in zip(records, records[1:]):
            assert b.energy_error <= a.energy_error * (1.0 + 1e-12)

    def test_dofs_monotone_and_cells_grow(self, short_conforming_run):
        _, records, _ = short_conforming_run
        for a, b in zip(records, records[1:]):
            assert b.n_dofs >= a.n_dofs
            assert b.n_cells > a.n_cells

    def test_conforming_boundary_norms_vanish(self, short_conforming_run):
        _, records, _ = short_conforming_run
        for rec in records:
            assert rec.bnorm32 <= 1e-10
            assert rec.bnorm12 <= 1e-10

    def test_full_marking_reproduces_uniform_refinement(self):
        cfg = AfemConfig(degree=2, theta=1.0, mode="nitsche",
                         initial_levels=1, max_dofs=400, max_iters=4)
        records = run(cfg, SIN2)
        assert [r.n_cells for r in records] == [4, 16, 64, 256]

    def test_too_coarse_conforming_mesh_raises(self):
        cfg = AfemConfig(degree=2, theta=0.5, mode="conforming",
                         initial_levels=0, max_dofs=100)
        with pytest.raises(ValueError, match="conforming|finer"):
            run(cfg, SIN2)

    def test_max_dofs_below_initial_space_raises(self):
        with pytest.raises(ValueError, match="max_dofs"):
            AfemConfig(degree=2, theta=0.5, mode="nitsche",
                       initial_levels=2, max_dofs=5)

    def test_initial_levels_above_max_level_raises(self):
        with pytest.raises(ValueError, match="initial_levels"):
            AfemConfig(initial_levels=32)

    def test_boundary_compatibility_validated(self):
        bad = Problem(name="bad", f=lambda x, y: np.ones_like(x),
                      u=lambda x, y: np.ones_like(x),
                      grad_u=lambda x, y: (np.zeros_like(x),
                                           np.zeros_like(x)),
                      laplacian_u=lambda x, y: np.zeros_like(x))
        cfg = AfemConfig(degree=2, initial_levels=2, max_dofs=100)
        with pytest.raises(ValueError, match="boundary"):
            run(cfg, bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AfemConfig(theta=0.0)
        with pytest.raises(ValueError):
            AfemConfig(theta=1.2)
        with pytest.raises(ValueError):
            AfemConfig(initial_levels=-1)
        with pytest.raises(ValueError):
            AfemConfig(mode="collocation")

    @pytest.mark.parametrize("cls,field,value", [
        (AfemConfig, "degree", 2.5), (AfemConfig, "degree", True),
        (AfemConfig, "initial_levels", 1.5), (AfemConfig, "max_iters", 2.5),
        (AfemConfig, "max_dofs", 200.5),
        (AfemConfig, "theta", "0.5"), (AfemConfig, "gamma1", "1"),
        (FormParams, "gamma1", "1"), (FormParams, "gamma2", [1.0]),
        (FormParams, "gamma2", True), (SolveOptions, "max_iter", 2.5),
        (SolveOptions, "tol", "1e-8"), (AfemConfig, "truncated", "no"),
        (AfemConfig, "track_inconsistency", None),
        (AfemConfig, "solver", "cg"),
    ])
    def test_setting_of_the_wrong_type_fails_at_construction(self, cls, field,
                                                             value):
        with pytest.raises(ValueError, match=f"^{field} must be an? "):
            cls(**{field: value})
        # numpy scalars are numbers
        AfemConfig(degree=np.int64(3), theta=np.float64(0.5),
                   max_dofs=np.int64(500), gamma1=np.float32(5.0))
        SolveOptions(tol=np.float64(1e-6), max_iter=np.int32(10))

    @pytest.mark.parametrize("entries,message", [
        ({"f": None}, "f must be callable, got None"),
        ({"laplacian_u": 1.0}, "laplacian_u must be None or callable, "
                               "got 1.0"),
        ({"grad_u": (np.sin, np.cos)}, "grad_u must be None or callable"),
    ])
    def test_problem_data_that_is_not_callable_fails_at_construction(
            self, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            Problem("x", **{"f": lambda x, y: x, **entries})

    @pytest.mark.parametrize("name", [5, None, b"peak", ("a",)])
    def test_problem_name_that_is_not_a_string_fails_at_construction(
            self, name):
        """The manifest echoes the name, so a non-string never gets there."""
        with pytest.raises(ValueError, match=f"^name must be a string, got "
                                             f"{re.escape(repr(name))}"):
            Problem(name, lambda x, y: x)

    def test_from_manufactured_returns_its_checked_problem(self):
        prob = manufactured_sin2()
        assert Problem.from_manufactured(prob) is prob

    @pytest.mark.parametrize("bad", [0, 2.5])
    def test_rule_that_is_not_a_positive_integer_raises_unbuilt(
            self, bad, monkeypatch):
        """The config rejects the rule through its ``FormParams`` before
        any partition or space is built."""
        def unbuilt(*args):
            raise AssertionError("built a partition")

        monkeypatch.setattr("afem.driver.uniform_partition", unbuilt)
        with pytest.raises(ValueError, match="quad_n must be a positive"):
            AfemConfig(quad_n=bad)


class TestPolynomialExactness:
    def test_quartic_space_reproduces_polynomial_bubble(self):
        # the clamped bubble lies in the degree-4 conforming subspace,
        # so the whole pipeline must return it to solver precision
        from afem.oracles import manufactured_bubble

        prob = Problem.from_manufactured(manufactured_bubble())
        cfg = AfemConfig(degree=4, theta=0.5, mode="conforming",
                         initial_levels=2, max_dofs=10 ** 6, max_iters=1)
        records = run(cfg, prob)
        assert records[0].energy_error <= 1e-9
        assert records[0].eta <= 1e-8

    @pytest.mark.parametrize("r", [3, 5])
    def test_higher_degree_smoke(self, r):
        # degrees up to 5 build, assemble and converge
        cfg = AfemConfig(degree=r, theta=0.6, mode="nitsche",
                         initial_levels=2, max_dofs=900, max_iters=6)
        records = run(cfg, SIN2)
        assert records[-1].energy_error < records[0].energy_error
        assert records[-1].eta < records[0].eta


class TestContraction:
    def test_ratios_definition(self, short_conforming_run):
        _, records, _ = short_conforming_run
        c = default_c_est(records)
        rhos = contraction_ratios(records, c)
        assert len(rhos) == len(records) - 1
        q0 = records[0].energy_error ** 2 + c * records[0].eta ** 2
        q1 = records[1].energy_error ** 2 + c * records[1].eta ** 2
        assert rhos[0] == pytest.approx(q1 / q0, rel=1e-12)

    def test_contractive_on_short_run(self, short_conforming_run):
        _, records, _ = short_conforming_run
        rhos = contraction_ratios(records, default_c_est(records))
        assert max(rhos) < 1.0

    def test_small_c_est_limit(self, short_conforming_run):
        _, records, _ = short_conforming_run
        rhos = contraction_ratios(records, 1e-14)
        expect = (records[1].energy_error / records[0].energy_error) ** 2
        assert rhos[0] == pytest.approx(expect, rel=1e-6)

    def test_single_record_gives_empty_list(self):
        records = run(AfemConfig(degree=2, initial_levels=2, max_dofs=100,
                                 mode="nitsche"),
                      Problem.from_manufactured(zero_problem()))
        assert len(records) == 1
        with pytest.raises(ValueError):
            contraction_ratios(records, None if False else 0.0)

    def test_requires_exact_solution(self):
        cfg = AfemConfig(degree=2, theta=0.5, mode="nitsche",
                         initial_levels=1, max_dofs=64, max_iters=2)
        records = run(cfg, Problem(name="blind", f=SIN2.f))
        with pytest.raises(ValueError, match="exact"):
            contraction_ratios(records, 1.0)
        with pytest.raises(ValueError, match="exact"):
            effectivity(records)


class TestEffectivity:
    def test_values_and_scaling_invariance(self):
        # homogeneity is checked on fixed meshes: under adaptive marking
        # the symmetric problem carries exact ties whose greedy order is
        # not scale-stable at the ulp level
        scaled = Problem(
            name="sin2x10", f=lambda x, y: 10 * SIN2.f(x, y),
            u=lambda x, y: 10 * SIN2.u(x, y),
            grad_u=lambda x, y: tuple(10 * g for g in SIN2.grad_u(x, y)),
            laplacian_u=lambda x, y: 10 * SIN2.laplacian_u(x, y),
            grad_laplacian_u=lambda x, y: tuple(
                10 * g for g in SIN2.grad_laplacian_u(x, y)))
        for L in (2, 3):
            effs = []
            for prob in (SIN2, scaled):
                cfg = AfemConfig(degree=2, theta=0.5, mode="conforming",
                                 initial_levels=L, max_dofs=10 ** 6,
                                 max_iters=1)
                effs.append(effectivity(run(cfg, prob))[0])
            assert effs[0] == pytest.approx(effs[1], rel=1e-10)

    def test_machine_precision_floor_stays_finite(self):
        # exact solution inside the discrete space: quartic single-level
        # splines are C3, so the cellwise strong form is honest data
        p = uniform_partition(2)
        s = build_space(p, 4)
        conf = conforming_indices(s)
        rng = np.random.default_rng(3)
        coeffs = np.zeros(s.dim)
        for k in conf:
            coeffs[k] = rng.standard_normal()
        U0 = SplineFunction(s, coeffs)

        def f(x, y):
            xs = np.atleast_1d(np.asarray(x, float))
            ys = np.atleast_1d(np.asarray(y, float))
            out = np.empty_like(xs)
            for k in range(len(xs)):
                cell = p.find_cell(xs[k], ys[k])
                out[k] = (U0.eval(xs[k], ys[k], 4, 0, cell=cell)
                          + 2 * U0.eval(xs[k], ys[k], 2, 2, cell=cell)
                          + U0.eval(xs[k], ys[k], 0, 4, cell=cell))
            return out

        def lap(x, y):
            xs = np.atleast_1d(np.asarray(x, float))
            ys = np.atleast_1d(np.asarray(y, float))
            out = np.empty_like(xs)
            for k in range(len(xs)):
                cell = p.find_cell(xs[k], ys[k])
                out[k] = (U0.eval(xs[k], ys[k], 2, 0, cell=cell)
                          + U0.eval(xs[k], ys[k], 0, 2, cell=cell))
            return out

        prob = Problem(name="discrete-exact", f=f, u=None, laplacian_u=None)
        cfg = AfemConfig(degree=4, theta=0.5, mode="conforming",
                         initial_levels=2, max_dofs=5000, max_iters=1)
        states = []
        records = run(cfg, prob, on_iteration=states.append)
        U = states[0].solution
        err = energy_diff_sq(U, U0) ** 0.5
        scale = np.abs(U0.coefficients).max()
        assert err <= 1e-7 * scale
        assert records[0].eta <= 1e-6 * scale
        # effectivity against the analytic error remains finite or the
        # documented infinity sentinel, never an exception
        recs = [records[0].__class__(**{**records[0].__dict__,
                                        "energy_error": err,
                                        "contraction_e_sq": err ** 2})]
        vals = effectivity(recs)
        assert len(vals) == 1
        assert np.isfinite(vals[0]) or vals[0] == float("inf")


class TestPythagoras:
    def test_identity_gap_small(self, short_conforming_run):
        _, _, states = short_conforming_run
        for a, b in zip(states, states[1:]):
            lhs, rhs, gap = pythagoras_check(SIN2, a, b)
            assert gap <= 1e-8

    def test_no_refinement_zero_gap(self, short_conforming_run):
        _, _, states = short_conforming_run
        lhs, rhs, gap = pythagoras_check(SIN2, states[0], states[0])
        assert gap == 0.0
        assert lhs == pytest.approx(rhs)

    def test_swapped_arguments_fail_identity(self, short_conforming_run):
        _, _, states = short_conforming_run
        _, _, gap = pythagoras_check(SIN2, states[2], states[1])
        assert gap > 1e-3

    def test_nitsche_mode_rejected(self, short_nitsche_run):
        _, _, states = short_nitsche_run
        with pytest.raises(ValueError, match="conforming"):
            pythagoras_check(SIN2, states[0], states[1])


class TestNitscheRun:
    def test_boundary_norms_decay(self, short_nitsche_run):
        _, records, _ = short_nitsche_run
        assert records[-1].bnorm32 < records[0].bnorm32
        assert records[-1].bnorm12 < records[0].bnorm12

    def test_triple_error_dominates_energy_error(self, short_nitsche_run):
        _, records, _ = short_nitsche_run
        for rec in records:
            assert rec.triple_error >= rec.energy_error * (1 - 1e-12)

    def test_contraction_quantity_positive(self, short_nitsche_run):
        _, records, _ = short_nitsche_run
        for rec in records:
            assert rec.contraction_e_sq > 0.0

    def test_nitsche_approaches_conforming_under_refinement(self):
        diffs = []
        for L in (2, 3, 4):
            solus = {}
            for mode in ("conforming", "nitsche"):
                cfg = AfemConfig(degree=2, theta=0.5, mode=mode,
                                 initial_levels=L, max_dofs=10 ** 6,
                                 max_iters=1)
                states = []
                run(cfg, SIN2, on_iteration=states.append)
                solus[mode] = states[0].solution
            diffs.append(energy_diff_sq(solus["nitsche"],
                                        solus["conforming"]) ** 0.5)
        assert diffs[1] < diffs[0]
        assert diffs[2] < diffs[1]
        assert diffs[2] <= 0.5 * diffs[0]

    def test_inconsistency_sup_tracked_when_requested(self):
        cfg = AfemConfig(degree=2, theta=0.5, mode="nitsche",
                         initial_levels=2, max_dofs=64, max_iters=1,
                         track_inconsistency=True)
        records = run(cfg, SIN2)
        assert records[0].inconsistency_sup is not None
        assert records[0].inconsistency_sup > 0.0

    def test_inconsistency_sup_closed_form_equals_unit_vector_loop(self):
        space = build_space(uniform_partition(3), 2)
        params = FormParams(mode="nitsche").resolved(2)
        got = inconsistency_sup(SIN2, space, params,
                                np.random.default_rng(0), n_random=0)
        # the former O(N^2) loop over unit vectors
        g = inconsistency_load(SIN2.laplacian_u, SIN2.grad_laplacian_u,
                               space, params.quad_n)
        T = triple_norm_matrix(space, params)
        best = 0.0
        for k in range(space.dim):
            unit = np.zeros(space.dim)
            unit[k] = 1.0
            den = float(unit @ (T @ unit)) ** 0.5
            best = max(best, abs(float(g @ unit)) / den if den > 0 else 0.0)
        assert best > 0.0
        assert got == best


def peak_source(x, y, centre=(0.3712, 0.5861), width=1e-4):
    r2 = (np.asarray(x) - centre[0]) ** 2 + (np.asarray(y) - centre[1]) ** 2
    return np.exp(-r2 / width) / width


def count_sample_runs(monkeypatch) -> list:
    """The runs of requests that ask any memo for samples, recorded as
    they come."""
    runs = []
    samples = _SampleMemo.samples

    def counting(self, run, *args):
        runs.append(len(run))
        return samples(self, run, *args)

    monkeypatch.setattr(_SampleMemo, "samples", counting)
    return runs


# the calls of a data callable in the runs below, keyed on the run's
# distinct cells: one call per run of requests with a miss, and every
# pass of these runs is one run, so one call per iteration
SAMPLE_CALLS = {572: 8, 184: 7, 256: 14}


class TestSampleMemo:
    # the configurations of the benchmark workloads (benchmarks/workloads.py)
    # and the distinct cells of their runs (rule n = 6, 36 points per cell)
    @pytest.mark.parametrize("kw,peak,distinct", [
        (dict(degree=2, theta=0.5, mode="conforming", max_dofs=250),
         False, 572),
        (dict(degree=3, theta=0.5, mode="nitsche", max_dofs=150), False, 184),
        (dict(degree=2, theta=0.2, mode="conforming", max_dofs=100,
              max_iters=200), True, 256),
    ])
    def test_source_sampled_once_per_distinct_cell(self, kw, peak, distinct,
                                                   monkeypatch):
        seen = []
        src = peak_source if peak else SIN2.f

        def counting(x, y):
            seen.append(x)
            return src(x, y)

        runs = count_sample_runs(monkeypatch)
        prob = Problem("peak", counting) if peak else replace(SIN2, f=counting)
        cells = set()
        run(AfemConfig(initial_levels=2, **kw), prob,
            on_iteration=lambda st: cells.update(st.partition))
        assert len(cells) == distinct
        assert sum(len(x) for x in seen) == 36 * distinct
        assert len(seen) == SAMPLE_CALLS[distinct] <= len(runs)
        # one 1-D pair per call, strided as a rule's points[:, 0]
        assert {(x.ndim, x.strides) for x in seen} == {(1, (16,))}

    def test_sample_memo_leaves_records_unchanged(self, monkeypatch):
        cfg = AfemConfig(degree=2, theta=0.5, mode="nitsche",
                         initial_levels=2, max_dofs=200)
        with_memo = run(cfg, SIN2)

        class PassThrough:
            def __init__(self, f):
                self.f = f

            def __call__(self, xs, ys):
                return self.f(xs, ys)

            def next_iteration(self):
                pass

        monkeypatch.setattr(afem.driver, "_SampleMemo", PassThrough)
        assert repr(run(cfg, SIN2)) == repr(with_memo)

    @pytest.mark.parametrize("kw,distinct", [
        (dict(degree=2, theta=0.5, mode="conforming", max_dofs=250), 572),
        (dict(degree=3, theta=0.5, mode="nitsche", max_dofs=150), 184),
    ])
    def test_exact_laplacian_sampled_once_per_distinct_cell(self, kw,
                                                            distinct):
        """The record's energy error and the Nitsche error's projection
        share one rule (n + 2 = 8 points per direction), so each new
        cell's samples serve both."""
        seen = {"f": [], "laplacian_u": []}

        def counting(name):
            def sample(x, y):
                seen[name].append(len(x))
                return getattr(SIN2, name)(x, y)
            return sample

        prob = replace(SIN2, f=counting("f"),
                       laplacian_u=counting("laplacian_u"))
        cells = set()
        run(AfemConfig(initial_levels=2, **kw), prob,
            on_iteration=lambda st: cells.update(st.partition))
        assert len(cells) == distinct
        calls = SAMPLE_CALLS[distinct]
        assert {k: (len(v), sum(v)) for k, v in seen.items()} == {
            "f": (calls, 36 * distinct),
            "laplacian_u": (calls, 64 * distinct)}

    def test_samples_are_read_only_copies(self):
        seen = []
        memo = _SampleMemo(lambda x, y: seen.append(x) or x)
        cells = [Cell(1, 0, 0), Cell(1, 1, 1)]
        P, _ = quadrature._rules(cells, 2)
        X, Y = P[:, :, 0], P[:, :, 1]
        F = memo.samples(cells, 2, X, Y)
        assert np.array_equal(F, X) and not np.shares_memory(F, P)
        # one call for the run: a 1-D pair, request after request, strided
        # as a rule's points[:, 0]
        assert [(x.shape, x.strides) for x in seen] == [((8,), (16,))]
        assert np.array_equal(seen[0], X.ravel())
        stored = memo._now[2][cells[0]]
        assert not stored.flags.writeable and not np.shares_memory(stored, P)
        with pytest.raises(ValueError):
            stored[0] = 1.0
        # the key is the request and the rule size, not the points
        again = memo.samples(cells[::-1], 2, 0.0 * X, 0.0 * Y)
        assert np.array_equal(again, F[::-1]) and len(seen) == 1
        memo.samples(cells[:1], 3, *(a[:, :1] for a in (X, Y)))
        assert len(seen) == 2
        # calling the memo calls f, unmemoised
        x0 = X[0]
        assert memo(x0, Y[0]) is x0 and len(seen) == 3

    @pytest.mark.parametrize("name", ["f", "laplacian_u", "peak"])
    @pytest.mark.parametrize("n", [6, 8])
    def test_run_samples_equal_per_row_calls_bit_for_bit(self, name, n):
        """Sampling a run's misses in one call gives each row the bytes
        of a call on that row alone, with the memo holding some of the
        run's cells and missing others."""
        f = peak_source if name == "peak" else getattr(SIN2, name)
        rng = np.random.default_rng(n)
        cells = []
        for level in range(2, 8):
            m = 1 << level
            cells += [Cell(level, *ij) for ij in
                      {tuple(ij) for ij in rng.integers(0, m, size=(40, 2))}]
        cells = [cells[k] for k in rng.permutation(len(cells))[:128]]
        P, _ = quadrature._rules(cells, n)
        X, Y = P[:, :, 0], P[:, :, 1]
        want = np.array([f(X[q], Y[q]) for q in range(len(cells))])
        calls = []
        memo = _SampleMemo(lambda x, y: calls.append(x) or f(x, y))
        some = np.sort(rng.choice(len(cells), size=50, replace=False))
        first = memo.samples([cells[q] for q in some], n, X[some], Y[some])
        assert first.tobytes() == want[some].tobytes()
        got = memo.samples(cells, n, X, Y)
        assert got.tobytes() == want.tobytes()
        assert [len(x) for x in calls] == [50 * n * n,
                                           (len(cells) - 50) * n * n]

    def test_point_set_unused_for_an_iteration_is_dropped(self):
        calls = []
        memo = _SampleMemo(lambda x, y: calls.append(1) or x + y)
        a, b = Cell(2, 0, 1), Cell(2, 3, 2)
        P, _ = quadrature._rules([a, b], 2)
        X, Y = P[:, :, 0], P[:, :, 1]

        def sample(*cells):
            at = [[a, b].index(c) for c in cells]
            return memo.samples(list(cells), 2, X[at], Y[at])

        memo.next_iteration()
        first = sample(a)
        sample(b)
        memo.next_iteration()
        assert np.array_equal(sample(a), first)   # kept: asked for last time
        memo.next_iteration()                     # b unused for an iteration
        sample(a)
        assert len(calls) == 2
        sample(b)
        assert len(calls) == 3
        memo.next_iteration()
        memo.next_iteration()                     # nothing asked: all dropped
        again = sample(a)
        assert np.array_equal(again, first)
        assert len(calls) == 4


def test_conforming_record_norms_are_the_explicit_ones():
    """A conforming iterate's boundary traces are exact zeros, so the
    record's norms, set without a pass, equal the explicit ones."""
    for degree in (2, 3, 4):
        for truncated in (True, False):
            states = []
            cfg = AfemConfig(degree=degree, truncated=truncated,
                             max_dofs=(degree + 5) ** 2 + 60)
            records = run(cfg, SIN2, states.append)
            assert len(records) > 1
            n = cfg.form_params().resolved(degree).quad_n
            for rec, st in zip(records, states):
                explicit = _mesh_norms(st.solution, st.partition, n)
                assert [rec.bnorm32, rec.bnorm12] == explicit == [0.0, 0.0]


class TestNonFiniteData:
    def test_non_finite_estimator_total_rejected(self, monkeypatch):
        def nan_total(*args, **kwargs):
            return Indicators({}, float("nan"), 0.0)

        monkeypatch.setattr(afem.driver, "estimate_all", nan_total)
        cfg = AfemConfig(degree=2, initial_levels=2, max_dofs=100)
        with pytest.raises(ValueError, match="estimator total .* not finite"):
            run(cfg, SIN2)

    @staticmethod
    def nan_left_half(x, y):
        with np.errstate(invalid="ignore"):
            return np.log(np.asarray(x, float) - 0.5) + 0.0 * y

    @pytest.mark.parametrize("mode", ["conforming", "nitsche"])
    def test_non_finite_laplacian_rejected(self, mode):
        prob = replace(SIN2, laplacian_u=self.nan_left_half)
        cfg = AfemConfig(degree=2, mode=mode, max_dofs=60)
        with pytest.raises(ValueError, match="energy error is not finite "
                           r"\(nan\); check the exact-solution entry "
                           "'laplacian_u'"):
            run(cfg, prob)

    def test_non_finite_laplacian_gradient_rejected(self):
        def nan_pair(x, y):
            return self.nan_left_half(x, y), self.nan_left_half(y, x)

        prob = replace(SIN2, grad_laplacian_u=nan_pair)
        cfg = AfemConfig(degree=2, mode="nitsche", max_dofs=60,
                         track_inconsistency=True)
        with pytest.raises(ValueError, match="inconsistency sup is not "
                           "finite .*'grad_laplacian_u'"):
            run(cfg, prob)

    def test_inconsistency_sup_of_a_non_finite_defect_is_nan(self):
        # max() over the ratios would skip a nan that is not the first
        def late_nan(x, y):
            x = np.asarray(x, float)
            return np.where(x > 0.9, np.nan, 0.0), np.zeros_like(x)

        prob = replace(SIN2, grad_laplacian_u=late_nan)
        space = build_space(uniform_partition(2), 2)
        params = FormParams("nitsche")
        assert np.isnan(inconsistency_sup(prob, space, params,
                                          np.random.default_rng(0)))

    @pytest.mark.parametrize("entry", ["u", "grad_u"])
    def test_nan_boundary_sample_fails_validation(self, entry):
        nan = lambda x, y: np.full_like(np.asarray(x, float), np.nan)
        bad = {"u": nan, "grad_u": lambda x, y: (nan(x, y), nan(x, y))}
        prob = replace(SIN2, **{entry: bad[entry]})
        with pytest.raises(ValueError, match="does not vanish on the "
                           "boundary"):
            prob.validate_boundary()


class TestScalarData:
    def test_scalar_source_runs_as_its_spread_array(self):
        cfg = AfemConfig(max_dofs=50)
        got = run(cfg, Problem("c", lambda x, y: 1.0))
        want = run(cfg, Problem("c", lambda x, y: np.full_like(x, 1.0)))
        assert len(got) > 1
        assert repr(got) == repr(want)

    def test_memo_spreads_a_scalar_and_rejects_a_wrong_shape(self):
        cells = [Cell(0, 0, 0)]
        P, _ = quadrature._rules(cells, 2)
        X, Y = P[:, :, 0], P[:, :, 1]
        vals = _SampleMemo(lambda x, y: 2).samples(cells, 2, X, Y)
        assert vals.dtype == float and np.array_equal(vals, [[2.0] * 4])
        with pytest.raises(ValueError):
            _SampleMemo(lambda x, y: np.ones(3)).samples(cells, 2, X, Y)


class TestDiscreteReliabilityProbe:
    def test_probe_reports_finite_quantities(self, short_nitsche_run):
        _, _, states = short_nitsche_run
        out = discrete_reliability_probe(states[0], states[1])
        assert out["solution_jump_sq"] > 0.0
        assert out["eta_region_sq"] > 0.0
        assert np.isfinite(out["ratio"])


class TestCsvAndSummary:
    def test_header_contract(self):
        assert CSV_HEADER == ("iter,n_cells,n_dofs,energy_error,triple_error,"
                              "eta,osc,bnorm32,bnorm12,marked,rho,"
                              "effectivity")

    def test_csv_shape_and_determinism(self, short_conforming_run):
        _, records, _ = short_conforming_run
        text = records_to_csv(records)
        lines = text.split("\r\n")
        assert lines[0] == CSV_HEADER
        assert len([ln for ln in lines if ln]) == len(records) + 1
        assert records_to_csv(records) == text
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[10] == ""  # no ratio on the first row
        second = lines[2].split(",")
        assert float(second[10]) < 1.0

    def test_summary_fields(self, short_conforming_run):
        cfg, records, _ = short_conforming_run
        s = run_summary(cfg, SIN2, records)
        assert s["problem"] == "sin2"
        assert s["iterations"] == len(records)
        assert s["config"]["degree"] == 2
        assert s["rho_geometric_mean"] < 1.0
        assert s["slope_energy_vs_dofs"] < 0.0
