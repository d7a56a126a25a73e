"""Command-line interface: flags, outputs, reproducibility."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import afem
from afem.cli import _MAX_DEPTH, _expr, build_parser, load_problem, main
from afem.driver import CSV_HEADER, AfemConfig
from afem.mesh import Cell, refine, uniform_partition
from afem.oracles import random_spline
from afem.splines import build_space, load_solution, save_solution


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse error paths
        return exc.code


BASE = ["--problem", "sin2", "--mode", "conforming", "--degree", "2",
        "--theta", "0.5", "--initial-levels", "2", "--max-dofs", "300"]


class TestValidation:
    def test_help_exits_zero(self, capsys):
        code = run_cli(["--help"])
        assert code == 0
        assert "usage" in capsys.readouterr().out

    def test_theta_out_of_range_exits_two(self, capsys):
        code = run_cli(BASE[:] + ["--theta", "1.5", "--out", "x"])
        assert code == 2
        assert "theta" in capsys.readouterr().err

    def test_unknown_problem_exits_two(self, capsys):
        code = run_cli(["--problem", "mystery", "--out", "x"])
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("value,message", [
        ("0", "--quad-n must be a positive integer, got 0"),
        ("2.5", "--quad-n: invalid int value"),
    ])
    def test_bad_quad_n_exits_two_with_the_flags_message(self, value,
                                                          message, capsys):
        assert run_cli(BASE + ["--quad-n", value, "--out", "x"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag,text,value,message", [
        ("--theta", "1.5", 1.5, "must lie in (0, 1], got 1.5"),
        ("--theta", "0", 0.0, "must lie in (0, 1], got 0.0"),
        ("--theta", "nan", np.nan, "must lie in (0, 1], got nan"),
        ("--degree", "1", 1, "must be at least 2, got 1"),
        ("--initial-levels", "-1", -1, "must lie in [0, 31], got -1"),
        ("--initial-levels", "40", 40, "must lie in [0, 31], got 40"),
        ("--max-iters", "0", 0, "must be at least 1"),
        ("--max-dofs", "35", 35, "is below the initial space dimension"),
        *[(flag, text, float(text), f"must be positive and finite, got "
           f"{float(text)}") for flag in ("--gamma1", "--gamma2")
          for text in ("-5", "0", "nan", "inf")],
        ("--quad-n", "0", 0, "must be a positive integer, got 0"),
    ])
    def test_bad_setting_gives_the_configs_message_under_its_flag(
            self, flag, text, value, message, tmp_path, capsys):
        """``AfemConfig`` is the one check: the CLI prints its message
        with the flag in place of the field, before the problem is read."""
        field = flag[2:].replace("-", "_")
        with pytest.raises(ValueError) as exc:
            AfemConfig(**{field: value})
        assert str(exc.value) == f"{field} {message}"
        code = run_cli(["--problem", "mystery", flag, text,
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.endswith(
            f"afem: error: {flag} {message}\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_exits_two(self):
        assert run_cli(["--frobnicate"]) == 2

    def test_too_coarse_conforming_exits_two(self, tmp_path, capsys):
        code = run_cli(["--problem", "sin2", "--mode", "conforming",
                        "--degree", "2", "--initial-levels", "0",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "conforming" in capsys.readouterr().err

    def test_bad_gamma_exits_two(self, capsys):
        code = run_cli(BASE[:] + ["--gamma1", "-5", "--out", "x"])
        assert code == 2
        assert "gamma1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--gamma1", "--gamma2"])
    def test_non_finite_gamma_exits_two(self, flag, value, tmp_path, capsys):
        code = run_cli(BASE + ["--mode", "nitsche", flag, value,
                               "--out", str(tmp_path)])
        assert code == 2
        assert f"{flag} must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("flag", ["--gamma1", "--gamma2"])
    def test_overflowing_penalty_exits_two(self, flag, tmp_path, capsys):
        """A finite gamma whose penalty ``gamma * h^-k`` overflows."""
        code = run_cli(BASE + ["--mode", "nitsche", "--max-dofs", "60",
                               flag, "1e308",
                               "--out", str(tmp_path)])
        assert code == 2
        assert "matrix has non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    def test_initial_mesh_over_max_dofs_exits_two_unbuilt(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        """Level 9 is 262,144 cells: the config rejects it before any
        partition is built."""
        def unbuilt(levels):
            raise AssertionError(f"built a level-{levels} partition")

        monkeypatch.setattr("afem.driver.uniform_partition", unbuilt)
        code = run_cli(BASE + ["--initial-levels", "9", "--max-dofs", "100",
                               "--out", str(tmp_path)])
        assert code == 2
        assert ("--max-dofs is below the initial space dimension"
                in capsys.readouterr().err)
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("name", ["file", "file/sub"])
    def test_out_naming_a_file_exits_two_before_the_run(self, tmp_path,
                                                        capsys, monkeypatch,
                                                        name):
        def unrun(*args, **kwargs):
            raise AssertionError("ran the loop")

        monkeypatch.setattr("afem.cli.run", unrun)
        (tmp_path / "file").write_text("")
        code = run_cli(["--max-dofs", "40", "--max-iters", "1",
                        "--out", str(tmp_path / name)])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,entry", [
        ("f1", "JSON object"),
        (5, "JSON object"),
        ({"f": "1", "u": "0", "grad_u": ["0"]}, "'grad_u'"),
        ({"f": "1", "grad_laplacian_u": 7}, "'grad_laplacian_u'"),
        ({"f": "1", "u": "0", "grad_u": "00"}, "'grad_u'"),
        ({"f": "1", "u": "0", "grad_u": ["0", "0", "x"],
          "laplacian_u": "0"}, "'grad_u'"),
        ({"f": "1", "u": "0", "laplacian_u": ["0"]}, "'laplacian_u'"),
        ({"f": "1", "name": {"a": 1}}, "'name'"),
        ({"f": "1", "name": 7}, "'name'"),
    ])
    def test_malformed_problem_file_exits_two_naming_the_entry(
            self, tmp_path, capsys, spec, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = run_cli(["--problem", str(path), "--max-dofs", "40",
                        "--max-iters", "1", "--out", str(out)])
        assert code == 2
        assert entry in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    def test_unreadable_problem_path_exits_two(self, tmp_path, capsys):
        """A directory passes the existence check for a problem file but
        cannot be opened."""
        out = tmp_path / "out"
        code = run_cli(["--problem", str(tmp_path), "--max-dofs", "40",
                        "--max-iters", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--problem: cannot read" in err and "Traceback" not in err
        assert not (out / "convergence.csv").exists()


class TestEndToEnd:
    def test_run_produces_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code = run_cli(BASE + ["--max-dofs", "600", "--out", str(out)])
        assert code == 0
        csv_path = out / "convergence.csv"
        manifest_path = out / "manifest.json"
        assert csv_path.exists() and manifest_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len([ln for ln in lines if ln]) >= 6  # >= 5 data rows
        manifest = json.loads(manifest_path.read_text())
        assert manifest["problem"] == "sin2"
        assert manifest["summary"]["config"]["theta"] == 0.5
        assert manifest["summary"]["rho_geometric_mean"] < 1.0

    def test_dumps_and_solution(self, tmp_path):
        out = tmp_path / "run2"
        code = run_cli(BASE + ["--out", str(out), "--dump-mesh",
                               "--dump-indicators", "--save-solution"])
        assert code == 0
        mesh_lines = (out / "mesh_final.txt").read_text().strip().splitlines()
        keys = [tuple(map(int, ln.split())) for ln in mesh_lines]
        assert keys == sorted(keys)
        ind_lines = (out / "indicators_final.txt").read_text().strip() \
            .splitlines()
        assert len(ind_lines) == len(mesh_lines)
        assert all(len(ln.split()) == 8 for ln in ind_lines)
        fn = load_solution(out / "solution.txt")
        assert fn.space.dim == len(fn.coefficients)

    def test_load_solution_inspection(self, tmp_path, capsys):
        out = tmp_path / "run3"
        assert run_cli(BASE + ["--out", str(out), "--save-solution"]) == 0
        capsys.readouterr()
        code = run_cli(["--load-solution", str(out / "solution.txt")])
        assert code == 0
        fn = load_solution(out / "solution.txt")
        lo, hi = fn.coefficients.min(), fn.coefficients.max()
        # plain float reprs, not numpy's np.float64(...)
        assert capsys.readouterr().out == (
            f"solution: degree=2 truncated=1 cells={len(fn.space.partition)} "
            f"dofs={fn.space.dim} coeff_range=[{float(lo)!r}, "
            f"{float(hi)!r}]\n")

    def test_truncated_solution_file_exits_two(self, tmp_path, capsys):
        p = refine(uniform_partition(1), [Cell(1, 0, 0)])
        fn = random_spline(build_space(p, 2), np.random.default_rng(4))
        full = tmp_path / "solution.txt"
        save_solution(fn, full)
        text = full.read_text()
        lines = text.splitlines(keepends=True)
        cells_end = len("".join(lines[:6]))      # inside the cell list
        coeffs_at = text.index("coeffs")
        in_coeffs = text.index("\n", coeffs_at) + 5
        cuts = [0, 3, len(lines[0]), cells_end, cells_end + 2, coeffs_at,
                in_coeffs, len(text) - 4, len(text) - 1]
        bad = tmp_path / "cut.txt"
        for cut in cuts:
            bad.write_text(text[:cut])
            with pytest.raises(ValueError, match="malformed solution file"):
                load_solution(bad)
            capsys.readouterr()
            assert run_cli(["--load-solution", str(bad)]) == 2
            assert "malformed solution file" in capsys.readouterr().err

    def test_undersized_solution_file_exits_two_quickly(self, tmp_path):
        """A degree far above what the coefficients can span is rejected
        before the space is built, which would not finish."""
        bad = tmp_path / "big.txt"
        bad.write_text("degree 100000\ntruncated 1\ncells 1\n0 0 0\n"
                       "coeffs 1\n0.0\n")
        src = os.path.dirname(os.path.dirname(afem.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "afem.cli", "--load-solution", str(bad)],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert ("1 coefficients cannot span a degree-100000 space"
                in proc.stderr)

    def test_truncated_flag_other_than_zero_or_one_exits_two(self, tmp_path,
                                                             capsys):
        fn = random_spline(build_space(uniform_partition(1), 2),
                           np.random.default_rng(5))
        path = tmp_path / "solution.txt"
        save_solution(fn, path)
        path.write_text(path.read_text().replace("truncated 1", "truncated 2"))
        with pytest.raises(ValueError, match="truncated must be 0 or 1"):
            load_solution(path)
        assert run_cli(["--load-solution", str(path)]) == 2
        assert "truncated must be 0 or 1, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cells,cause", [
        ("0 0 0\n1 0 0\n1 1 0\n1 0 1\n1 1 1\n",
         "overlapping cells: Cell(level=1, i=0, j=0) inside "
         "Cell(level=0, i=0, j=0)"),
        ("1 0 0\n1 1 0\n1 0 1\n", "cells do not cover the unit square"),
        ("1 0 0\n1 0 1\n1 1 1\n2 2 0\n2 3 0\n2 3 1\n"
         "3 4 2\n3 5 2\n3 4 3\n3 5 3\n",
         "grading violated between Cell(level=1, i=0, j=0) and "
         "Cell(level=3, i=4, j=2)"),
    ])
    def test_invalid_partition_in_solution_file_exits_two(
            self, tmp_path, capsys, cells, cause):
        path = tmp_path / "solution.txt"
        n = cells.count("\n")
        path.write_text(f"degree 2\ntruncated 1\ncells {n}\n{cells}"
                        "coeffs 9\n" + "0.0\n" * 9)
        assert run_cli(["--load-solution", str(path)]) == 2
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_coefficient_exits_two(self, tmp_path, capsys, value):
        path = tmp_path / "solution.txt"
        path.write_text("degree 2\ntruncated 1\ncells 1\n0 0 0\ncoeffs 9\n"
                        + "0.0\n" * 3 + f"{value}\n" + "1.0\n" * 5)
        with pytest.raises(ValueError, match="malformed solution file"):
            load_solution(path)
        assert run_cli(["--load-solution", str(path)]) == 2
        assert ("malformed solution file: coefficient 3 is not finite"
                in capsys.readouterr().err)

    def test_negative_cell_level_exits_two_naming_the_cell(self, tmp_path,
                                                           capsys):
        path = tmp_path / "solution.txt"
        path.write_text("degree 2\ntruncated 1\ncells 1\n-1 0 0\n"
                        "coeffs 9\n" + "0.0\n" * 9)
        assert run_cli(["--load-solution", str(path)]) == 2
        assert ("cell Cell(level=-1, i=0, j=0) has a negative level"
                in capsys.readouterr().err)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = BASE + ["--max-dofs", "400"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert (a / "convergence.csv").read_bytes() == \
            (b / "convergence.csv").read_bytes()

    def test_zero_problem_single_row(self, tmp_path):
        out = tmp_path / "zero"
        code = run_cli(["--problem", "zero", "--mode", "nitsche",
                        "--initial-levels", "1", "--max-dofs", "100",
                        "--out", str(out)])
        assert code == 0
        rows = [ln for ln in (out / "convergence.csv").read_text()
                .splitlines() if ln]
        assert len(rows) == 2

    def test_nitsche_mode_runs(self, tmp_path):
        out = tmp_path / "nit"
        code = run_cli(["--problem", "sin2", "--mode", "nitsche",
                        "--degree", "2", "--initial-levels", "2",
                        "--max-dofs", "200", "--out", str(out)])
        assert code == 0

    def test_undersized_gamma_reports_spd_failure(self, tmp_path, capsys):
        code = run_cli(["--problem", "sin2", "--mode", "nitsche",
                        "--degree", "2", "--initial-levels", "2",
                        "--gamma1", "1e-6", "--gamma2", "1e-6",
                        "--max-dofs", "100", "--out", str(tmp_path)])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_quad_n(self, tmp_path):
        out = tmp_path / "quad"
        code = run_cli(["--problem", "sin2", "--mode", "nitsche",
                        "--degree", "2", "--initial-levels", "1",
                        "--max-dofs", "40", "--max-iters", "2",
                        "--quad-n", "5", "--out", str(out)])
        assert code == 0
        assert (out / "convergence.csv").exists()


class TestCustomProblem:
    def test_custom_file_with_exact_solution(self, tmp_path):
        spec = {
            "name": "custom-sin2",
            "f": "8*pi**4*(cos(2*pi*x)*cos(2*pi*y)"
                 " - cos(2*pi*x)*sin(pi*y)**2 - sin(pi*x)**2*cos(2*pi*y))",
            "u": "sin(pi*x)**2 * sin(pi*y)**2",
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(spec))
        prob = load_problem(str(path))
        from afem.oracles import manufactured_sin2
        mp = manufactured_sin2()
        rng = np.random.default_rng(0)
        for x, y in rng.uniform(0.0, 1.0, (20, 2)):
            assert prob.f(x, y) == pytest.approx(mp.f(x, y), rel=1e-12)
            assert prob.u(x, y) == pytest.approx(mp.u(x, y), abs=1e-13)

    def test_custom_file_missing_f_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code = run_cli(["--problem", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_custom_run_without_exact_solution(self, tmp_path):
        path = tmp_path / "fonly.json"
        path.write_text(json.dumps({"f": "1.0 + 0*x"}))
        out = tmp_path / "out"
        code = run_cli(["--problem", str(path), "--mode", "nitsche",
                        "--initial-levels", "1", "--max-dofs", "100",
                        "--max-iters", "2", "--out", str(out)])
        assert code == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        # no exact solution: error columns empty
        assert rows[1].split(",")[3] == ""

    def test_non_finite_source_exits_two(self, tmp_path, capsys):
        # sqrt(x - 0.5) is nan on the left half: the load is not finite
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"f": "sqrt(x-0.5)"}))
        out = tmp_path / "out"
        code = run_cli(["--problem", str(path), "--max-dofs", "300",
                        "--out", str(out)])
        assert code == 2
        assert "right-hand side has non-finite entries" in \
            capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    @pytest.mark.parametrize("text", ["sqrt(x-0.5)", "log(x-0.5)"])
    def test_nan_expression_gives_only_afems_message(self, tmp_path, capsys,
                                                      text):
        # numpy's own RuntimeWarning would be an exception here
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"f": text}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["--problem", str(path), "--max-dofs", "100",
                            "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("afem: ")

    @pytest.mark.parametrize("spec, message", [
        # nan on the left boundary, and a log of negatives inside
        ({"f": "1", "u": "sqrt(x-0.5)*0", "grad_u": ["0", "0"],
          "laplacian_u": "log(x-0.5)", "grad_laplacian_u": ["0", "0"]},
         "exact solution does not vanish on the boundary"),
        ({"f": "1", "u": "0", "laplacian_u": "log(x-0.5)"},
         "energy error is not finite (nan); check the exact-solution entry "
         "'laplacian_u'"),
    ], ids=["nan-boundary", "nan-laplacian"])
    def test_non_finite_exact_solution_exits_two(self, tmp_path, capsys,
                                                 spec, message):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        with np.errstate(invalid="ignore"):
            code = run_cli(["--problem", str(path), "--max-dofs", "100",
                            "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()


class TestSafeExpressions:
    def test_escape_payload_exits_two(self, tmp_path, capsys):
        path = tmp_path / "escape.json"
        path.write_text(json.dumps(
            {"f": "0*x + ().__class__.__base__.__subclasses__().__len__()"}))
        out = tmp_path / "out"
        code = run_cli(["--problem", str(path), "--out", str(out)])
        assert code == 2
        assert "not allowed in a problem expression" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,construct", [
        ("x.__class__", "Attribute"),
        ("np.linalg.norm(x)", "Call"),
        ("x[0]", "Subscript"),
        ("(lambda t: t)(x)", "Call"),
        ("lambda: 0", "Lambda"),
        ("__import__('os')", "Call"),
        ("open", "Name"),
    ])
    def test_constructs_outside_the_whitelist_are_rejected(self, tmp_path,
                                                           text, construct):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"f": text}))
        with pytest.raises(ValueError, match=construct):
            load_problem(str(path))

    def test_unparsable_expression_exits_two(self, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text(json.dumps({"f": "x +"}))
        assert run_cli(["--problem", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("terms", [1500, 5000])
    def test_over_deep_expression_exits_two(self, tmp_path, capsys, terms):
        """Past the bound, and past the parser's own limit, a deep sum is
        refused by name instead of failing with a RecursionError."""
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"f": "+".join(["x"] * terms)}))
        out = tmp_path / "out"
        code = run_cli(["--problem", str(path), "--max-dofs", "40",
                        "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "--problem: 'f': problem expression nests deeper than " \
            f"{_MAX_DEPTH} levels" in err
        assert not (out / "convergence.csv").exists()

    def test_expression_at_the_depth_bound_runs(self, tmp_path):
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({"f": "+".join(["x"] * _MAX_DEPTH)}))
        out = tmp_path / "out"
        code = run_cli(["--problem", str(path), "--max-dofs", "40",
                        "--max-iters", "2", "--out", str(out)])
        assert code == 0 and (out / "convergence.csv").exists()

    def test_whitelist_matches_numpy(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "f": "-np.sin(pi*x)**2 / 2 + abs(+y) * exp(x) - sqrt(y) * log(1 + x)"
                 " + cos(3*y)"}))
        f = load_problem(str(path)).f
        x = np.linspace(0.1, 0.9, 7)
        y = x[::-1]
        want = (-np.sin(np.pi * x) ** 2 / 2 + np.abs(y) * np.exp(x)
                - np.sqrt(y) * np.log(1 + x) + np.cos(3 * y))
        assert np.array_equal(f(x, y), want)

    @pytest.mark.parametrize("text", ["1", "pi"])
    def test_constant_source_runs(self, tmp_path, text):
        # the uniformly loaded clamped plate
        path = tmp_path / "plate.json"
        path.write_text(json.dumps({"f": text}))
        out = tmp_path / "out"
        code = run_cli(["--problem", str(path), "--max-dofs", "100",
                        "--max-iters", "2", "--out", str(out)])
        assert code == 0
        assert (out / "convergence.csv").exists()

    def test_slope_of_equal_dofs_is_null_without_warning(self, tmp_path):
        # two iterations at 4 dofs: no spread in log-dofs, so no slope
        path = tmp_path / "plate.json"
        path.write_text(json.dumps({"f": "1"}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["--problem", str(path), "--max-dofs", "100",
                            "--max-iters", "2", "--out", str(out)])
        assert code == 0
        rows = (out / "convergence.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["4", "4"]
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["slope_eta_vs_dofs"] is None
        assert summary["slope_energy_vs_dofs"] is None

    def test_constant_expression_is_shaped_like_the_points(self):
        xs = np.linspace(0.1, 0.9, 7)
        ys = xs[::-1]
        for text, value in (("1", 1.0), ("pi", np.pi), ("2*pi - 1", 2 * np.pi - 1)):
            vals = _expr(text)(xs, ys)
            assert vals.shape == xs.shape
            assert np.array_equal(vals, np.full(xs.shape, value))
        assert _expr("1")(xs[:, None], ys[None, :]).shape == (7, 7)
        assert np.array_equal(_expr("x*0 + 1")(xs, ys), np.ones(7))
        assert np.array_equal(_expr("y")(xs, ys), ys)

    def test_unknown_problem_message_lists_every_builtin(self, capsys):
        assert run_cli(["--problem", "mystery", "--out", "x"]) == 2
        err = capsys.readouterr().err
        for name in ("sin2", "bubble", "zero"):
            assert name in err


def test_parser_defaults_match_driver_defaults():
    args = build_parser().parse_args([])
    assert args.theta == 0.5
    assert args.degree == 2
    assert args.max_dofs == 20000
    assert args.max_iters == 25
    assert args.mode == "conforming"


HELP_IMPORTS = r"""
import json, runpy, sys

sys.argv = ["afem", sys.argv[1]]
try:
    runpy.run_module("afem.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code,
                  "loaded": sorted(m for m in ("numpy", "scipy")
                                   if m in sys.modules)}))
"""


@pytest.mark.parametrize("flag,shows", [("--help", "usage: afem"),
                                        ("--version", afem.__version__)])
def test_help_and_version_answer_without_numpy_or_scipy(flag, shows):
    """``python -m afem.cli --help`` and ``--version`` import neither
    numpy nor scipy: the library is imported where it is used."""
    src = os.path.dirname(os.path.dirname(afem.__file__))
    proc = subprocess.run([sys.executable, "-c", HELP_IMPORTS, flag],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.strip().splitlines()
    assert json.loads(last) == {"code": 0, "loaded": []}
    assert shows in "\n".join(printed)
