"""Import contract: ``afem`` loads no scipy module that scipy.sparse does
not load by itself, no module of ``afem`` imports a name it never uses,
no public function takes a partition beside a spline or space that
already fixes it, nor a rule beside the ``FormParams`` that fixes it or
for an integrand of splines alone, the declared SciPy floor has what
``afem`` calls, and every name the benchmark binds exists.

Each check runs in a fresh interpreter, because this process has long
since imported whatever the other tests needed.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import afem

CONTRACT = r"""
import json, sys

def scipy_modules():
    return {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}

import numpy, scipy.sparse, scipy.sparse.linalg
baseline = scipy_modules()

import afem, afem.assembly, afem.cli, afem.driver, afem.estimator
import afem.oracles
from afem.driver import AfemConfig, Problem, run
from afem.oracles import manufactured_sin2, scipy_univariate_ders

records = run(AfemConfig(degree=2, max_dofs=60),
              Problem.from_manufactured(manufactured_sin2()))
after_run = scipy_modules()

value = scipy_univariate_ders(2, 3, 1, 0.3, 1)
print(json.dumps({
    "iterations": len(records),
    "extra": sorted(after_run - baseline),
    "interpolate_before_oracle": "scipy.interpolate" in after_run,
    "interpolate_after_oracle": "scipy.interpolate" in sys.modules,
    "value": value,
}))
"""


def test_afem_loads_no_scipy_beyond_sparse():
    src = os.path.dirname(os.path.dirname(afem.__file__))
    proc = subprocess.run([sys.executable, "-c", CONTRACT],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["iterations"] > 1
    assert out["extra"] == []
    assert not out["interpolate_before_oracle"]
    # the oracle imports scipy.interpolate on call and still works
    assert out["interpolate_after_oracle"]
    from scipy.interpolate import BSpline
    from afem.splines import knot_vector
    c = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert out["value"] == float(BSpline(knot_vector(2, 3), c, 3)(0.3, nu=1))


def unused_imports(path) -> list[str]:
    """Names a module imports at module level and never uses; a name in
    ``__all__`` counts as used."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    src = Path(afem.__file__).parent
    unused = {path.name: names for path in sorted(src.glob("*.py"))
              if (names := unused_imports(path))}
    assert unused == {}


def test_unused_import_check_sees_leftovers(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import numpy as np\n"
                    "from .quadrature import _row_dots, gauss_edge, sqrt\n"
                    "__all__ = ['gauss_edge']\n"
                    "x = sqrt(np.ones(2))\n")
    assert unused_imports(path) == ["_row_dots"]


def partition_beside_spline(module) -> list[str]:
    """Functions of ``module.__all__`` with a parameter annotated
    ``Partition`` and one annotated ``SplineFunction`` or
    ``HierarchicalSpace``, which already fixes the partition."""
    found = []
    for name in module.__all__:
        fn = getattr(module, name)
        if not inspect.isfunction(fn):
            continue
        names = [set(re.findall(r"\w+", str(q.annotation)))
                 for q in inspect.signature(fn).parameters.values()]
        if any("Partition" in n for n in names) and any(
                n & {"SplineFunction", "HierarchicalSpace"} for n in names):
            found.append(name)
    return found


def test_no_function_takes_a_partition_beside_its_spline():
    flagged = {name: found for name in ("estimator", "assembly", "driver",
                                        "mesh", "splines")
               if (found := partition_beside_spline(
                   importlib.import_module(f"afem.{name}")))}
    assert flagged == {}


# integrands of splines alone: the default rule integrates them exactly
SPLINE_ONLY = {"assembly": ("project_laplacian", "energy_norm_sq",
                            "energy_diff_sq", "h2_seminorm_sq"),
               "estimator": ("lipschitz_gap",)}


def public_functions(module) -> dict:
    """Functions that ``module`` defines under a name without a leading
    underscore."""
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__}


def rule_beside_params(module) -> list[str]:
    """Public functions of ``module`` with a ``quad_n`` parameter and one
    annotated ``FormParams``, which already fixes the rule."""
    found = []
    for name, fn in public_functions(module).items():
        params = inspect.signature(fn).parameters
        if "quad_n" in params and any("FormParams" in str(q.annotation)
                                      for q in params.values()):
            found.append(name)
    return found


def test_no_function_takes_a_rule_beside_its_params():
    flagged = {name: found for name in ("assembly", "estimator", "driver",
                                        "splines")
               if (found := rule_beside_params(
                   importlib.import_module(f"afem.{name}")))}
    assert flagged == {}


def test_spline_only_integrals_take_no_rule():
    for name, functions in SPLINE_ONLY.items():
        module = importlib.import_module(f"afem.{name}")
        for fn in functions:
            params = inspect.signature(public_functions(module)[fn]).parameters
            assert "quad_n" not in params, f"{name}.{fn}"


def test_scipy_floor_has_cg_rtol():
    """``solver.solve_spd`` calls ``cg(..., rtol=...)``, a keyword that
    replaced ``tol`` in SciPy 1.12."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"scipy>=(\d+)\.(\d+)', text)
    assert floor is not None
    assert (int(floor[1]), int(floor[2])) >= (1, 12)


def traced_bindings() -> dict:
    """``FUNCTIONS`` and ``METHODS`` of ``benchmarks/tracing.py``, read
    with ``ast`` so that the benchmark is neither imported nor run."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    tables = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0],
                                                       ast.Name):
            if node.targets[0].id in ("FUNCTIONS", "METHODS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_names_the_benchmark_binds_resolve():
    """Every function and method that the benchmark traces, and the
    constructor its workloads call, exists in ``afem``: deleting one
    would otherwise show only as failed traced repetitions."""
    tables = traced_bindings()
    assert set(tables) == {"FUNCTIONS", "METHODS"}
    bound = [(mod, attr) for mod, attr in tables["FUNCTIONS"].values()]
    bound += [(mod, f"{cls}.{attr}")
              for mod, cls, attr in tables["METHODS"].values()]
    bound.append(("afem.driver", "Problem.from_manufactured"))
    missing = []
    for mod, path in bound:
        obj = importlib.import_module(mod)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{mod}.{path}")
    assert len(bound) > 15 and missing == []
