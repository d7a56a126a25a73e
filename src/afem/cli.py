"""Command-line front end for adaptive runs.

Configures a run, executes the adaptive loop, and writes a convergence
CSV plus a JSON manifest into the output directory; optional dumps
cover the final mesh, the final per-cell indicators and the final
solution.  Configuration errors exit with status 2 and a diagnostic
naming the offending flag.
"""

from __future__ import annotations

import argparse
import ast
import json
import operator
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .driver import (AfemConfig, Problem, records_to_csv, run, run_summary)
from .solver import NotSPDError, SolveOptions
from .splines import load_solution, save_solution
from .oracles import manufactured_bubble, manufactured_sin2, zero_problem

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
              "abs": np.abs, "log": np.log}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_NAMES = {"x": lambda x, y: x, "y": lambda x, y: y, "pi": lambda x, y: np.pi}


def _function(node: ast.expr):
    """The whitelisted function a call names, ``sin`` or ``np.sin``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "np":
        return _FUNCTIONS.get(node.attr)
    return _FUNCTIONS.get(node.id) if isinstance(node, ast.Name) else None


def _compile(node: ast.expr):
    """``(x, y) -> value`` for an expression built only from numbers,
    ``x``, ``y``, ``pi``, arithmetic and whitelisted one-argument calls;
    any other construct raises ``ValueError`` naming it."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # numpy scalar semantics: no unbounded integer arithmetic, and
        # 1/0 is inf (rejected later as non-finite), not an exception
        value = np.float64(node.value)
        return lambda x, y: value
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        a, b = _compile(node.left), _compile(node.right)
        return lambda x, y: op(a(x, y), b(x, y))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op, a = _UNARY[type(node.op)], _compile(node.operand)
        return lambda x, y: op(a(x, y))
    if isinstance(node, ast.Call) and len(node.args) == 1 \
            and not node.keywords and (f := _function(node.func)):
        a = _compile(node.args[0])
        return lambda x, y: f(a(x, y))
    raise ValueError(f"{type(node).__name__} {ast.unparse(node)!r} is not "
                     "allowed in a problem expression")


def _expr(text: str):
    """Vectorised ``f(x, y)`` of a problem expression, checked on load."""
    if not isinstance(text, str):
        raise ValueError(f"problem expression must be a string, got {text!r}")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"problem expression {text!r}: {exc.msg}") from None
    body = _compile(tree.body)

    def f(x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        # a nan or inf value is rejected downstream with afem's message
        with np.errstate(all="ignore"):
            vals = body(x, y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        # a constant expression gives a scalar: spread it over the points
        return vals if np.shape(vals) == shape else np.full(shape, vals)

    return f


def _entry(spec: dict, key: str, gradient: bool = False):
    """Entry ``key`` of a problem file as a callable (``None`` if absent)."""
    if key not in spec:
        return None
    text = spec[key]
    if gradient and not (isinstance(text, list) and len(text) == 2):
        raise ValueError(f"{key!r} must be a list of two expressions, "
                         f"got {text!r}")
    try:
        if not gradient:
            return _expr(text)
        fx, fy = _expr(text[0]), _expr(text[1])
    except ValueError as exc:
        raise ValueError(f"{key!r}: {exc}") from None
    return lambda x, y: (fx(x, y), fy(x, y))


def load_problem(name: str) -> Problem:
    """Resolve a problem name: built-in ``sin2``/``bubble``/``zero`` or a
    JSON file.

    A custom file provides expressions in ``x`` and ``y`` (see
    :func:`_compile` for what they may contain)::

        {"name": "...", "f": "...", "u": "...", "grad_u": ["...", "..."],
         "laplacian_u": "...", "grad_laplacian_u": ["...", "..."]}

    Only ``f`` is required; error tracking needs the exact-solution
    entries.
    """
    if name == "sin2":
        return manufactured_sin2()
    if name == "zero":
        return zero_problem()
    if name == "bubble":
        return manufactured_bubble()
    if not os.path.exists(name):
        raise KeyError(name)
    with open(name, encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"problem file {name!r} is not a JSON object")
    if "f" not in spec:
        raise ValueError(f"custom problem file {name!r} lacks an 'f' entry")
    title = spec.get("name", os.path.basename(name))
    if not isinstance(title, str):
        raise ValueError(f"'name' must be a string, got {title!r}")
    return Problem(
        name=title,
        f=_entry(spec, "f"), u=_entry(spec, "u"),
        grad_u=_entry(spec, "grad_u", gradient=True),
        laplacian_u=_entry(spec, "laplacian_u"),
        grad_laplacian_u=_entry(spec, "grad_laplacian_u", gradient=True),
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="afem",
        description="Adaptive hierarchical B-spline solver for the clamped "
                    "biharmonic problem on the unit square.")
    ap.add_argument("--problem", default="sin2",
                    help="sin2, bubble, zero, or a path to a JSON problem "
                         "file")
    ap.add_argument("--mode", choices=("conforming", "nitsche"),
                    default="conforming")
    ap.add_argument("--degree", type=int, default=2)
    ap.add_argument("--theta", type=float, default=0.5,
                    help="bulk-chasing fraction in (0, 1]")
    ap.add_argument("--gamma1", type=float, default=None)
    ap.add_argument("--gamma2", type=float, default=None)
    ap.add_argument("--initial-levels", type=int, default=2)
    ap.add_argument("--max-dofs", type=int, default=20000)
    ap.add_argument("--max-iters", type=int, default=25)
    ap.add_argument("--quad-n", type=int, default=None)
    ap.add_argument("--solver", choices=("direct", "cg"), default="direct")
    ap.add_argument("--dump-mesh", action="store_true",
                    help="write the final mesh as 'level i j' records")
    ap.add_argument("--dump-indicators", action="store_true",
                    help="write final per-cell indicator records")
    ap.add_argument("--save-solution", action="store_true",
                    help="write the final solution in plain text")
    ap.add_argument("--load-solution", metavar="PATH", default=None,
                    help="inspect a previously saved solution and exit")
    ap.add_argument("--out", default="afem-out",
                    help="output directory (created if missing)")
    ap.add_argument("--version", action="version", version=__version__)
    return ap


def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".manifest-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    if args.load_solution is not None:
        try:
            fn = load_solution(args.load_solution)
        except (OSError, ValueError) as exc:
            ap.error(f"--load-solution: {exc}")
        s = fn.space
        print(f"solution: degree={s.degree} truncated={int(s.truncated)} "
              f"cells={len(s.partition)} dofs={s.dim} "
              f"coeff_range=[{float(fn.coefficients.min())!r}, "
              f"{float(fn.coefficients.max())!r}]")
        return 0

    try:  # AfemConfig's messages lead with the field, named here by flag
        cfg = AfemConfig(
            degree=args.degree, theta=args.theta, mode=args.mode,
            gamma1=args.gamma1, gamma2=args.gamma2,
            initial_levels=args.initial_levels, max_dofs=args.max_dofs,
            max_iters=args.max_iters, quad_n=args.quad_n,
            solver=SolveOptions(method=args.solver),
        )
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        ap.error(f"--{field.replace('_', '-')} {rest}")

    try:
        prob = load_problem(args.problem)
    except KeyError:
        ap.error(f"--problem: unknown problem {args.problem!r} "
                 "(expected sin2, bubble, zero, or a JSON file path)")
    except (ValueError, json.JSONDecodeError) as exc:
        ap.error(f"--problem: {exc}")

    final = {}

    def keep_last(state):
        final["state"] = state

    try:  # before the run, so an unusable --out does not cost one
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        ap.error(f"--out: cannot make {args.out!r}: {exc.strerror or exc}")
    try:
        records = run(cfg, prob, on_iteration=keep_last)
    except (NotSPDError, ValueError) as exc:
        print(f"afem: {exc}", file=sys.stderr)
        return 2

    outputs = {}

    csv_path = os.path.join(args.out, "convergence.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))
    outputs["csv"] = csv_path

    state = final["state"]
    if args.dump_mesh:
        path = os.path.join(args.out, "mesh_final.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(state.partition.dump())
        outputs["mesh"] = path
    if args.dump_indicators:
        path = os.path.join(args.out, "indicators_final.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(state.indicators.dump())
        outputs["indicators"] = path
    if args.save_solution:
        path = os.path.join(args.out, "solution.txt")
        save_solution(state.solution, path)
        outputs["solution"] = path

    manifest = {
        "problem": prob.name,
        "build": f"afem-biharmonic {__version__}",
        "outputs": outputs,
        "summary": run_summary(cfg, prob, records),
    }
    _atomic_write(os.path.join(args.out, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    last = records[-1]
    print(f"{prob.name}: {len(records)} iterations, {last.n_dofs} dofs, "
          f"eta={last.eta:.6e}" +
          (f", energy_error={last.energy_error:.6e}"
           if last.energy_error is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
