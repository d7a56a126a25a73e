"""Assembly of the biharmonic bilinear forms, loads and boundary norms.

Two discretizations share one volume term ``(lap u, lap v)``:

* conforming mode restricts trial and test functions to the subspace
  with zero value and normal derivative on the boundary;
* weak-boundary (Nitsche) mode keeps the full space and adds boundary
  integrals built from the cellwise L2 projection of the Laplacian onto
  tensor polynomials of degree r-2, plus penalty terms weighted by
  ``h^-3`` and ``h^-1`` with stabilization parameters gamma1, gamma2.

All spline-spline integrals are exact for the default rule of
``max(r + 2, 6)`` Gauss points per direction; data integrals use the
same rule, leaving unresolved data to the oscillation terms tracked by
the estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.sparse import coo_matrix, csr_matrix, triu

from .mesh import Cell, Edge, Partition, edges
from .quadrature import gauss_cell, gauss_edge
from .splines import HierarchicalSpace, SplineFunction, conforming_indices

__all__ = [
    "AnalyticField",
    "FormParams",
    "SystemMatrix",
    "LoadVector",
    "PiecewisePoly",
    "assemble",
    "project_laplacian",
    "project_from_samples",
    "mesh_norm",
    "triple_norm",
    "inconsistency_apply",
    "inconsistency_load",
    "energy_norm_sq",
    "energy_error_sq",
    "energy_diff_sq",
    "h2_seminorm_sq",
    "default_gamma",
]


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form scalar field with the callbacks the norms need."""

    value: Callable
    grad: Callable | None = None        # -> (ux, uy) arrays
    laplacian: Callable | None = None


def default_gamma(r: int) -> float:
    """Stabilization that keeps the Nitsche system SPD for r in 2..4.

    Trace and inverse constants grow like (r+1)^2 per differentiation
    order; the factor 10 is calibrated headroom.
    """
    return 10.0 * (r + 1) ** 4


def default_quad_n(r: int) -> int:
    """Gauss points per direction for assembly and estimation.

    ``r + 2`` makes every spline-spline integral exact; the floor of 6
    keeps the data-quadrature error of rough sources far below the
    orthogonality-identity tolerances at low degree.
    """
    return max(r + 2, 6)


@dataclass(frozen=True)
class FormParams:
    mode: str = "conforming"          # "conforming" | "nitsche"
    gamma1: float | None = None
    gamma2: float | None = None
    quad_n: int | None = None

    def __post_init__(self):
        if self.mode not in ("conforming", "nitsche"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def resolved(self, r: int) -> "FormParams":
        g1 = self.gamma1 if self.gamma1 is not None else default_gamma(r)
        g2 = self.gamma2 if self.gamma2 is not None else default_gamma(r)
        qn = self.quad_n if self.quad_n is not None else default_quad_n(r)
        if self.mode == "nitsche" and (g1 <= 0.0 or g2 <= 0.0):
            raise ValueError("nitsche mode needs positive gamma1 and gamma2")
        return replace(self, gamma1=g1, gamma2=g2, quad_n=qn)


@dataclass(frozen=True)
class SystemMatrix:
    """Sparse symmetric form matrix over a subset of active functions."""

    matrix: csr_matrix
    positions: tuple[int, ...]  # active-function positions, row/col order

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def export_coo(self) -> str:
        """Coordinate triplets ``row col value``, lexicographic order."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines = [f"{coo.row[k]} {coo.col[k]} {coo.data[k]!r}"
                 for k in order]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class LoadVector:
    values: np.ndarray
    positions: tuple[int, ...]


# ---------------------------------------------------------------------------
# cellwise Legendre helpers
# ---------------------------------------------------------------------------

# entries of the process-wide Legendre-table cache
LEGENDRE_CACHE_SIZE = 1024


@lru_cache(maxsize=LEGENDRE_CACHE_SIZE)
def _legendre_1d(d: int, order: int, xi_bytes: bytes) -> np.ndarray:
    """Values of ``P_a^(order)`` for a = 0..d at the local coordinates
    packed in ``xi_bytes`` (float64), shape ``(d+1, n)``, read-only.

    Memoised on the exact bytes, so a hit returns what the evaluation
    would have computed, bit for bit.
    """
    eye = np.eye(d + 1)
    coef = npleg.legder(eye, order, axis=0) if order else eye
    tab = npleg.legval(np.frombuffer(xi_bytes), coef)
    tab.flags.writeable = False
    return tab


def _local_coords(cell: Cell, xs: np.ndarray, ys: np.ndarray):
    x0, x1, y0, y1 = cell.bounds
    xi = 2.0 * (np.asarray(xs, float) - x0) / (x1 - x0) - 1.0
    zeta = 2.0 * (np.asarray(ys, float) - y0) / (y1 - y0) - 1.0
    return xi, zeta


def _legendre_modes(cell: Cell, d: int, xs: np.ndarray, ys: np.ndarray,
                    ax: int = 0, ay: int = 0) -> np.ndarray:
    """Tensor Legendre mode derivatives at paired points, ((d+1)^2, n)."""
    xi, zeta = _local_coords(cell, xs, ys)
    Px = _legendre_1d(d, ax, xi.tobytes())
    Py = _legendre_1d(d, ay, zeta.tobytes())
    scale = (2.0 / cell.side) ** (ax + ay)
    return (Px[:, None, :] * Py[None, :, :]).reshape((d + 1) ** 2, -1) * scale


class PiecewisePoly:
    """Cellwise tensor polynomial of bounded degree.

    Coefficients are tensor monomial coefficients on local coordinates
    ``(xi, zeta) in [-1, 1]^2`` per cell; ``coeffs[cell][a, b]``
    multiplies ``xi**a * zeta**b``.
    """

    def __init__(self, degree: int, coeffs: dict[Cell, np.ndarray]):
        self.degree = degree
        self.coeffs = coeffs

    def eval_many(self, xs: np.ndarray, ys: np.ndarray, ax: int, ay: int,
                  cell: Cell) -> np.ndarray:
        c = self.coeffs.get(cell)
        if c is None:
            raise KeyError(f"no polynomial stored on {cell}")
        if ax:
            c = np.polynomial.polynomial.polyder(c, ax, axis=0)
        if ay:
            c = np.polynomial.polynomial.polyder(c, ay, axis=1)
        xi, zeta = _local_coords(cell, xs, ys)
        vals = np.polynomial.polynomial.polyval2d(xi, zeta, np.atleast_2d(c))
        return vals * (2.0 / cell.side) ** (ax + ay)

    def eval(self, x: float, y: float, ax: int = 0, ay: int = 0,
             cell: Cell | None = None) -> float:
        if cell is None:
            cell = next((c for c in self.coeffs if c.contains(x, y)), None)
            if cell is None:
                raise KeyError(f"no polynomial stored at ({x}, {y})")
        return float(self.eval_many(np.array([x]), np.array([y]), ax, ay,
                                    cell)[0])


def _project_values(cell: Cell, d: int, vals: np.ndarray, rule,
                    modes: np.ndarray) -> np.ndarray:
    """Legendre coefficients of the L2 projection of sampled values.

    ``vals`` is one field, shape ``(n,)``, or a stack ``(k, n)``, and
    ``modes`` the cell's :func:`_legendre_modes` at the rule's points;
    the coefficients have shape ``((d+1)^2,)`` or ``(k, (d+1)^2)``.
    """
    a = np.arange(d + 1)
    norms = np.outer(2 * a + 1, 2 * a + 1).astype(float).ravel() / cell.side ** 2
    return ((modes * rule.weights) @ vals.T).T * norms


def _cell_projections(cells, d: int, n: int,
                      sample) -> dict[Cell, np.ndarray]:
    """Legendre coefficients of the projection onto degree ``d`` of
    ``sample(cell, xs, ys)`` (one field or a stack) on each cell."""
    out = {}
    for cell in cells:
        rule = gauss_cell(cell, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        out[cell] = _project_values(cell, d, sample(cell, xs, ys), rule,
                                    _legendre_modes(cell, d, xs, ys))
    return out


def _monomial_poly(d: int, legendre: dict[Cell, np.ndarray]) -> PiecewisePoly:
    """Cellwise Legendre coefficients as a monomial :class:`PiecewisePoly`."""
    l2p = np.zeros((d + 1, d + 1))  # column a: monomial coefficients of P_a
    for a in range(d + 1):
        l2p[: a + 1, a] = npleg.leg2poly(np.eye(a + 1)[a])
    return PiecewisePoly(d, {cell: l2p @ a.reshape(d + 1, d + 1) @ l2p.T
                             for cell, a in legendre.items()})


def _legendre_traces(coef: np.ndarray, e: Edge, d: int, xs, ys):
    """Trace and normal-derivative trace ``(Pi v, d_n Pi v)`` on a
    boundary edge of the cellwise Legendre expansion(s) ``coef``.

    The normal is axis-aligned, so the normal derivative is the sign
    ``e.normal[e.axis]`` times the normal-axis derivative; the dropped
    tangential term of ``nx*dx + ny*dy`` is an exact zero.
    """
    modes_n = _legendre_modes(e.plus, d, xs, ys, *_edge_orders(e.axis))
    return (coef @ _legendre_modes(e.plus, d, xs, ys),
            e.normal[e.axis] * (coef @ modes_n))


def project_laplacian(fn: SplineFunction,
                      quad_n: int | None = None) -> PiecewisePoly:
    """Cellwise L2 projection of ``lap fn`` onto tensor degree r-2."""
    r = fn.space.degree
    n = quad_n if quad_n is not None else default_quad_n(r)

    def lap(cell, xs, ys):
        d = fn.eval_batch(xs, ys, [(2, 0), (0, 2)], cell)
        return d[(2, 0)] + d[(0, 2)]

    return _monomial_poly(r - 2, _cell_projections(fn.space.partition,
                                                   r - 2, n, lap))


def project_from_samples(p: Partition, g, degree: int,
                         cells=None, quad_n: int | None = None) -> PiecewisePoly:
    """Cellwise L2 projection of a sampled scalar field.

    The projection is discretised with the assembly quadrature rule,
    which is the faithful choice for data that is not piecewise
    polynomial.
    """
    n = quad_n if quad_n is not None else degree + 4
    return _monomial_poly(degree, _cell_projections(
        cells if cells is not None else p.cells, degree, n,
        lambda cell, xs, ys: np.asarray(g(xs, ys), float)))


# ---------------------------------------------------------------------------
# form assembly
# ---------------------------------------------------------------------------

def assemble(s: HierarchicalSpace, f, params: FormParams,
             ) -> tuple[SystemMatrix, LoadVector]:
    """Assemble the form matrix and load for the requested mode.

    ``f`` is a vectorised callable ``f(x, y)``.  In conforming mode the
    system is restricted to the boundary-conforming subspace; an empty
    subspace (mesh too coarse) raises.
    """
    params = params.resolved(s.degree)
    n = params.quad_n
    if params.mode == "conforming":
        keep = conforming_indices(s)
        if not keep:
            raise ValueError(
                "conforming subspace is empty; start from a finer mesh")
    else:
        keep = tuple(range(s.dim))
    imap = np.full(s.dim, -1, dtype=int)
    for k, pos in enumerate(keep):
        imap[pos] = k
    dim = len(keep)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    b = np.zeros(dim)

    def scatter(pos, block, load=None):
        idx = imap[list(pos)]
        live = idx >= 0
        if not np.any(live):
            return
        sub = idx[live]
        k = len(sub)
        rows.append(np.repeat(sub, k))
        cols.append(sub[None, :].repeat(k, axis=0).ravel())
        vals.append(block[live[:, None] & live])
        if load is not None:
            b[sub] += load[live]

    # volume pass: (lap u, lap v) and the load
    for cell in s.partition:
        rule = gauss_cell(cell, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, tabs = s.basis_on_cell(cell, xs, ys, [(0, 0), (2, 0), (0, 2)])
        V = tabs[(0, 0)]
        LAP = tabs[(2, 0)] + tabs[(0, 2)]
        fvals = np.asarray(f(xs, ys), float)
        scatter(pos, (LAP * w) @ LAP.T, V @ (w * fvals))

    if params.mode == "nitsche":
        _assemble_boundary(s, params, scatter)

    A = _symmetric_csr(rows, cols, vals, dim)
    return SystemMatrix(A, tuple(keep)), LoadVector(b, tuple(keep))


def _symmetric_csr(rows, cols, vals, dim: int) -> csr_matrix:
    """Sum COO blocks into CSR and mirror the upper triangle, so the
    matrix is exactly symmetric whatever the summation order."""
    A = coo_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(dim, dim)).tocsr()
    return (triu(A, k=0) + triu(A, k=1).T).tocsr()


def _edge_orders(axis: int):
    """Derivative order of the normal-axis derivative on an edge."""
    return (1, 0) if axis == 0 else (0, 1)


def _boundary_basis(s: HierarchicalSpace, e: Edge, xs, ys):
    """Active functions on a boundary edge: positions, traces and
    normal-derivative traces (sign times the normal-axis derivative)."""
    order = _edge_orders(e.axis)
    pos, tabs = s.basis_on_cell(e.plus, xs, ys, [(0, 0), order])
    return pos, tabs[(0, 0)], e.normal[e.axis] * tabs[order]


def _assemble_boundary(s: HierarchicalSpace, params: FormParams, scatter):
    n = params.quad_n
    d = s.degree - 2
    _, bdry = edges(s.partition)

    def lap_basis(cell, xs, ys):
        _, tabs = s.basis_on_cell(cell, xs, ys, [(2, 0), (0, 2)])
        return tabs[(2, 0)] + tabs[(0, 2)]

    # Legendre coefficients of Pi(lap B) for every function B on the cell
    proj = _cell_projections(sorted({e.plus for e in bdry}), d, n, lap_basis)
    for e in bdry:
        rule = gauss_edge(e, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, v, vn = _boundary_basis(s, e, xs, ys)
        pvals, pnvals = _legendre_traces(proj[e.plus], e, d, xs, ys)
        h = e.length
        block = (
            -((pvals * w) @ vn.T + (vn * w) @ pvals.T)
            + ((pnvals * w) @ v.T + (v * w) @ pnvals.T)
            + params.gamma1 * h ** -3 * (v * w) @ v.T
            + params.gamma2 * h ** -1 * (vn * w) @ vn.T
        )
        scatter(pos, block)


# ---------------------------------------------------------------------------
# norms and functionals
# ---------------------------------------------------------------------------

def _edge_trace(fn, e: Edge, xs, ys, normal: bool) -> np.ndarray:
    """Trace (or normal-derivative trace) values on a boundary edge."""
    sign = e.normal[e.axis]
    if isinstance(fn, SplineFunction):
        if normal:
            return sign * fn.eval_many(xs, ys, *_edge_orders(e.axis), e.plus)
        return fn.eval_many(xs, ys, 0, 0, e.plus)
    if isinstance(fn, AnalyticField):
        if normal:
            return sign * np.asarray(fn.grad(xs, ys)[e.axis], float)
        return np.asarray(fn.value(xs, ys), float)
    if normal:
        raise TypeError("normal trace of a bare callable is not defined")
    return np.asarray(fn(xs, ys), float)


def mesh_norm(fn, s: float, p: Partition, normal: bool = False,
              quad_n: int | None = None) -> float:
    """Boundary mesh norm: sqrt of sum over boundary edges of
    ``h^(-2s) * ||trace||^2``.

    ``fn`` may be a spline, an :class:`AnalyticField`, or a plain
    callable; with ``normal=True`` the normal-derivative trace is used.
    """
    degree = getattr(getattr(fn, "space", None), "degree", 3)
    n = quad_n if quad_n is not None else default_quad_n(degree)
    _, bdry = edges(p)
    total = 0.0
    for e in bdry:
        rule = gauss_edge(e, n)
        vals = _edge_trace(fn, e, rule.points[:, 0], rule.points[:, 1], normal)
        total += e.length ** (-2.0 * s) * float(rule.weights @ vals ** 2)
    return total ** 0.5


def energy_norm_sq(fn: SplineFunction, quad_n: int | None = None) -> float:
    """Squared energy norm ``||lap fn||^2`` (exact quadrature)."""
    s = fn.space
    n = quad_n if quad_n is not None else default_quad_n(s.degree)
    total = 0.0
    for cell in s.partition:
        rule = gauss_cell(cell, n)
        d = fn.eval_batch(rule.points[:, 0], rule.points[:, 1],
                          [(2, 0), (0, 2)], cell)
        lap = d[(2, 0)] + d[(0, 2)]
        total += float(rule.weights @ lap ** 2)
    return total


def triple_norm(fn, p: Partition, params: FormParams,
                quad_n: int | None = None) -> float:
    """Mesh-dependent norm: energy part plus gamma-weighted boundary norms."""
    r = getattr(getattr(fn, "space", None), "degree", 3)
    params = params.resolved(r)
    n = quad_n if quad_n is not None else params.quad_n
    if isinstance(fn, SplineFunction):
        interior = energy_norm_sq(fn, n)
    elif isinstance(fn, AnalyticField):
        interior = 0.0
        for cell in p:
            rule = gauss_cell(cell, n)
            lap = np.asarray(
                fn.laplacian(rule.points[:, 0], rule.points[:, 1]), float)
            interior += float(rule.weights @ lap ** 2)
    else:
        raise TypeError("triple_norm needs a SplineFunction or AnalyticField")
    b32 = mesh_norm(fn, 1.5, p, normal=False, quad_n=n)
    b12 = mesh_norm(fn, 0.5, p, normal=True, quad_n=n)
    return (interior + params.gamma1 * b32 ** 2
            + params.gamma2 * b12 ** 2) ** 0.5


def triple_norm_matrix(s: HierarchicalSpace, params: FormParams) -> csr_matrix:
    """Gram matrix of the mesh-dependent norm over the full active basis:
    ``|||v|||^2 = v^T T v``."""
    params = params.resolved(s.degree)
    n = params.quad_n
    rows, cols, vals = [], [], []

    def scatter(pos, block):
        k = len(pos)
        rows.append(np.repeat(pos, k))
        cols.append(np.tile(pos, k))
        vals.append(block.ravel())

    for cell in s.partition:
        rule = gauss_cell(cell, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, tabs = s.basis_on_cell(cell, xs, ys, [(2, 0), (0, 2)])
        lap = tabs[(2, 0)] + tabs[(0, 2)]
        scatter(pos, (lap * w) @ lap.T)
    _, bdry = edges(s.partition)
    for e in bdry:
        rule = gauss_edge(e, n)
        w = rule.weights
        pos, v, vn = _boundary_basis(s, e, rule.points[:, 0], rule.points[:, 1])
        h = e.length
        scatter(pos, params.gamma1 * h ** -3 * (v * w) @ v.T
                + params.gamma2 * h ** -1 * (vn * w) @ vn.T)
    return _symmetric_csr(rows, cols, vals, s.dim)


def inconsistency_load(lap_u, grad_lap_u, s: HierarchicalSpace,
                       quad_n: int | None = None) -> np.ndarray:
    """Load vector ``g`` of the boundary defect functional of the
    projected-Laplacian form, ``<defect, v> = g . v`` for v in ``s``.

    ``lap_u(x, y)`` and ``grad_lap_u(x, y) -> (gx, gy)`` are analytic
    callbacks for the exact solution; the defect is
    ``int_G ((Pi lap u)_n - (lap u)_n) v - int_G (Pi lap u - lap u) v_n``
    with the projection taken cellwise on boundary cells from samples.
    """
    n = quad_n if quad_n is not None else default_quad_n(s.degree)
    d = s.degree - 2
    _, bdry = edges(s.partition)
    proj = _cell_projections(
        sorted({e.plus for e in bdry}), d, n,
        lambda cell, xs, ys: np.asarray(lap_u(xs, ys), float))
    g = np.zeros(s.dim)
    for e in bdry:
        rule = gauss_edge(e, n)
        xs, ys, w = rule.points[:, 0], rule.points[:, 1], rule.weights
        pos, v, vn = _boundary_basis(s, e, xs, ys)
        pi_v, pi_n = _legendre_traces(proj[e.plus], e, d, xs, ys)
        lap_v = np.asarray(lap_u(xs, ys), float)
        lap_n = e.normal[e.axis] * np.asarray(grad_lap_u(xs, ys)[e.axis], float)
        g[list(pos)] += v @ (w * (pi_n - lap_n)) - vn @ (w * (pi_v - lap_v))
    return g


def inconsistency_apply(lap_u, grad_lap_u, v: SplineFunction, p: Partition,
                        s: HierarchicalSpace,
                        quad_n: int | None = None) -> float:
    """Boundary defect functional ``<defect, v>`` of
    :func:`inconsistency_load` applied to a spline ``v`` in ``s``."""
    if p != s.partition:
        raise ValueError("inconsistency_apply needs p == s.partition")
    if v.space is not s and (v.space.partition, v.space.degree,
                             v.space.truncated) != (p, s.degree, s.truncated):
        raise ValueError("v does not live in the space s")
    return float(inconsistency_load(lap_u, grad_lap_u, s, quad_n)
                 @ v.coefficients)


# ---------------------------------------------------------------------------
# error integrals
# ---------------------------------------------------------------------------

def energy_error_sq(lap_u, fn: SplineFunction,
                    quad_n: int | None = None) -> float:
    """``||lap u - lap fn||^2`` against an analytic Laplacian callback."""
    s = fn.space
    n = quad_n if quad_n is not None else default_quad_n(s.degree) + 2
    total = 0.0
    for cell in s.partition:
        rule = gauss_cell(cell, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        d = fn.eval_batch(xs, ys, [(2, 0), (0, 2)], cell)
        diff = np.asarray(lap_u(xs, ys), float) - d[(2, 0)] - d[(0, 2)]
        total += float(rule.weights @ diff ** 2)
    return total


def energy_diff_sq(fine: SplineFunction, coarse: SplineFunction,
                   quad_n: int | None = None) -> float:
    """``||lap(fine - coarse)||^2`` for splines on nested partitions."""
    n = quad_n if quad_n is not None else default_quad_n(fine.space.degree)
    total = 0.0
    for cell in fine.space.partition:
        owner = coarse.space.partition.owner(cell)
        rule = gauss_cell(cell, n)
        xs, ys = rule.points[:, 0], rule.points[:, 1]
        df = fine.eval_batch(xs, ys, [(2, 0), (0, 2)], cell)
        dc = coarse.eval_batch(xs, ys, [(2, 0), (0, 2)], owner)
        diff = df[(2, 0)] + df[(0, 2)] - dc[(2, 0)] - dc[(0, 2)]
        total += float(rule.weights @ diff ** 2)
    return total


def h2_seminorm_sq(fn: SplineFunction, cells=None,
                   quad_n: int | None = None) -> float:
    """``int (fxx^2 + 2 fxy^2 + fyy^2)`` over the given cells (default all)."""
    s = fn.space
    n = quad_n if quad_n is not None else default_quad_n(s.degree)
    total = 0.0
    for cell in (cells if cells is not None else s.partition):
        rule = gauss_cell(cell, n)
        d = fn.eval_batch(rule.points[:, 0], rule.points[:, 1],
                          [(2, 0), (1, 1), (0, 2)], cell)
        total += float(rule.weights @ (d[(2, 0)] ** 2
                                       + 2.0 * d[(1, 1)] ** 2
                                       + d[(0, 2)] ** 2))
    return total
