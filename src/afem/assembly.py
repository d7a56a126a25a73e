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
from numbers import Integral
from typing import Callable

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.sparse import coo_matrix, csr_matrix, triu

from .mesh import Cell, Edge, Partition, edges
from .quadrature import _cell_sum, _on_points, _requests
from .solver import _check_number
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
            raise ValueError(f"mode must be 'conforming' or 'nitsche', "
                             f"got {self.mode!r}")
        q = self.quad_n
        if q is not None and (not isinstance(q, Integral)
                              or isinstance(q, bool) or q < 1):
            raise ValueError(f"quad_n must be a positive integer, got {q!r}")
        for name in ("gamma1", "gamma2"):
            g = getattr(self, name)
            if g is not None:
                _check_number(name, g)
                if not 0.0 < g < np.inf:  # a nan fails too
                    raise ValueError(f"{name} must be positive and finite, "
                                     f"got {g}")

    def resolved(self, r: int) -> "FormParams":
        g1 = self.gamma1 if self.gamma1 is not None else default_gamma(r)
        g2 = self.gamma2 if self.gamma2 is not None else default_gamma(r)
        qn = self.quad_n if self.quad_n is not None else default_quad_n(r)
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

# entries of the process-wide Legendre-table cache: the sin2 r=2 runs to
# 20k dofs fill 16 (conforming) and 51 (Nitsche), so neither evicts one
LEGENDRE_CACHE_SIZE = 1024
# derivative orders whose sum is the Laplacian
_LAP_ORDERS = [(2, 0), (0, 2)]


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
    """Cellwise tensor polynomial of bounded degree on cells of a partition.

    Coefficients are tensor monomial coefficients on local coordinates
    ``(xi, zeta) in [-1, 1]^2`` per cell; ``coeffs[cell][a, b]``
    multiplies ``xi**a * zeta**b``.  A point is located as a spline's is.
    """

    def __init__(self, partition: Partition, degree: int, coeffs: dict):
        self.partition = partition
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
            cell = self.partition.find_cell(x, y)
            if cell not in self.coeffs:
                raise KeyError(f"no polynomial stored at ({x}, {y})")
        return float(self.eval_many(np.array([x]), np.array([y]), ax, ay,
                                    cell)[0])


def _legendre_project(cells, d: int, X, Y, W: np.ndarray, V: np.ndarray):
    """Legendre modes ``(B, m, N)`` of degree ``d`` of ``cells`` at their
    rules ``(X[q], Y[q], W[q])``, and the coefficients of the projection
    of ``V``, ``(B, N) -> (B, m)`` or ``(B, k, N) -> (B, k, m)``: one
    batched product, per item the BLAS call of the one-cell product."""
    modes = np.array([_legendre_modes(c, d, x, y)
                      for c, x, y in zip(cells, X, Y)])
    a = np.arange(d + 1)
    norms = (np.outer(2 * a + 1, 2 * a + 1).ravel()
             / np.array([[c.side ** 2] for c in cells]))
    stack = V if V.ndim == 3 else V[:, None, :]
    coef = ((modes * W[:, None, :]) @ stack.transpose(0, 2, 1)).transpose(
        0, 2, 1) * norms[:, None, :]
    return modes, coef if V.ndim == 3 else coef[:, 0]


def _cell_projections(cells, d: int, n: int, field,
                      data=None) -> dict[Cell, np.ndarray]:
    """Projections onto degree ``d`` of the fields ``(R, N)`` that
    ``field(run, X, Y, F)`` gives per run, keyed in the order of ``cells``."""
    coef = {}
    for _, run, X, Y, W, F in _requests(list(cells), n, data):
        coef.update(zip(run, _legendre_project(run, d, X, Y, W,
                                               field(run, X, Y, F))[1]))
    return coef


def _spline_field(fn: SplineFunction, orders, expr):
    """``field(run, X, Y, F)`` of :func:`_requests` consumers: ``expr(F,
    values)`` of ``fn``'s derivative values on the run's cells."""
    return lambda run, X, Y, F: expr(F, fn.eval_stacked(run, X, Y, orders))


def _monomial_poly(p: Partition, d: int, legendre: dict) -> PiecewisePoly:
    """Legendre coefficients on cells of ``p`` as a :class:`PiecewisePoly`."""
    l2p = np.zeros((d + 1, d + 1))  # column a: monomial coefficients of P_a
    for a in range(d + 1):
        l2p[: a + 1, a] = npleg.leg2poly(np.eye(a + 1)[a])
    return PiecewisePoly(p, d, {cell: l2p @ a.reshape(d + 1, d + 1) @ l2p.T
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


def project_laplacian(fn: SplineFunction) -> PiecewisePoly:
    """Cellwise L2 projection of ``lap fn`` onto tensor degree r-2."""
    r, p = fn.space.degree, fn.space.partition
    return _monomial_poly(p, r - 2, _cell_projections(
        p.cells, r - 2, default_quad_n(r), _spline_field(
            fn, _LAP_ORDERS, lambda F, L: L[(2, 0)] + L[(0, 2)])))


def project_from_samples(p: Partition, g, degree: int,
                         quad_n: int | None = None) -> PiecewisePoly:
    """Cellwise L2 projection of a sampled scalar field on the cells of ``p``.

    The projection is discretised with the assembly quadrature rule,
    which is the faithful choice for data that is not piecewise
    polynomial.
    """
    n = quad_n if quad_n is not None else degree + 4
    return _monomial_poly(p, degree, _cell_projections(
        p.cells, degree, n, lambda run, X, Y, F: F, g))


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

    rows, cols, vals = [], [], []
    b = np.zeros(dim)
    _assemble_volume(s, f, n, imap, rows, cols, vals, b)
    if params.mode == "nitsche":
        _assemble_boundary(s, params, imap, rows, cols, vals)

    A = _symmetric_csr(rows, cols, vals, dim)
    return SystemMatrix(A, tuple(keep)), LoadVector(b, tuple(keep))


def _coo_index(imap: np.ndarray, pos, rows: list, cols: list):
    """Append the COO rows and columns of the live part (``imap >= 0``)
    of a block over the active positions ``pos``; returns its mask and
    system indices."""
    idx = imap[list(pos)]
    live = idx >= 0
    sub = idx[live]
    k = len(sub)
    rows.append(np.repeat(sub, k))
    cols.append(sub[None, :].repeat(k, axis=0).ravel())
    return live, sub


def _assemble_volume(s: HierarchicalSpace, f, n: int, imap: np.ndarray,
                     rows: list, cols: list, vals: list, b: np.ndarray):
    """Volume pass ``(lap u, lap v)`` and, unless ``f`` is ``None``, the
    load, in stacked chunks.

    Entries keep the per-cell COO layout and order: each cell's live
    rows and columns go to ``rows``/``cols`` and its Gram block to its
    offset in one preallocated value array, so no chunk outlives its
    products.  The load is added cell by cell in partition order.
    """
    cells = s.partition.cells
    lives, subs, offsets = [], [], [0]
    for cell in cells:
        live, sub = _coo_index(imap, s.cell_extraction(cell)[0], rows, cols)
        lives.append(live)
        subs.append(sub)
        offsets.append(offsets[-1] + len(sub) ** 2)
    block = np.empty(offsets[-1])
    loads = [None] * len(cells)
    for lo, run, X, Y, W, F in _requests(cells, n, f):
        for items, _, tabs in s.basis_stacks(run, X, Y,
                                             [(0, 0), (2, 0), (0, 2)]):
            LAP = tabs[(2, 0)] + tabs[(0, 2)]
            gram = (LAP * W[items][:, None, :]) @ LAP.transpose(0, 2, 1)
            if f is not None:
                load = tabs[(0, 0)] @ (W[items] * F[items])[:, :, None]
            for j, c in enumerate(lo + q for q in items):
                live = lives[c]
                mask = live[:, None] & live
                block[offsets[c]:offsets[c + 1]] = gram[j][mask]
                if f is not None:
                    loads[c] = load[j, live, 0]
    vals.append(block)
    if f is not None:
        for sub, load in zip(subs, loads):
            b[sub] += load


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


def _boundary_traces(s: HierarchicalSpace, bdry, n: int):
    """``(e, xs, ys, w, pos, v, vn)`` per boundary edge, in edge order:
    its rule, and the trace ``v`` and normal-derivative trace ``vn`` (the
    sign ``e.normal[e.axis]`` times the normal-axis derivative) of the
    active basis on ``e.plus``, ``(k, n)`` at the positions ``pos``."""
    for _, run, X, Y, W, _ in _requests(bdry, n):
        got = [None] * len(run)
        for items, index, tabs in s.basis_stacks(
                [e.plus for e in run], X, Y, [(0, 0), (1, 0), (0, 1)]):
            for j, q in enumerate(items):
                e = run[q]
                got[q] = (e, X[q], Y[q], W[q], index[j], tabs[(0, 0)][j],
                          e.normal[e.axis] * tabs[_edge_orders(e.axis)][j])
        yield from got


def _spline_traces(fn: SplineFunction, bdry, n: int):
    """``(e, xs, ys, w, v, vn)`` of a spline per boundary edge, in edge
    order: its rule, trace and normal-derivative trace on ``e.plus`` from
    ``eval_stacked``, the normal's sign applied after (it is exact)."""
    for _, run, X, Y, W, _ in _requests(bdry, n):
        V = fn.eval_stacked([e.plus for e in run], X, Y,
                            [(0, 0), (1, 0), (0, 1)])
        for q, e in enumerate(run):
            yield (e, X[q], Y[q], W[q], V[(0, 0)][q],
                   e.normal[e.axis] * V[_edge_orders(e.axis)][q])


def _assemble_boundary(s: HierarchicalSpace, params: FormParams,
                       imap: np.ndarray, rows: list, cols: list, vals: list):
    """Nitsche boundary terms and penalties, scattered edge by edge."""
    n = params.quad_n
    d = s.degree - 2
    _, bdry = edges(s.partition)
    # Legendre coefficients of Pi(lap B) for every function B on the cell
    proj = {}
    for _, run, X, Y, W, _ in _requests(sorted({e.plus for e in bdry}), n):
        for items, _, T in s.basis_stacks(run, X, Y, _LAP_ORDERS):
            cells = [run[q] for q in items]
            proj.update(zip(cells, _legendre_project(
                cells, d, X[items], Y[items], W[items],
                T[(2, 0)] + T[(0, 2)])[1]))
    del X, Y, W, T  # the last run's rules and tables, unused below
    # an overflowed penalty leaves nan entries, which solve_spd reports
    with np.errstate(invalid="ignore"):
        for e, xs, ys, w, pos, v, vn in _boundary_traces(s, bdry, n):
            pvals, pnvals = _legendre_traces(proj[e.plus], e, d, xs, ys)
            h = e.length
            block = (
                -((pvals * w) @ vn.T + (vn * w) @ pvals.T)
                + ((pnvals * w) @ v.T + (v * w) @ pnvals.T)
                + params.gamma1 * h ** -3 * (v * w) @ v.T
                + params.gamma2 * h ** -1 * (vn * w) @ vn.T
            )
            live, _ = _coo_index(imap, pos, rows, cols)
            vals.append(block[live[:, None] & live])


# ---------------------------------------------------------------------------
# norms and functionals
# ---------------------------------------------------------------------------

def _field_traces(fn: AnalyticField, bdry, n: int):
    """``(e, xs, ys, w, v, vn)`` of a field per boundary edge, in edge
    order, as :func:`_spline_traces`; without a gradient ``vn`` is None."""
    for _, run, X, Y, W, _ in _requests(bdry, n):
        for e, xs, ys, w in zip(run, X, Y, W):
            vn = (None if fn.grad is None else
                  e.normal[e.axis] * _on_points(fn.grad(xs, ys)[e.axis], xs))
            yield e, xs, ys, w, _on_points(fn.value(xs, ys), xs), vn


def _mesh_norms(fn, p: Partition, n: int,
                norms=((1.5, False), (0.5, True))) -> list[float]:
    """:func:`mesh_norm` for each ``(s, normal)`` of ``norms`` (by default
    the two of :func:`triple_norm`), from one pass over the boundary
    edges; each sum runs in edge order."""
    _, bdry = edges(p)
    if isinstance(fn, SplineFunction):
        traces = _spline_traces(fn, bdry, n)
    else:
        field = fn if isinstance(fn, AnalyticField) else AnalyticField(fn)
        traces = _field_traces(field, bdry, n)
    totals = [0.0] * len(norms)
    for e, _, _, w, *vals in traces:
        for k, (s, normal) in enumerate(norms):
            if vals[normal] is None:
                raise TypeError("a normal trace needs a gradient")
            totals[k] += (e.length ** (-2.0 * s)
                          * float(w @ vals[normal] ** 2))
    return [total ** 0.5 for total in totals]


def mesh_norm(fn, s: float, p: Partition, normal: bool = False,
              quad_n: int | None = None) -> float:
    """Boundary mesh norm: sqrt of sum over boundary edges of
    ``h^(-2s) * ||trace||^2``.

    ``fn`` may be a spline, an :class:`AnalyticField`, or a plain
    callable; with ``normal=True`` the normal-derivative trace is used.
    """
    degree = getattr(getattr(fn, "space", None), "degree", 3)
    n = quad_n if quad_n is not None else default_quad_n(degree)
    return _mesh_norms(fn, p, n, [(s, normal)])[0]


def energy_norm_sq(fn: SplineFunction) -> float:
    """Squared energy norm ``||lap fn||^2`` (exact quadrature)."""
    return _cell_sum(fn.space.partition.cells,
                     default_quad_n(fn.space.degree), _spline_field(
        fn, _LAP_ORDERS, lambda F, d: (d[(2, 0)] + d[(0, 2)]) ** 2))


def triple_norm(fn, p: Partition, params: FormParams) -> float:
    """Mesh-dependent norm: energy part plus gamma-weighted boundary norms
    on the rule of ``params`` (a spline's energy on its exact rule)."""
    r = getattr(getattr(fn, "space", None), "degree", 3)
    params = params.resolved(r)
    n = params.quad_n
    if isinstance(fn, SplineFunction):
        interior = energy_norm_sq(fn)
    elif isinstance(fn, AnalyticField):
        interior = _cell_sum(p.cells, n, lambda run, X, Y, F: F ** 2,
                             fn.laplacian)
    else:
        raise TypeError("triple_norm needs a SplineFunction or AnalyticField")
    b32, b12 = _mesh_norms(fn, p, n)
    return (interior + params.gamma1 * b32 ** 2
            + params.gamma2 * b12 ** 2) ** 0.5


def triple_norm_matrix(s: HierarchicalSpace, params: FormParams) -> csr_matrix:
    """Gram matrix of the mesh-dependent norm over the full active basis:
    ``|||v|||^2 = v^T T v``."""
    params = params.resolved(s.degree)
    n = params.quad_n
    rows, cols, vals = [], [], []
    imap = np.arange(s.dim)
    _assemble_volume(s, None, n, imap, rows, cols, vals, None)
    _, bdry = edges(s.partition)
    for e, _, _, w, pos, v, vn in _boundary_traces(s, bdry, n):
        h = e.length
        _coo_index(imap, pos, rows, cols)
        vals.append((params.gamma1 * h ** -3 * (v * w) @ v.T
                     + params.gamma2 * h ** -1 * (vn * w) @ vn.T).ravel())
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
    proj = _cell_projections(sorted({e.plus for e in bdry}), d, n,
                             lambda run, X, Y, F: F, lap_u)
    g = np.zeros(s.dim)
    for e, xs, ys, w, pos, v, vn in _boundary_traces(s, bdry, n):
        pi_v, pi_n = _legendre_traces(proj[e.plus], e, d, xs, ys)
        lap_v = np.asarray(lap_u(xs, ys), float)
        lap_n = e.normal[e.axis] * np.asarray(grad_lap_u(xs, ys)[e.axis], float)
        g[pos] += v @ (w * (pi_n - lap_n)) - vn @ (w * (pi_v - lap_v))
    return g


def inconsistency_apply(lap_u, grad_lap_u, v: SplineFunction,
                        quad_n: int | None = None) -> float:
    """Boundary defect functional ``<defect, v>`` of
    :func:`inconsistency_load` applied to a spline ``v`` in its space."""
    return float(inconsistency_load(lap_u, grad_lap_u, v.space, quad_n)
                 @ v.coefficients)


# ---------------------------------------------------------------------------
# error integrals
# ---------------------------------------------------------------------------

def energy_error_sq(lap_u, fn: SplineFunction,
                    quad_n: int | None = None) -> float:
    """``||lap u - lap fn||^2`` against an analytic Laplacian callback."""
    n = quad_n if quad_n is not None else default_quad_n(fn.space.degree) + 2
    return _cell_sum(fn.space.partition.cells, n, _spline_field(
        fn, _LAP_ORDERS, lambda L, d: (L - d[(2, 0)] - d[(0, 2)]) ** 2), lap_u)


def energy_diff_sq(fine: SplineFunction, coarse: SplineFunction) -> float:
    """``||lap(fine - coarse)||^2`` for splines on nested partitions."""

    def diff_sq(run, X, Y, F):
        # coarse on the owners of the run's cells; keep a + b - c - d
        df = fine.eval_stacked(run, X, Y, _LAP_ORDERS)
        dc = coarse.eval_stacked(coarse.space.partition.owners(run), X, Y,
                                 _LAP_ORDERS)
        return (df[(2, 0)] + df[(0, 2)] - dc[(2, 0)] - dc[(0, 2)]) ** 2

    return _cell_sum(fine.space.partition.cells,
                     default_quad_n(fine.space.degree), diff_sq)


def h2_seminorm_sq(fn: SplineFunction, cells=None) -> float:
    """``int (fxx^2 + 2 fxy^2 + fyy^2)`` over the given cells (default all)."""
    return _cell_sum(
        cells if cells is not None else fn.space.partition.cells,
        default_quad_n(fn.space.degree),
        _spline_field(fn, [(2, 0), (1, 1), (0, 2)],
                      lambda F, d: (d[(2, 0)] ** 2 + 2.0 * d[(1, 1)] ** 2
                                    + d[(0, 2)] ** 2)))
