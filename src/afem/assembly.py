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
from itertools import chain
from numbers import Integral
from typing import Callable

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.sparse import coo_matrix, csr_matrix

from .mesh import Cell, EdgeArrays, Partition, edge_arrays
from .quadrature import _cell_sum, _on_points, _requests, _row_dots
from .solver import _check_number
from .splines import (HierarchicalSpace, SplineFunction, _Entries, _gram,
                      conforming_indices)

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

# derivative orders whose sum is the Laplacian
_LAP_ORDERS = [(2, 0), (0, 2)]


def _laplacian(stack) -> np.ndarray:
    """The Laplacian tables of a group of
    :meth:`HierarchicalSpace.basis_stacks`: the ``(2, 0)`` stack, then
    the ``(0, 2)`` one added in place."""
    lap = stack((2, 0))
    lap += stack((0, 2))
    return lap


def _local_coords(cells, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Local coordinates ``(xi, zeta)``, ``(B, N)`` each, of the paired
    points ``(X[q], Y[q])`` on ``cells[q]``, mapped as ``2 (x - x0) / (x1
    - x0) - 1`` with the cell's bounds."""
    level, i, j = np.fromiter(chain.from_iterable(cells), dtype=np.int64,
                              count=3 * len(cells)).reshape(-1, 3).T
    side = np.ldexp(1.0, -level)[:, None]

    def local(P, k):
        lo = k[:, None] * side
        return 2.0 * (np.asarray(P, float) - lo) / ((k + 1)[:, None] * side
                                                    - lo) - 1.0

    return local(X, i), local(Y, j)


def _legendre_tables(local: np.ndarray, d: int, *orders) -> list:
    """1-D Legendre tables ``(B, d+1, N)`` at the rows of local
    coordinates ``local``, one per derivative order in ``orders``, each
    one ``legval`` over all the rows; Clenshaw's steps are elementwise,
    so every entry is the one-row evaluation's bit for bit."""
    eye = np.eye(d + 1)
    return [npleg.legval(local, npleg.legder(eye, order, axis=0)).transpose(
        1, 0, 2) for order in orders]


def _mode_product(cells, Px: np.ndarray, Py: np.ndarray,
                  order: int) -> np.ndarray:
    """Tensor modes ``(B, (d+1)^2, N)`` from the 1-D tables of each axis:
    per item their outer product, times ``(2/h)**order``, an exact power
    of two for a derivative of total ``order``."""
    B, _, N = Px.shape
    level = np.fromiter((c[0] for c in cells), dtype=np.int64, count=B)
    return ((Px[:, :, None, :] * Py[:, None, :, :]).reshape(B, -1, N)
            * np.ldexp(1.0, (level + 1) * order)[:, None, None])


def _legendre_modes(cells, d: int, X, Y, ax: int = 0,
                    ay: int = 0) -> np.ndarray:
    """Tensor Legendre mode derivatives ``(B, (d+1)^2, N)`` of ``cells``
    at their paired points ``(X[q], Y[q])``: per item the outer product
    of the two 1-D tables at the :func:`_local_coords`, times
    ``(2/h)**(ax+ay)``."""
    xi, zeta = _local_coords(cells, X, Y)
    (Px,), (Py,) = _legendre_tables(xi, d, ax), _legendre_tables(zeta, d, ay)
    return _mode_product(cells, Px, Py, ax + ay)


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
        (xi,), (zeta,) = _local_coords([cell], [xs], [ys])
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
    modes = _legendre_modes(cells, d, X, Y)
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


def _legendre_traces(coef: np.ndarray, es: EdgeArrays, d: int, X, Y):
    """Traces and normal-derivative traces ``(Pi v, d_n Pi v)`` on the
    boundary edges ``es``, at their points ``(X[q], Y[q])``, of the
    cellwise Legendre expansions ``coef`` on their cells, ``(B, m) ->
    (B, N)`` or ``(B, k, m) -> (B, k, N)``: one batched product, per item
    the BLAS call of the one-edge product.

    The normal is axis-aligned, so the normal derivative is the sign
    ``es.sign`` times the normal-axis derivative; the dropped tangential
    term of ``nx*dx + ny*dy`` is an exact zero.  The local coordinates
    are mapped once, each axis's value table is evaluated once, and its
    derivative table only on the edges whose normal lies along it, the
    other rows taken from the value table.
    """
    cells = es.cells(es.plus)
    xi, zeta = _local_coords(cells, X, Y)
    normal = es.axis == 0  # the normal's axis is x, then y
    (Px,), (Py,) = _legendre_tables(xi, d, 0), _legendre_tables(zeta, d, 0)
    Nx, Ny = Px.copy(), Py.copy()
    Nx[normal], = _legendre_tables(xi[normal], d, 1)
    Ny[~normal], = _legendre_tables(zeta[~normal], d, 1)
    modes = _mode_product(cells, Px, Py, 0)
    modes_n = _mode_product(cells, Nx, Ny, 1)
    stack = coef if coef.ndim == 3 else coef[:, None, :]
    pv, pn = stack @ modes, es.sign[:, None, None] * (stack @ modes_n)
    return (pv, pn) if coef.ndim == 3 else (pv[:, 0], pn[:, 0])


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
    imap[list(keep)] = np.arange(len(keep))
    dim = len(keep)

    cells = np.arange(len(s.partition))
    if params.mode == "nitsche":
        _, bdry = edge_arrays(s.partition)
        cells = np.concatenate([cells, bdry.plus])
    out = _Entries(s, imap, cells)
    b = np.zeros(dim)
    _assemble_volume(s, f, n, out, b)
    if params.mode == "nitsche":
        _assemble_boundary(s, params, out, bdry)

    A = _symmetric_csr(*out.entries(), dim)
    return SystemMatrix(A, tuple(keep)), LoadVector(b, tuple(keep))


def _assemble_volume(s: HierarchicalSpace, f, n: int, out: _Entries,
                     b: np.ndarray | None):
    """Volume pass ``(lap u, lap v)`` into ``out``'s first requests and,
    unless ``f`` is ``None``, the load into ``b``, per run of cells and
    group of :meth:`HierarchicalSpace.basis_stacks`.

    Entries keep the per-cell COO layout and order: the Gram entries
    are in cell order, and the load is added with ``np.add.at`` in cell
    order, as a per-cell loop adds it.  The Laplacian stack is dropped
    before the value stack of the load is formed.
    """
    loads = None if f is None else _Entries(
        s, out.imap, np.arange(len(s.partition)), pairs=False)
    for lo, run, X, Y, W, F in _requests(s.partition.cells, n, f):
        for items, index, stack in s.basis_stacks(run, X, Y,
                                                  [(0, 0), (2, 0), (0, 2)]):
            out.put(lo + items, index, _gram(_laplacian(stack), W[items]))
            if f is not None:
                loads.put(lo + items, index, (stack((0, 0)) @ (
                    W[items] * F[items])[:, :, None])[:, :, 0])
    if f is not None:
        np.add.at(b, *loads.entries())


def _symmetric_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   dim: int) -> csr_matrix:
    """Sum COO triplets into CSR and mirror the upper triangle, so the
    matrix is exactly symmetric whatever the summation order.

    Summed rows come out sorted, so a row of the mirror is its strictly
    lower entries, then its upper ones.  The strictly lower entries of
    row ``i`` are the upper triangle's column ``i`` in row order, which a
    stable counting pass (``tocsr`` of the swapped triplets, none
    duplicate) places.  The mirror only moves data; like the sparse sum
    ``triu(A) + triu(A, 1).T`` it drops exact zeros."""
    A = coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    r = np.repeat(np.arange(dim, dtype=A.indptr.dtype), np.diff(A.indptr))
    keep = (A.indices >= r) & (A.data != 0.0)
    r, c, v = r[keep], A.indices[keep], A.data[keep]
    low = c > r
    low = coo_matrix((v[low], (c[low], r[low])), shape=(dim, dim)).tocsr()
    counts = np.stack([np.diff(low.indptr), np.bincount(r, minlength=dim)])
    upper = np.repeat(np.tile([False, True], dim), counts.T.ravel())
    data, indices = np.empty(len(upper)), np.empty(len(upper), r.dtype)
    data[upper], data[~upper], indices[upper], indices[~upper] = (
        v, low.data, c, low.indices)
    indptr = np.zeros(dim + 1, dtype=r.dtype)
    np.cumsum(counts.sum(axis=0), out=indptr[1:])
    return csr_matrix((data, indices, indptr), shape=(dim, dim))


def _normal_traces(es: EdgeArrays, d10: np.ndarray,
                   d01: np.ndarray) -> np.ndarray:
    """Normal-derivative traces on the edges ``es`` from the stacks of
    both first derivatives: the sign ``es.sign`` times the normal-axis
    one (the sign is exact)."""
    shape = (-1,) + (1,) * (d10.ndim - 1)
    return es.sign.reshape(shape) * np.where(
        es.axis.reshape(shape) == 0, d10, d01)


def _boundary_traces(s: HierarchicalSpace, bdry: EdgeArrays, n: int,
                     data=None):
    """Per run of the boundary edges ``bdry``: its offset, the run, its
    points ``X``, ``Y`` (strided rows, as user callables see them), the
    ``data`` samples (or ``None``), and the groups of
    :meth:`HierarchicalSpace.basis_stacks` on the edges' cells.  Per group
    ``(items, es, X, Y, W, index, V, VN)``: the request numbers in the run
    and the edges, their rules, the positions ``(B, k)``, and the trace
    ``V`` and normal-derivative trace ``VN`` (with the normal's sign) of
    the active basis, ``(B, k, N)``."""
    for lo, run, X, Y, W, F in _requests(bdry, n, data):
        groups = []
        for items, index, stack in s.basis_stacks(
                run.cells(run.plus), X, Y, [(0, 0), (1, 0), (0, 1)]):
            es = run[items]
            groups.append((items, es, X[items], Y[items], W[items], index,
                           stack((0, 0)), _normal_traces(es, stack((1, 0)),
                                                         stack((0, 1)))))
        yield lo, run, X, Y, F, groups


def _spline_traces(fn: SplineFunction, bdry: EdgeArrays, n: int):
    """``(es, X, Y, W, V, VN)`` of a spline per run of the boundary
    edges ``bdry``: the edges, their rules, and the trace and
    normal-derivative trace ``(R, N)`` on each edge's cell from
    ``eval_stacked``, the normal's sign applied after (it is exact)."""
    for _, run, X, Y, W, _ in _requests(bdry, n):
        V = fn.eval_stacked(run.cells(run.plus), X, Y,
                            [(0, 0), (1, 0), (0, 1)])
        yield (run, X, Y, W, V[(0, 0)],
               _normal_traces(run, V[(1, 0)], V[(0, 1)]))


def _penalties(es: EdgeArrays, gamma1: float,
               gamma2: float) -> tuple[np.ndarray, np.ndarray]:
    """``gamma1 * h**-3`` and ``gamma2 * h**-1`` of each edge of ``es``, as
    the scalar products: ``h**-k`` is an exact power of two, and an
    overflow gives ``inf`` without a warning."""
    with np.errstate(over="ignore"):
        return (gamma1 * np.ldexp(1.0, 3 * es.level),
                gamma2 * np.ldexp(1.0, es.level))


def _assemble_boundary(s: HierarchicalSpace, params: FormParams,
                       out: _Entries, bdry: EdgeArrays, nitsche: bool = True):
    """Nitsche boundary terms (unless ``nitsche`` is false) and penalties
    on the boundary edges ``bdry``, per group of boundary edges as ``(B,
    k, k)`` blocks, into ``out``'s requests after the cells', in edge
    order.  Without the Nitsche terms a block is ``0.0`` plus the
    penalties: that changes only the sign of zero entries, which the
    matrix drops."""
    n = params.quad_n
    d = s.degree - 2
    first = len(s.partition)
    # Legendre coefficients of Pi(lap B) for every function B on the cell
    proj, owners = {}, bdry.cells(np.unique(bdry.plus)) if nitsche else []
    for _, run, X, Y, W, _ in _requests(owners, n):
        for items, _, stack in s.basis_stacks(run, X, Y, _LAP_ORDERS):
            cells = [run[q] for q in items]
            proj.update(zip(cells, _legendre_project(
                cells, d, X[items], Y[items], W[items],
                _laplacian(stack))[1]))
    # an overflowed penalty leaves nan entries, which solve_spd reports
    with np.errstate(invalid="ignore"):
        for lo, _, _, _, _, groups in _boundary_traces(s, bdry, n):
            for items, es, X, Y, W, index, V, VN in groups:
                g1, g2 = (g[:, None, None] for g in _penalties(
                    es, params.gamma1, params.gamma2))
                W, block = W[:, None, :], 0.0
                if nitsche:
                    PV, PN = _legendre_traces(np.array(
                        [proj[c] for c in es.cells(es.plus)]), es, d, X, Y)
                    block = (-((PV * W) @ VN.transpose(0, 2, 1)
                               + (VN * W) @ PV.transpose(0, 2, 1))
                             + ((PN * W) @ V.transpose(0, 2, 1)
                                + (V * W) @ PN.transpose(0, 2, 1)))
                block = (block + (g1 * (V * W)) @ V.transpose(0, 2, 1)
                         + (g2 * (VN * W)) @ VN.transpose(0, 2, 1))
                out.put(first + lo + items, index, block)


# ---------------------------------------------------------------------------
# norms and functionals
# ---------------------------------------------------------------------------

def _normal_samples(grad, es: EdgeArrays, X, Y) -> np.ndarray:
    """Normal derivatives ``(R, N)`` on the edges ``es`` at their points
    ``(X[q], Y[q])`` from one call of a gradient ``grad(xs, ys) -> (gx,
    gy)``, on one 1-D pair laid out as a run's misses of a
    :class:`~afem.quadrature._SampleMemo`."""
    P = np.stack([X, Y], axis=-1).reshape(-1, 2)
    return _normal_traces(es, *(_on_points(g, P[:, 0]).reshape(X.shape)
                                for g in grad(P[:, 0], P[:, 1])))


def _field_traces(fn: AnalyticField, bdry: EdgeArrays, n: int):
    """``(es, X, Y, W, V, VN)`` of a field per run of the boundary edges,
    as :func:`_spline_traces`, from samples on each edge's rule; without
    a gradient ``VN`` is None."""
    for _, run, X, Y, W, V in _requests(bdry, n, fn.value):
        VN = None if fn.grad is None else _normal_samples(fn.grad, run, X, Y)
        yield run, X, Y, W, V, VN


def _mesh_norms(fn, p: Partition, n: int,
                norms=((1.5, False), (0.5, True))) -> list[float]:
    """:func:`mesh_norm` for each ``(s, normal)`` of ``norms`` (by default
    the two of :func:`triple_norm`), from one pass over the boundary
    edges: per edge ``h**(-2s)`` times the :func:`_row_dots` of the
    weights and the squared trace, summed in edge order."""
    _, bdry = edge_arrays(p)
    if isinstance(fn, SplineFunction):
        traces = _spline_traces(fn, bdry, n)
    else:
        field = fn if isinstance(fn, AnalyticField) else AnalyticField(fn)
        traces = _field_traces(field, bdry, n)
    totals = [0.0] * len(norms)
    for es, _, _, W, *vals in traces:
        levels = es.level.tolist()
        for k, (s, normal) in enumerate(norms):
            if vals[normal] is None:
                raise TypeError("a normal trace needs a gradient")
            scale = {lev: (2.0 ** -lev) ** (-2.0 * s) for lev in set(levels)}
            for lev, v in zip(levels,
                              _row_dots(W, vals[normal] ** 2).tolist()):
                totals[k] += scale[lev] * v
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
    _, bdry = edge_arrays(s.partition)
    out = _Entries(s, np.arange(s.dim), np.concatenate(
        [np.arange(len(s.partition)), bdry.plus]))
    _assemble_volume(s, None, params.quad_n, out, None)
    _assemble_boundary(s, params, out, bdry, nitsche=False)
    return _symmetric_csr(*out.entries(), s.dim)


def inconsistency_load(lap_u, grad_lap_u, s: HierarchicalSpace,
                       quad_n: int | None = None) -> np.ndarray:
    """Load vector ``g`` of the boundary defect functional of the
    projected-Laplacian form, ``<defect, v> = g . v`` for v in ``s``.

    ``lap_u(x, y)`` and ``grad_lap_u(x, y) -> (gx, gy)`` are analytic
    callbacks for the exact solution; the defect is
    ``int_G ((Pi lap u)_n - (lap u)_n) v - int_G (Pi lap u - lap u) v_n``
    with the projection taken cellwise on boundary cells from samples.
    Edges add to ``g`` in edge order.
    """
    n = quad_n if quad_n is not None else default_quad_n(s.degree)
    d = s.degree - 2
    _, bdry = edge_arrays(s.partition)
    proj = _cell_projections(bdry.cells(np.unique(bdry.plus)), d, n,
                             lambda run, X, Y, F: F, lap_u)
    g = np.zeros(s.dim)
    loads = _Entries(s, np.arange(s.dim), bdry.plus, pairs=False)
    for lo, run, X, Y, F, groups in _boundary_traces(s, bdry, n, lap_u):
        lap_n = _normal_samples(grad_lap_u, run, X, Y)
        for items, es, X, Y, W, index, V, VN in groups:
            pi_v, pi_n = _legendre_traces(
                np.array([proj[c] for c in es.cells(es.plus)]), es, d, X, Y)
            loads.put(lo + items, index, (
                V @ (W * (pi_n - lap_n[items]))[:, :, None]
                - VN @ (W * (pi_v - F[items]))[:, :, None])[:, :, 0])
    np.add.at(g, *loads.entries())
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
