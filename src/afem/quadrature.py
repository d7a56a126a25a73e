"""Tensor Gauss-Legendre rules on cells and Gauss rules on edges.

All integrands appearing in assembly and estimation are piecewise
polynomial (spline-spline products) plus smooth data, so fixed-order
Gauss rules are exact for the polynomial part.  The reference rule on
[-1, 1] is cached per point count and mapped affinely onto the target
cell or edge.  :func:`_requests` builds the rules of every pass over
many cells or edges and samples data on them, per pass: no sample
outlives the run of requests it was taken on.  :func:`_cell_sum`
integrates on them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .mesh import Cell, Edge, EdgeArrays

# rule points a pass builds at once (a cell counts n*n, an edge n): the
# one batch of every evaluation pass, which bounds what a pass holds
_BLOCK_POINTS = 1 << 15


class QuadratureRule(NamedTuple):
    """Points and positive weights; weights sum to the domain measure."""

    points: np.ndarray   # (n, 2) coordinates in the unit square
    weights: np.ndarray  # (n,) positive weights


@lru_cache(maxsize=None)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    if n < 1:
        raise ValueError(f"need at least one quadrature point, got n={n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_points_1d(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on the interval [lo, hi]."""
    x, w = _reference_rule(n)
    length = hi - lo
    return lo + length * x, length * w


def _on_edges(requests) -> bool:
    """Whether ``requests`` are edges (an :class:`EdgeArrays`)."""
    return isinstance(requests, EdgeArrays)


def _rules(requests, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Points ``(R, N, 2)`` and weights ``(R, N)`` of the Gauss rules of
    ``requests``, all cells (``n x n`` points, x-major) or all edges (an
    :class:`~afem.mesh.EdgeArrays`), in one broadcast.  Each entry takes
    the rounded operations of its own affine map: ``[i*s, j*s] + s*ref``
    and ``(s*s)*w`` on a cell of side ``s``, a power of two; ``lo + L*x``
    and ``L*w`` on an edge, with ``L = (lo + length) - lo`` as in
    :func:`gauss_points_1d`."""
    x, w = _reference_rule(n)
    if _on_edges(requests):
        axis, level, fixed, lo = (a[:, None] for a in (
            requests.axis, requests.level, requests.fixed, requests.lo))
        length = (lo + np.ldexp(1.0, -level)) - lo
        ts = lo + length * x
        # axis 0: vertical edge, tangent along y; axis 1: horizontal, along x
        pair = np.stack([np.broadcast_to(fixed, ts.shape), ts], axis=-1)
        return np.where(axis[:, :, None] == 0, pair, pair[..., ::-1]), \
            length * w
    level, i, j = np.fromiter(chain.from_iterable(requests), dtype=np.int64,
                              count=3 * len(requests)).reshape(-1, 3).T
    s = np.ldexp(1.0, -level)[:, None, None]
    ref = np.column_stack([np.repeat(x, n), np.tile(x, n)])
    return (np.stack([i, j], axis=-1)[:, None, :] * s + s * ref,
            (s * s)[:, :, 0] * np.outer(w, w).ravel())


def gauss_cell(c: Cell, n: int) -> QuadratureRule:
    """Tensor Gauss rule on a cell, exact for degree <= 2n-1 per direction:
    the one-request case of :func:`_rules`."""
    points, weights = _rules([c], n)
    return QuadratureRule(points[0], weights[0])


def gauss_edge(e: Edge, n: int) -> QuadratureRule:
    """Gauss rule along an edge, exact for degree <= 2n-1 along the
    tangent: the interval rule of :func:`gauss_points_1d` beside a column
    of the fixed coordinate, the same bits as an edge of :func:`_rules`."""
    ts, weights = gauss_points_1d(e.lo, e.lo + e.length, n)
    fixed = np.full_like(ts, e.fixed)
    # axis 0: vertical edge, tangent along y; axis 1: horizontal, along x
    return QuadratureRule(np.column_stack([fixed, ts] if e.axis == 0
                                          else [ts, fixed]), weights)


def _on_points(vals, xs) -> np.ndarray:
    """Samples of a user callable as a new float array shaped like
    ``xs``: a scalar is spread over the points; a shape that cannot be,
    or complex samples, raise."""
    if np.iscomplexobj(vals):
        raise ValueError("data returned complex samples; a problem's data "
                         "must be real")
    out = np.empty(np.shape(xs))
    out[...] = vals
    return out


def _requests(requests, n: int, data=None):
    """The rules of one pass over ``requests``, all cells or all edges
    (a list or :class:`~afem.mesh.EdgeArrays`), in runs of consecutive
    requests of at most ``_BLOCK_POINTS`` rule points together (a cell
    counts ``n*n``, an edge ``n``; a run holds at least one request),
    which bounds what a pass holds.

    Per run (one :func:`_rules` call) this yields its offset, the run,
    the points ``X`` and ``Y`` as ``(R, N)`` views (row ``X[q]`` strided
    as a rule's ``points[:, 0]``, which user callables see), and the
    weights and ``data`` samples (or ``None``) as ``(R, N)`` arrays.
    ``data`` is sampled per run and pass, and kept by nothing: one call
    on a copy of the run's points as one 1-D pair, request after
    request, strided as a rule's ``points[:, 0]`` and ``points[:, 1]``.
    """
    if not len(requests):
        return
    step = max(1, _BLOCK_POINTS // (n if _on_edges(requests) else n * n))
    for lo in range(0, len(requests), step):
        run = requests[lo:lo + step]
        P, W = _rules(run, n)
        X, Y = P[:, :, 0], P[:, :, 1]
        F = None
        if data is not None:  # on a copy: the callable cannot move the rule
            flat = P.reshape(-1, 2).copy()
            F = _on_points(data(flat[:, 0], flat[:, 1]),
                           flat[:, 0]).reshape(X.shape)
        yield lo, run, X, Y, W, F


def _row_dots(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``W[q] @ V[q]`` for each row: one BLAS dot per item, as ``w @ v``
    on one row (a row-wise sum or ``einsum`` would round differently)."""
    return (W[:, None, :] @ V[:, :, None])[:, 0, 0]


def _cell_sum(cells, n: int, integrand, data=None) -> float:
    """The sum of ``w @ integrand(run, X, Y, F)`` over ``cells`` on their
    Gauss rules, in the order of ``cells`` as a per-cell loop adds them;
    the integrand maps a run of :func:`_requests` to ``(R, N)``."""
    total = 0.0
    for _, run, X, Y, W, F in _requests(list(cells), n, data):
        for v in _row_dots(W, integrand(run, X, Y, F)):
            total += float(v)
    return total
