"""Tensor Gauss-Legendre rules on cells and Gauss rules on edges.

All integrands appearing in assembly and estimation are piecewise
polynomial (spline-spline products) plus smooth data, so fixed-order
Gauss rules are exact for the polynomial part.  The reference rule on
[-1, 1] is cached per point count and mapped affinely onto the target
cell or edge.  :func:`_requests` builds the rules of every pass over
many cells or edges, and :func:`_cell_integrals` integrates on them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .mesh import Cell, Edge

# requests a pass builds the rules of at once: four stacked chunks of
# ``splines._STACK_ITEMS``, which bounds what a pass holds
_BLOCK_REQUESTS = 128


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


@lru_cache(maxsize=None)
def _reference_cell_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rule on [0, 1]^2, points in x-major order."""
    x, w = _reference_rule(n)
    return (np.column_stack([np.repeat(x, n), np.tile(x, n)]),
            np.outer(w, w).ravel())


def gauss_cell(c: Cell, n: int) -> QuadratureRule:
    """Tensor Gauss rule on a cell, exact for degree <= 2n-1 per direction.

    The reference rule scaled by the side, a power of two, so points and
    weights are the correctly rounded images of the exact affine map.
    """
    points, weights = _reference_cell_rule(n)
    s = c.side
    return QuadratureRule(np.array([c.i * s, c.j * s]) + s * points,
                          s * s * weights)


def gauss_edge(e: Edge, n: int) -> QuadratureRule:
    """Gauss rule along an edge, exact for degree <= 2n-1 along the tangent."""
    ts, wt = gauss_points_1d(e.lo, e.lo + e.length, n)
    points = np.empty((len(ts), 2))
    # axis 0: vertical edge, tangent along y; axis 1: horizontal, along x
    points[:, e.axis] = e.fixed
    points[:, 1 - e.axis] = ts
    return QuadratureRule(points, wt)


def _on_points(vals, xs) -> np.ndarray:
    """Samples of a user callable as a float array shaped like ``xs``: a
    scalar is spread over the points, a shape that cannot be raises."""
    return np.array(np.broadcast_to(vals, np.shape(xs)), dtype=float)


def _requests(requests, n: int, data=None):
    """The rules of one pass over ``requests``, all cells or all edges,
    in runs of ``_BLOCK_REQUESTS``, which bounds what a pass holds.

    Per run this yields its offset, the run, the rules (``n x n`` Gauss
    rules of cells, :func:`gauss_edge` rules of edges), the points ``X``
    and ``Y`` as lists, and the weights and ``data`` samples (or
    ``None``) as ``(R, N)`` arrays; ``data`` is called once per request.
    """
    for lo in range(0, len(requests), _BLOCK_REQUESTS):
        run = requests[lo:lo + _BLOCK_REQUESTS]
        rule = gauss_edge if isinstance(run[0], Edge) else gauss_cell
        rules = [rule(q, n) for q in run]
        X = [r.points[:, 0] for r in rules]
        Y = [r.points[:, 1] for r in rules]
        W = np.array([r.weights for r in rules])
        F = None
        if data is not None:
            F = np.empty(W.shape)
            for j, (x, y) in enumerate(zip(X, Y)):
                F[j] = data(x, y)
        yield lo, run, rules, X, Y, W, F


def _row_dots(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``W[q] @ V[q]`` for each row: one BLAS dot per item, as ``w @ v``
    on one row (a row-wise sum or ``einsum`` would round differently)."""
    return (W[:, None, :] @ V[:, :, None])[:, 0, 0]


def _cell_integrals(cells, n: int, integrand, data=None):
    """``w @ integrand(run, X, Y, F)`` of each of ``cells`` on its Gauss
    rule, as floats in the order of ``cells``; the integrand maps a run
    of :func:`_requests` to ``(R, N)``."""
    for _, run, _, X, Y, W, F in _requests(list(cells), n, data):
        for v in _row_dots(W, integrand(run, X, Y, F)):
            yield float(v)


def _cell_sum(cells, n: int, integrand, data=None) -> float:
    """The sum of :func:`_cell_integrals`, in the order of ``cells`` as a
    per-cell loop adds them."""
    total = 0.0
    for v in _cell_integrals(cells, n, integrand, data):
        total += v
    return total
