"""Tensor Gauss-Legendre rules on cells and Gauss rules on edges.

All integrands appearing in assembly and estimation are piecewise
polynomial (spline-spline products) plus smooth data, so fixed-order
Gauss rules are exact for the polynomial part.  The reference rule on
[-1, 1] is cached per point count and mapped affinely onto the target
cell or edge.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .mesh import Cell, Edge


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
