"""Tensor Gauss-Legendre rules on cells and Gauss rules on edges.

All integrands appearing in assembly and estimation are piecewise
polynomial (spline-spline products) plus smooth data, so fixed-order
Gauss rules are exact for the polynomial part.  The reference rule on
[-1, 1] is cached per point count and mapped affinely onto the target
cell or edge.  :func:`_requests` builds the rules of every pass over
many cells or edges, and samples data on them through a
:class:`_SampleMemo`; :func:`_cell_sum` integrates on them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .mesh import Cell, Edge, EdgeArrays

# requests a pass builds the rules of at once: the one batch of every
# evaluation pass, which bounds what a pass holds
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


def _rules(requests, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Points ``(R, N, 2)`` and weights ``(R, N)`` of the Gauss rules of
    ``requests``, all cells (``n x n`` points, x-major) or all edges (a
    list or :class:`~afem.mesh.EdgeArrays`), in one broadcast.  Each
    entry takes the rounded operations of its own affine map: ``[i*s,
    j*s] + s*ref`` and ``(s*s)*w`` on a cell of side ``s``, a power of
    two; ``lo + L*x`` and ``L*w`` on an edge, with ``L = (lo + length) -
    lo`` as in :func:`gauss_points_1d`."""
    x, w = _reference_rule(n)
    if isinstance(requests, EdgeArrays) or isinstance(requests[0], Edge):
        if isinstance(requests, EdgeArrays):
            axis, level, fixed, lo = (requests.axis[:, None],
                                      requests.level[:, None],
                                      requests.fixed[:, None],
                                      requests.lo[:, None])
        else:
            axis, level, fixed, lo = np.array(list(map(
                itemgetter(1, 2, 3, 4), requests))).T[:, :, None]
            level = level.astype(int)
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
    """Gauss rule along an edge, exact for degree <= 2n-1 along the tangent."""
    points, weights = _rules([e], n)
    return QuadratureRule(points[0], weights[0])


def _on_points(vals, xs) -> np.ndarray:
    """Samples of a user callable as a new float array shaped like
    ``xs``: a scalar is spread over the points, a shape that cannot be
    raises."""
    out = np.empty(np.shape(xs))
    out[...] = vals
    return out


class _SampleMemo:
    """Samples of a callable ``f(xs, ys)`` on the Gauss rules of cells
    (or edges), memoised on the request and the rule size ``n``.

    The misses of a run are sampled in one call: ``f`` gets one 1-D pair
    ``xs``, ``ys`` of their points, request after request, strided as a
    rule's ``points[:, 0]`` and ``points[:, 1]``; each request keeps its
    row of the result as a read-only view.  Each cell's rule is the same
    in every pass on it and in every iteration the cell persists, so a
    cell's points are sampled once per run.  :meth:`next_iteration` drops
    every sample that was not requested since its previous call, so the
    memo holds about one partition's samples.  Calling the memo calls
    ``f``, unmemoised: points that are not a request's rule have no key.
    """

    def __init__(self, f):
        self._f = f
        self._now: dict[int, dict] = {}
        self._before: dict[int, dict] = {}

    def __call__(self, xs, ys):
        return self._f(xs, ys)

    def samples(self, run, n: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The ``(R, N)`` samples of the requests ``run`` at their rules
        of ``n`` points, ``(X[q], Y[q])``."""
        now = self._now.setdefault(n, {})
        got = list(map(now.get, run))
        before = self._before.get(n, {})
        miss = []
        for q, vals in enumerate(got):
            if vals is None:
                vals = before.pop(run[q], None)
                if vals is None:
                    miss.append(q)
                else:
                    now[run[q]] = got[q] = vals
        if miss:
            P = np.stack([X[miss], Y[miss]], axis=-1).reshape(-1, 2)
            vals = _on_points(self._f(P[:, 0], P[:, 1]), P[:, 0])
            vals.flags.writeable = False
            for q, row in zip(miss, vals.reshape(len(miss), -1)):
                now[run[q]] = got[q] = row
        return np.array(got)

    def next_iteration(self) -> None:
        self._before, self._now = self._now, {}


def _requests(requests, n: int, data=None):
    """The rules of one pass over ``requests``, all cells or all edges
    (a list or :class:`~afem.mesh.EdgeArrays`), in runs of
    ``_BLOCK_REQUESTS``, which bounds what a pass holds.

    Per run (one :func:`_rules` call) this yields its offset, the run,
    the points ``X`` and ``Y`` as ``(R, N)`` views (row ``X[q]`` strided
    as a rule's ``points[:, 0]``, which user callables see), and the
    weights and ``data`` samples (or ``None``) as ``(R, N)`` arrays.
    ``data`` is sampled through its :class:`_SampleMemo`, keyed on the
    cells or :class:`~afem.mesh.Edge` values; a plain callable goes
    through one for this pass.
    """
    if data is not None and not isinstance(data, _SampleMemo):
        data = _SampleMemo(data)
    for lo in range(0, len(requests), _BLOCK_REQUESTS):
        run = requests[lo:lo + _BLOCK_REQUESTS]
        P, W = _rules(run, n)
        X, Y = P[:, :, 0], P[:, :, 1]
        F = None if data is None else data.samples(
            run.edges() if isinstance(run, EdgeArrays) else run, n, X, Y)
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
