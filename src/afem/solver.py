"""The sparse symmetric positive-definite solve of every iteration.

A direct factorization through SuperLU in symmetric mode with diagonal
pivoting, which doubles as an SPD check: a non-positive pivot aborts
with its index, the usual symptom of too small Nitsche stabilization.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix, issparse
from scipy.sparse.linalg import splu

__all__ = ["RESIDUAL_TOL", "NotSPDError", "solve"]

RESIDUAL_TOL = 1e-8   # ||Ax-b|| <= RESIDUAL_TOL ||b|| on every solve


def _jacobi_scaled(mat: csc_matrix, inv: np.ndarray) -> csc_matrix:
    """``S @ mat @ S`` with ``S = diag(inv)``, entry by entry with the
    sparse product's two roundings, ``(m * inv[row]) * inv[col]``, built
    on copies of ``mat``'s index arrays: dropping the entries that round
    to zero, as the product does, must not touch ``mat``."""
    rows = mat.indices
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    scaled = csc_matrix((mat.data * inv[rows] * inv[cols], rows.copy(),
                         mat.indptr.copy()), shape=mat.shape)
    scaled.eliminate_zeros()
    return scaled


class NotSPDError(RuntimeError):
    """Raised when the factorization hits a non-positive pivot."""


def _not_spd(pivot: float, index: int) -> NotSPDError:
    return NotSPDError(f"non-positive pivot {pivot:.3e} at index {index}; "
                       "matrix is not SPD (for Nitsche systems, increase "
                       "gamma)")


def solve(A, b) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive-definite ``A``.

    ``A`` may be a scipy sparse or dense matrix or a
    :class:`~afem.assembly.SystemMatrix`, ``b`` a vector or a
    :class:`~afem.assembly.LoadVector`; the relative residual contract
    ``||Ax-b|| <= RESIDUAL_TOL ||b||`` is verified before returning.
    """
    mat = getattr(A, "matrix", A)
    b = np.asarray(getattr(b, "values", b), dtype=float)
    if not issparse(mat):
        mat = csc_matrix(mat)
    mat = mat.tocsc()
    if mat.shape[0] != mat.shape[1] or mat.shape[0] != len(b):
        raise ValueError("incompatible system dimensions")
    if not np.all(np.isfinite(mat.data)):
        raise ValueError("matrix has non-finite entries (nan/inf); for "
                         "Nitsche systems, gamma1 * h^-3 or gamma2 * h^-1 "
                         "overflows")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries (nan/inf); "
                         "check the problem data")

    d = mat.diagonal()
    if np.any(d <= 0.0):
        idx = int(np.argmin(d))
        raise _not_spd(d[idx], idx)
    # symmetric Jacobi scaling equilibrates the levels of locally refined
    # fourth-order systems (raw kappa ~ h^-4) before the factorization;
    # refinement passes then polish the residual
    sq = np.sqrt(d)
    lu = splu(_jacobi_scaled(mat, 1.0 / sq), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    diag = lu.U.diagonal()
    bad = np.flatnonzero(diag <= 0.0)
    if bad.size:  # U's k-th pivot belongs to the column with perm_c == k
        k = bad[0]
        raise _not_spd(diag[k], int(np.flatnonzero(lu.perm_c == k)[0]))
    x = (lu.solve(b / sq)) / sq
    nb = np.linalg.norm(b)
    for _ in range(4):
        resid = b - mat @ x
        if np.linalg.norm(resid) <= 0.01 * RESIDUAL_TOL * nb:
            break
        x = x + (lu.solve(resid / sq)) / sq

    if not np.all(np.isfinite(x)):
        raise ValueError("solution has non-finite entries (nan/inf)")
    if nb > 0.0:
        rel = np.linalg.norm(mat @ x - b) / nb
        if rel > RESIDUAL_TOL:
            raise RuntimeError(f"solver residual {rel:.3e} exceeds the "
                               f"contract {RESIDUAL_TOL:.3e}")
    return x
