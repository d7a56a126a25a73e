"""Sparse symmetric positive-definite linear solvers.

The default is a direct factorization through SuperLU in symmetric
mode with diagonal pivoting, which doubles as an SPD check: a
non-positive pivot aborts with its index, the usual symptom of too
small Nitsche stabilization.  Conjugate gradients with Jacobi scaling
is available for larger runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, diags, issparse
from scipy.sparse.linalg import cg, splu

__all__ = ["SolveOptions", "NotSPDError", "solve", "solve_spd"]


@dataclass(frozen=True)
class SolveOptions:
    method: str = "direct"        # "direct" | "cg"
    tol: float = 1e-8             # relative residual target
    max_iter: int = 10000

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.method not in ("direct", "cg"):
            raise ValueError(f"unknown method {self.method!r}")


class NotSPDError(RuntimeError):
    """Raised when the factorization hits a non-positive pivot."""


def solve(A, b, opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive-definite ``A``.

    ``A`` may be a scipy sparse matrix or a :class:`~afem.assembly.SystemMatrix`;
    the relative residual contract ``||Ax-b|| <= max(tol, 1e-12)||b||``
    is verified before returning.
    """
    mat = getattr(A, "matrix", A)
    vec = getattr(b, "values", b)
    return solve_spd(mat, np.asarray(vec, dtype=float), opts)


def solve_spd(mat, b: np.ndarray, opts: SolveOptions) -> np.ndarray:
    if not issparse(mat):
        mat = csc_matrix(mat)
    mat = mat.tocsc()
    if mat.shape[0] != mat.shape[1] or mat.shape[0] != len(b):
        raise ValueError("incompatible system dimensions")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has non-finite entries (nan/inf); "
                         "check the problem data")

    d = mat.diagonal()
    if np.any(d <= 0.0):
        idx = int(np.argmin(d))
        what = "pivot" if opts.method == "direct" else "diagonal"
        raise NotSPDError(
            f"non-positive {what} {d[idx]:.3e} at index {idx}; "
            "matrix is not SPD (for Nitsche systems, increase gamma)")
    if opts.method == "direct":
        # symmetric Jacobi scaling equilibrates the levels of locally
        # refined fourth-order systems (raw kappa ~ h^-4) before the
        # factorization; refinement passes then polish the residual
        sq = np.sqrt(d)
        S = diags(1.0 / sq)
        scaled = (S @ mat @ S).tocsc()
        lu = splu(scaled, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        diag = lu.U.diagonal()
        bad = np.where(diag <= 0.0)[0]
        if bad.size:
            raise NotSPDError(
                f"non-positive pivot {diag[bad[0]]:.3e} at index {int(bad[0])}; "
                "matrix is not SPD (for Nitsche systems, increase gamma)")
        x = (lu.solve(b / sq)) / sq
        target = max(opts.tol, 1e-12)
        nb = np.linalg.norm(b)
        for _ in range(4):
            resid = b - mat @ x
            if np.linalg.norm(resid) <= 0.01 * target * nb:
                break
            x = x + (lu.solve(resid / sq)) / sq
    else:
        M = diags(1.0 / d)
        x, info = cg(mat, b, rtol=opts.tol, atol=0.0, maxiter=opts.max_iter,
                     M=M)
        if info != 0:
            raise RuntimeError(f"conjugate gradients failed to converge (info={info})")
        target = opts.tol

    if not np.all(np.isfinite(x)):
        raise ValueError("solution has non-finite entries (nan/inf)")
    nb = np.linalg.norm(b)
    if nb > 0.0:
        rel = np.linalg.norm(mat @ x - b) / nb
        if rel > target:
            raise RuntimeError(
                f"solver residual {rel:.3e} exceeds the contract {target:.3e}")
    return x
