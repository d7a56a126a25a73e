"""Direct and iterative SPD solvers."""

import numpy as np
import pytest
from scipy.sparse import csc_matrix, diags, eye, random as sparse_random

from afem.assembly import FormParams, assemble
from afem.mesh import Cell, refine, uniform_partition
from afem.oracles import manufactured_sin2
from afem.solver import (NotSPDError, SolveOptions, _jacobi_scaled, solve,
                         solve_spd)
from afem.splines import build_space


class TestSolve:
    def test_identity(self):
        A = eye(5, format="csc")
        b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
        assert np.allclose(solve(A, b), b, atol=1e-14)

    def test_two_by_two_hand_solve(self):
        A = csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = solve(A, np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_direct_and_cg_agree_on_random_spd(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((50, 50))
        A = csc_matrix(M.T @ M + 50 * np.eye(50))
        b = rng.standard_normal(50)
        xd = solve(A, b, SolveOptions(method="direct"))
        xc = solve(A, b, SolveOptions(method="cg", tol=1e-12, max_iter=5000))
        assert np.linalg.norm(xd - xc) / np.linalg.norm(xd) < 1e-8

    def test_non_spd_raises_with_pivot_index(self):
        A = csc_matrix(np.diag([1.0, -2.0, 3.0]))
        with pytest.raises(NotSPDError, match="pivot"):
            solve(A, np.ones(3))

    def test_indefinite_dense_block_raises(self):
        A = csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        with pytest.raises(NotSPDError):
            solve(A, np.ones(2))

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        M = sparse_random(200, 200, density=0.05, random_state=2,
                          format="csc")
        A = (M.T @ M + 10 * eye(200)).tocsc()
        b = rng.standard_normal(200)
        x = solve(A, b, SolveOptions(tol=1e-10))
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_direct_solve_bitwise_deterministic(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((80, 80))
        A = csc_matrix(M.T @ M + 80 * np.eye(80))
        b = rng.standard_normal(80)
        x1 = solve(A, b)
        x2 = solve(A, b)
        assert x1.tobytes() == x2.tobytes()

    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(tol=1.5)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)
        with pytest.raises(ValueError):
            SolveOptions(method="gauss-seidel")

    def test_dimension_mismatch(self):
        A = eye(4, format="csc")
        with pytest.raises(ValueError):
            solve(A, np.ones(5))

    @pytest.mark.parametrize("method", ["direct", "cg"])
    def test_non_finite_matrix_rejected(self, method):
        A = np.eye(3)
        A[1, 2] = A[2, 1] = np.inf
        with pytest.raises(ValueError, match="matrix has non-finite"):
            solve_spd(csc_matrix(A), np.ones(3), SolveOptions(method=method))

    def test_non_finite_right_hand_side_rejected(self):
        A = eye(3, format="csc")
        for method in ("direct", "cg"):
            with pytest.raises(ValueError, match="non-finite"):
                solve(A, np.array([1.0, np.nan, 0.0]),
                      SolveOptions(method=method))


class TestJacobiScaling:
    """The scaling by data equals the two sparse products it replaced,
    ``(S @ mat @ S).tocsc()``, bit for bit, and leaves ``mat`` alone."""

    @staticmethod
    def check(mat):
        mat = mat.tocsc()
        before = [a.tobytes() for a in (mat.data, mat.indices, mat.indptr)]
        inv = 1.0 / np.sqrt(mat.diagonal())
        got = _jacobi_scaled(mat, inv)
        S = diags(inv)
        want = (S @ mat @ S).tocsc()
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.tobytes() == b.tobytes()
        assert [a.tobytes() for a in (mat.data, mat.indices,
                                      mat.indptr)] == before
        return got

    @pytest.mark.parametrize("mode", ["conforming", "nitsche"])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_graded_systems(self, mode, degree):
        p = refine(refine(uniform_partition(2), [Cell(2, 1, 1)]),
                   [Cell(3, 3, 3), Cell(3, 2, 3)])
        A, _ = assemble(build_space(p, degree), manufactured_sin2().f,
                        FormParams(mode))
        assert self.check(A.matrix).nnz == A.matrix.nnz

    def test_entries_that_round_to_zero_are_dropped(self):
        mat = csc_matrix(np.array([[1e300, 1e-300, 0.0],
                                   [1e-300, 1e300, 2.0],
                                   [0.0, 2.0, 4.0]]))
        assert self.check(mat).nnz == mat.nnz - 2
