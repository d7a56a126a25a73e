"""Direct and iterative SPD solvers."""

import numpy as np
import pytest
from scipy.sparse import csc_matrix, eye, random as sparse_random

from afem.solver import NotSPDError, SolveOptions, solve, solve_spd


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
