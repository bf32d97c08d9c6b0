import numpy as np
import pytest

from auglqr import DimensionError, SingularMatrixError
from auglqr import kernel


class TestEigenvalues:
    def test_one_by_one(self):
        assert kernel.eigenvalues([[0.5]]) == pytest.approx([0.5])

    def test_rotation_matrix(self):
        eig = sorted(kernel.eigenvalues([[0.0, 1.0], [-1.0, 0.0]]), key=lambda v: v.imag)
        assert eig[0] == pytest.approx(-1j, abs=1e-12)
        assert eig[1] == pytest.approx(1j, abs=1e-12)

    def test_symmetric_two_by_two(self):
        eig = sorted(kernel.eigenvalues([[2.0, 1.0], [1.0, 2.0]]), key=lambda v: v.real)
        assert eig == pytest.approx([1.0, 3.0])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            kernel.eigenvalues(np.ones((2, 3)))

    def test_transpose_has_same_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            a = np.sort_complex(kernel.eigenvalues(m))
            b = np.sort_complex(kernel.eigenvalues(m.T))
            assert np.allclose(a, b, atol=1e-10)

    def test_empty(self):
        assert kernel.eigenvalues(np.zeros((0, 0))).size == 0


class TestRank:
    def test_identity(self):
        assert kernel.rank(np.eye(3)) == 3

    def test_proportional_rows(self):
        assert kernel.rank([[1.0, 2.0], [2.0, 4.0]]) == 1

    def test_zero_matrix(self):
        assert kernel.rank(np.zeros((3, 3))) == 0

    def test_rank_equals_rank_of_transpose(self):
        rng = np.random.default_rng(11)
        for cols in (2, 4, 6):
            m = rng.normal(size=(4, cols))
            assert kernel.rank(m) == kernel.rank(m.T)

    def test_complex_input_keeps_imaginary_part(self):
        # rows that are complex multiples of each other: rank 1
        assert kernel.rank([[1.0, 1j], [1j, -1.0]]) == 1
        assert kernel.rank([[1.0, 1j], [-1j, 1.0]]) == 1
        assert kernel.rank([[1.0, 1j], [1j, 1.0]]) == 2

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            kernel.rank(np.eye(2), tol=-1e-3)


class TestSolveLinear:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(kernel.solve_linear(np.eye(2), b), b)

    def test_diagonal(self):
        x = kernel.solve_linear([[2.0, 0.0], [0.0, 4.0]], [[2.0], [8.0]])
        assert x == pytest.approx(np.array([[1.0], [2.0]]))

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularMatrixError, match="reciprocal condition|singular"):
            kernel.solve_linear(np.zeros((2, 2)), np.ones((2, 1)))

    def test_ill_conditioned_unit_pivots_rejected(self):
        # unit upper triangular, -1 above the diagonal: every LU pivot is 1,
        # but the 1-norm condition number is about 3.5e19
        a = np.eye(60) - np.triu(np.ones((60, 60)), 1)
        with pytest.raises(SingularMatrixError, match="reciprocal condition"):
            kernel.solve_linear(a, np.ones(60))

    def test_badly_scaled_diagonal_accepted(self):
        # condition number 1e12, reciprocal 1e-12: above the 1e-13 threshold
        x = kernel.solve_linear(np.diag([1e8, 1e-4]), np.array([1e8, 1e-4]))
        assert x == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_recovers_solution_up_to_20x20(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 12, 20):
            a = rng.normal(size=(n, n)) + n * np.eye(n)  # diagonally dominant
            x0 = rng.normal(size=(n, 3))
            x = kernel.solve_linear(a, a @ x0)
            assert np.max(np.abs(x - x0)) <= 1e-8 * max(1.0, np.max(np.abs(x0)))

    def test_vector_rhs(self):
        x = kernel.solve_linear([[2.0]], np.array([4.0]))
        assert x.shape == (1,)
        assert x[0] == pytest.approx(2.0)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            kernel.solve_linear(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(DimensionError):
            kernel.solve_linear(np.eye(2), np.ones((3, 1)))


def test_inf_norm():
    assert kernel.inf_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 7.0
    assert kernel.inf_norm(np.array([1.0, -5.0])) == 5.0
    assert kernel.inf_norm(np.zeros((0, 2))) == 0.0
