"""Unit tests for the linalg kernels in repro.linalg.ops."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError
from repro.linalg import (
    CSRMatrix,
    accumulate_rows,
    accumulate_rows_squared,
    row_dots,
    row_dots_squared,
)


@pytest.fixture
def matrix_and_dense(rng):
    dense = rng.normal(size=(7, 9))
    dense[rng.random(dense.shape) < 0.6] = 0.0
    return CSRMatrix.from_dense(dense), dense


class TestRowDots:
    def test_matches_dense_matmul(self, matrix_and_dense, rng):
        matrix, dense = matrix_and_dense
        w = rng.normal(size=9)
        assert np.allclose(row_dots(matrix, w), dense @ w)

    def test_empty_rows_are_zero(self):
        matrix = CSRMatrix.empty(3, 4)
        assert np.array_equal(row_dots(matrix, np.ones(4)), np.zeros(3))

    def test_shape_check(self, matrix_and_dense):
        matrix, _ = matrix_and_dense
        with pytest.raises(DimensionMismatchError):
            row_dots(matrix, np.ones(8))


class TestRowDotsSquared:
    def test_matches_dense(self, matrix_and_dense, rng):
        matrix, dense = matrix_and_dense
        w = rng.normal(size=9)
        assert np.allclose(row_dots_squared(matrix, w), (dense ** 2) @ (w ** 2))

    def test_empty(self):
        matrix = CSRMatrix.empty(2, 3)
        assert np.array_equal(row_dots_squared(matrix, np.ones(3)), np.zeros(2))


class TestAccumulateRows:
    def test_matches_dense_transpose(self, matrix_and_dense, rng):
        matrix, dense = matrix_and_dense
        c = rng.normal(size=7)
        assert np.allclose(accumulate_rows(matrix, c).to_dense(), dense.T @ c)

    def test_squared_variant(self, matrix_and_dense, rng):
        matrix, dense = matrix_and_dense
        c = rng.normal(size=7)
        assert np.allclose(accumulate_rows_squared(matrix, c).to_dense(), (dense ** 2).T @ c)

    def test_empty_matrix(self):
        matrix = CSRMatrix.empty(3, 5)
        assert np.array_equal(accumulate_rows(matrix, np.ones(3)).to_dense(), np.zeros(5))
        assert np.array_equal(accumulate_rows_squared(matrix, np.ones(3)).to_dense(), np.zeros(5))

    def test_shape_check(self, matrix_and_dense):
        matrix, _ = matrix_and_dense
        with pytest.raises(DimensionMismatchError):
            accumulate_rows(matrix, np.ones(6))
        with pytest.raises(DimensionMismatchError):
            accumulate_rows_squared(matrix, np.ones(6))

    def test_transpose_identity(self, matrix_and_dense, rng):
        """<Xw, c> == <w, X^T c> — adjointness of the two kernels."""
        matrix, _ = matrix_and_dense
        w = rng.normal(size=9)
        c = rng.normal(size=7)
        lhs = np.dot(row_dots(matrix, w), c)
        rhs = np.dot(w, accumulate_rows(matrix, c).to_dense())
        assert lhs == pytest.approx(rhs)
