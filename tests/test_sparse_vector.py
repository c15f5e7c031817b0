"""Unit tests for repro.linalg.SparseVector."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError
from repro.linalg import SparseVector


class TestConstruction:
    def test_sorts_indices(self):
        v = SparseVector([5, 1, 3], [1.0, 2.0, 3.0], 10)
        assert v.indices.tolist() == [1, 3, 5]
        assert v.values.tolist() == [2.0, 3.0, 1.0]

    def test_drops_explicit_zeros(self):
        v = SparseVector([0, 1, 2], [1.0, 0.0, 3.0], 5)
        assert v.nnz == 2
        assert v.indices.tolist() == [0, 2]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseVector([1, 1], [1.0, 2.0], 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="indices"):
            SparseVector([5], [1.0], 5)
        with pytest.raises(ValueError):
            SparseVector([-1], [1.0], 5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SparseVector([1, 2], [1.0], 5)

    def test_rejects_negative_dim(self):
        with pytest.raises(ValueError, match="dim"):
            SparseVector([], [], -1)

    def test_empty(self):
        v = SparseVector.empty(7)
        assert v.dim == 7
        assert v.nnz == 0
        assert np.array_equal(v.to_dense(), np.zeros(7))

    def test_from_dense_roundtrip(self):
        dense = np.array([0.0, 1.0, 0.0, -3.0])
        v = SparseVector.from_dense(dense)
        assert np.array_equal(v.to_dense(), dense)

    def test_from_dense_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            SparseVector.from_dense(np.zeros((2, 2)))


class TestOperations:
    def test_dot_matches_dense(self):
        v = SparseVector([0, 2, 4], [1.0, 2.0, 3.0], 5)
        w = np.array([1.0, 10.0, 2.0, 10.0, -1.0])
        assert v.dot(w) == pytest.approx(1.0 + 4.0 - 3.0)

    def test_dot_empty_is_zero(self):
        assert SparseVector.empty(4).dot(np.ones(4)) == 0.0

    def test_dot_shape_check(self):
        v = SparseVector([0], [1.0], 3)
        with pytest.raises(DimensionMismatchError):
            v.dot(np.ones(4))

    def test_scale(self):
        v = SparseVector([1, 2], [2.0, -4.0], 5)
        assert v.scale(0.5).values.tolist() == [1.0, -2.0]

    def test_scale_by_zero_empties(self):
        v = SparseVector([1], [2.0], 5)
        assert v.scale(0.0).nnz == 0

    def test_items_order(self):
        v = SparseVector([4, 0], [1.0, 2.0], 5)
        assert list(v.items()) == [(0, 2.0), (4, 1.0)]


class TestDunder:
    def test_len_is_dim(self):
        assert len(SparseVector.empty(9)) == 9

    def test_equality(self):
        a = SparseVector([1], [2.0], 5)
        b = SparseVector([1], [2.0], 5)
        c = SparseVector([1], [2.0], 6)
        assert a == b
        assert a != c

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SparseVector.empty(3))

    def test_repr_mentions_nnz(self):
        assert "nnz=1" in repr(SparseVector([0], [1.0], 3))
