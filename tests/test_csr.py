"""Unit tests for repro.linalg.CSRMatrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError
from repro.linalg import CSRMatrix, SparseVector
from repro.partition import make_assignment


def sample_matrix():
    dense = np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 4.0, 0.0, 5.0],
        ]
    )
    return CSRMatrix.from_dense(dense), dense


class TestConstruction:
    def test_from_dense_roundtrip(self):
        matrix, dense = sample_matrix()
        assert matrix.shape == (3, 4)
        assert matrix.nnz == 5
        assert np.array_equal(matrix.to_dense(), dense)

    def test_from_rows(self):
        rows = [SparseVector([0, 2], [1.0, 2.0], 4), SparseVector.empty(4)]
        matrix = CSRMatrix.from_rows(rows)
        assert matrix.shape == (2, 4)
        assert matrix.row(0) == rows[0]
        assert matrix.row(1).nnz == 0

    def test_from_rows_needs_consistent_dims(self):
        with pytest.raises(DimensionMismatchError):
            CSRMatrix.from_rows([SparseVector.empty(4), SparseVector.empty(5)])

    def test_from_rows_empty_needs_ncols(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_rows([])
        assert CSRMatrix.from_rows([], n_cols=3).shape == (0, 3)

    def test_empty(self):
        matrix = CSRMatrix.empty(2, 3)
        assert matrix.shape == (2, 3)
        assert matrix.nnz == 0

    def test_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix([1, 2], [0], [1.0], 3)
        with pytest.raises(ValueError):
            CSRMatrix([0, 2], [0], [1.0], 3)

    def test_non_monotone_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix([0, 2, 1, 3], [0, 1, 0], [1.0, 1.0, 1.0], 3)

    def test_column_out_of_range(self):
        with pytest.raises(ValueError, match="column"):
            CSRMatrix([0, 1], [5], [1.0], 3)


class TestRowAccess:
    def test_row(self):
        matrix, dense = sample_matrix()
        assert np.array_equal(matrix.row(2).to_dense(), dense[2])

    def test_row_out_of_range(self):
        matrix, _ = sample_matrix()
        with pytest.raises(IndexError):
            matrix.row(3)

    def test_row_nnz(self):
        matrix, _ = sample_matrix()
        assert matrix.row_nnz().tolist() == [2, 0, 3]

    def test_iter_rows(self):
        matrix, dense = sample_matrix()
        stacked = np.vstack([matrix.row(i).to_dense() for i in range(matrix.n_rows)])
        assert np.array_equal(stacked, dense)

    def test_density(self):
        matrix, _ = sample_matrix()
        assert matrix.density() == pytest.approx(5 / 12)
        assert CSRMatrix.empty(0, 0).density() == 0.0


class TestTakeAndSlice:
    def test_take_rows_with_repetition(self):
        matrix, dense = sample_matrix()
        taken = matrix.take_rows([2, 0, 2])
        assert np.array_equal(taken.to_dense(), dense[[2, 0, 2]])

    def test_take_rows_bounds(self):
        matrix, _ = sample_matrix()
        with pytest.raises(IndexError):
            matrix.take_rows([3])

    def test_take_rows_empty(self):
        matrix, _ = sample_matrix()
        assert matrix.take_rows([]).shape == (0, 4)

    def test_slice_rows(self):
        matrix, dense = sample_matrix()
        assert np.array_equal(matrix.slice_rows(1, 3).to_dense(), dense[1:3])

    def test_slice_rows_bounds(self):
        matrix, _ = sample_matrix()
        with pytest.raises(IndexError):
            matrix.slice_rows(1, 4)

    def test_vstack(self):
        matrix, dense = sample_matrix()
        stacked = CSRMatrix.vstack([matrix, matrix])
        assert np.array_equal(stacked.to_dense(), np.vstack([dense, dense]))

    def test_vstack_rejects_mixed_cols(self):
        with pytest.raises(DimensionMismatchError):
            CSRMatrix.vstack([CSRMatrix.empty(1, 2), CSRMatrix.empty(1, 3)])

    def test_vstack_needs_input(self):
        with pytest.raises(ValueError):
            CSRMatrix.vstack([])


class TestColumnOps:
    def test_select_columns(self):
        matrix, dense = sample_matrix()
        sub = matrix.select_columns([0, 3])
        assert sub.shape == (3, 2)
        assert np.array_equal(sub.to_dense(), dense[:, [0, 3]])

    def test_select_columns_empty(self):
        matrix, _ = sample_matrix()
        sub = matrix.select_columns(np.array([], dtype=int))
        assert sub.shape == (3, 0)

    def test_select_columns_requires_sorted_unique(self):
        matrix, _ = sample_matrix()
        with pytest.raises(ValueError):
            matrix.select_columns([3, 0])
        with pytest.raises(ValueError):
            matrix.select_columns([1, 1])

    def test_partition_roundtrip(self):
        matrix, dense = sample_matrix()
        assignments = [np.array([0, 2]), np.array([1, 3])]
        rebuilt = np.zeros_like(dense)
        for columns in assignments:
            rebuilt[:, columns] = matrix.select_columns(columns).to_dense()
        assert np.array_equal(rebuilt, dense)


def assert_same_arrays(got, want):
    assert got.n_cols == want.n_cols
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name


@st.composite
def stored_matrices(draw):
    """A CSR built from raw arrays: empty rows and *stored* zeros included."""
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(1, 20))
    stored = draw(st.lists(st.booleans(), min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    stored = np.array(stored, dtype=bool).reshape(n_rows, n_cols)
    rows, cols = np.nonzero(stored)
    values = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 1e-3]),
                           min_size=rows.size, max_size=rows.size))
    indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    return CSRMatrix(indptr, cols, values, n_cols)


class TestSplitColumns:
    """``split_columns`` is K x ``select_columns`` in one pass, array for array."""

    @given(matrix=stored_matrices(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_select_columns_on_any_partition(self, matrix, data):
        # any owner per column: K = 1, empty destinations, one column each
        n_workers = data.draw(st.integers(1, matrix.n_cols + 2))
        owner_of = np.array(data.draw(st.lists(
            st.integers(0, n_workers - 1), min_size=matrix.n_cols, max_size=matrix.n_cols)))
        columns = [np.flatnonzero(owner_of == k) for k in range(n_workers)]
        local_of = np.empty(matrix.n_cols, dtype=np.int64)
        for cols in columns:
            local_of[cols] = np.arange(cols.size)
        pieces = matrix.split_columns(
            owner_of[matrix.indices], local_of[matrix.indices], [c.size for c in columns])
        assert len(pieces) == n_workers
        for piece, cols in zip(pieces, columns):
            assert_same_arrays(piece, matrix.select_columns(cols))

    @given(
        matrix=stored_matrices(),
        scheme=st.sampled_from(["round_robin", "range", "hash"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_assignment_split_equals_select_columns(self, matrix, scheme, data):
        n_workers = data.draw(st.sampled_from([1, matrix.n_cols]) | st.integers(1, matrix.n_cols))
        assignment = make_assignment(scheme, matrix.n_cols, n_workers)
        pieces = assignment.split(matrix)
        assert len(pieces) == n_workers
        for k, piece in enumerate(pieces):
            assert_same_arrays(piece, matrix.select_columns(assignment.columns_of(k)))

    def test_explicit_zero_and_empty_row_survive(self):
        matrix = CSRMatrix([0, 2, 2, 4], [0, 3, 1, 2], [0.0, 1.0, 2.0, 0.0], 4)
        even, odd = matrix.split_columns([0, 1, 1, 0], [0, 1, 0, 1], [2, 2])
        assert even.indptr.tolist() == [0, 1, 1, 2] and even.data.tolist() == [0.0, 0.0]
        assert odd.indices.tolist() == [1, 0] and odd.data.tolist() == [1.0, 2.0]

    def test_rejects_misaligned_or_unknown_owner(self):
        matrix, _ = sample_matrix()
        with pytest.raises(DimensionMismatchError):
            matrix.split_columns([0, 0], [0, 1, 2, 3, 4], [4])
        with pytest.raises(DimensionMismatchError):
            matrix.split_columns([0] * 5, [0, 1], [4])
        with pytest.raises(ValueError, match="owners"):
            matrix.split_columns([0, 0, 0, 0, 2], [0, 2, 0, 1, 3], [4, 4])
        with pytest.raises(ValueError, match="column"):  # local id beyond its piece
            matrix.split_columns([0] * 5, [0, 2, 0, 1, 3], [3])


class TestDunder:
    def test_equality(self):
        a, _ = sample_matrix()
        b, _ = sample_matrix()
        assert a == b
        assert a != CSRMatrix.empty(3, 4)

    def test_unhashable(self):
        matrix, _ = sample_matrix()
        with pytest.raises(TypeError):
            hash(matrix)

    def test_repr(self):
        matrix, _ = sample_matrix()
        assert "shape=(3, 4)" in repr(matrix)
