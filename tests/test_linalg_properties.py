"""Property-based tests (hypothesis) on the sparse structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg import CSRMatrix, SparseVector, accumulate_rows, row_dots


@st.composite
def dense_matrices(draw, max_rows=8, max_cols=10):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    values = draw(
        arrays(
            np.float64,
            (rows, cols),
            elements=st.floats(-100, 100, allow_nan=False).map(
                lambda x: 0.0 if abs(x) < 10 else x  # force sparsity
            ),
        )
    )
    return values


@st.composite
def sparse_vectors(draw, max_dim=30):
    dim = draw(st.integers(1, max_dim))
    indices = draw(
        st.lists(st.integers(0, dim - 1), unique=True, max_size=dim)
    )
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != 0.0),
            min_size=len(indices),
            max_size=len(indices),
        )
    )
    return SparseVector(indices, values, dim)


class TestSparseVectorProperties:
    @given(sparse_vectors())
    def test_dense_roundtrip(self, v):
        assert SparseVector.from_dense(v.to_dense()) == v

    @given(sparse_vectors(), st.floats(-10, 10, allow_nan=False))
    def test_scale_linearity(self, v, alpha):
        assert np.allclose(v.scale(alpha).to_dense(), alpha * v.to_dense())

    @given(sparse_vectors())
    def test_dot_with_own_dense_is_norm(self, v):
        assert np.isclose(v.dot(v.to_dense()), np.dot(v.values, v.values), rtol=1e-9)


class TestCSRProperties:
    @given(dense_matrices())
    def test_dense_roundtrip(self, dense):
        assert np.array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)

    @given(dense_matrices(), st.data())
    def test_take_rows_matches_numpy(self, dense, data):
        matrix = CSRMatrix.from_dense(dense)
        ids = data.draw(
            st.lists(st.integers(0, dense.shape[0] - 1), min_size=0, max_size=12)
        )
        assert np.array_equal(
            matrix.take_rows(ids).to_dense(), dense[np.asarray(ids, dtype=int)]
        )

    @given(dense_matrices(), st.data())
    def test_select_columns_matches_numpy(self, dense, data):
        matrix = CSRMatrix.from_dense(dense)
        cols = data.draw(
            st.lists(
                st.integers(0, dense.shape[1] - 1), unique=True, min_size=1
            ).map(sorted)
        )
        assert np.array_equal(
            matrix.select_columns(cols).to_dense(), dense[:, np.asarray(cols)]
        )

    @given(dense_matrices(), st.integers(1, 4))
    @settings(max_examples=40)
    def test_column_partition_roundtrip(self, dense, k):
        """Splitting into K round-robin shards and reassembling is lossless."""
        matrix = CSRMatrix.from_dense(dense)
        k = min(k, dense.shape[1])
        assignments = [
            np.arange(i, dense.shape[1], k, dtype=np.int64) for i in range(k)
        ]
        parts = [matrix.select_columns(a) for a in assignments]
        rebuilt = np.zeros_like(dense)
        for part, columns in zip(parts, assignments):
            rebuilt[:, columns] = part.to_dense()
        assert np.array_equal(rebuilt, dense)

    @given(dense_matrices(), st.data())
    @settings(max_examples=40)
    def test_kernel_adjointness(self, dense, data):
        """<Xw, c> == <w, X^T c> for random w, c."""
        matrix = CSRMatrix.from_dense(dense)
        w = np.asarray(
            data.draw(
                st.lists(
                    st.floats(-10, 10, allow_nan=False),
                    min_size=dense.shape[1],
                    max_size=dense.shape[1],
                )
            )
        )
        c = np.asarray(
            data.draw(
                st.lists(
                    st.floats(-10, 10, allow_nan=False),
                    min_size=dense.shape[0],
                    max_size=dense.shape[0],
                )
            )
        )
        lhs = float(np.dot(row_dots(matrix, w), c))
        rhs = float(np.dot(w, accumulate_rows(matrix, c).to_dense()))
        assert np.isclose(lhs, rhs, rtol=1e-8, atol=1e-6)
