"""Property-based tests (hypothesis) on the sparse structures."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg import (
    CSRMatrix,
    SparseVector,
    accumulate_rows,
    accumulate_rows_squared,
    row_dots,
    row_dots_squared,
)


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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def binary_matrices(draw, max_rows=8, max_cols=10):
    """0/1 matrices: empty rows and ``nnz = 0`` come up on their own."""
    mask = draw(arrays(np.bool_, (draw(st.integers(0, max_rows)), draw(st.integers(1, max_cols)))))
    return CSRMatrix.from_dense(mask.astype(np.float64))


def pattern_and_twin(matrix):
    """``matrix``'s structure as a pattern matrix and as its valued twin,
    whose every stored value is an explicit 1.0."""
    pattern = CSRMatrix(matrix.indptr, matrix.indices, None, matrix.n_cols)
    twin = CSRMatrix(matrix.indptr, matrix.indices, np.ones(matrix.nnz), matrix.n_cols)
    return pattern, twin


def same_int64_views(got, want) -> bool:
    """Bit equality of two float64 arrays, compared as int64 views."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return (
        got.dtype == want.dtype == np.float64 and got.shape == want.shape
        and np.array_equal(got.view(np.int64), want.view(np.int64))
    )


def operands(matrix, width, seed):
    """A model and coefficients of ``width`` (0: 1-D) for ``matrix``."""
    rng = np.random.default_rng(seed)
    tail = () if width == 0 else (width,)
    return rng.normal(size=(matrix.n_cols,) + tail), rng.normal(size=(matrix.n_rows,) + tail)


def kernel_outputs(matrix, model, coefficients):
    """What the four kernels and the fused one return on one input."""
    linear = accumulate_rows(matrix, coefficients)
    outs = [
        row_dots(matrix, model), row_dots_squared(matrix, model), linear.values,
        accumulate_rows_squared(matrix, coefficients).values,
    ]
    if model.ndim == 2:
        for first in range(model.shape[1]):
            outs.extend(row_dots(matrix, model, squares_from=first))
        # FM's shortcut: the linear sums of a column stand in for its squared pass
        outs.append(accumulate_rows_squared(
            matrix, coefficients[:, 0], linear=linear.values[:, 0]).values)
    return outs


class TestUnitValues:
    @settings(max_examples=80, deadline=None)
    @given(binary_matrices(), st.sampled_from([0, 1, 4]), st.integers(0, 2 ** 32 - 1))
    @example(CSRMatrix.empty(3, 4), 4, 0)  # nnz = 0
    def test_skipping_the_unit_multiplies_changes_no_bit(self, matrix, width, seed):
        pattern, twin = pattern_and_twin(matrix)
        model, coefficients = operands(matrix, width, seed)
        skipped = kernel_outputs(pattern, model, coefficients)
        multiplied = kernel_outputs(twin, model, coefficients)
        assert len(skipped) == len(multiplied)
        for got, want in zip(skipped, multiplied):
            assert same_int64_views(got, want)
        for kernel in (accumulate_rows, accumulate_rows_squared):
            assert np.array_equal(kernel(pattern, coefficients).cols,
                                  kernel(twin, coefficients).cols)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(dense_matrices(), binary_matrices().map(lambda m: m.to_dense())),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_fused_row_kernel_is_the_two_kernels(self, dense, width, seed):
        matrix = CSRMatrix.from_dense(dense)
        model, _ = operands(matrix, width, seed)
        for first in range(width):
            dots, squares = row_dots(matrix, model, squares_from=first)
            assert same_bits(dots, row_dots(matrix, model))
            assert same_bits(squares, row_dots_squared(matrix, model[:, first:]))

    @pytest.mark.parametrize("shape, first", [((3,), 0), ((3, 2), 2), ((3, 2), -1)])
    def test_fused_row_kernel_rejects_a_bad_first_column(self, shape, first):
        with pytest.raises(ValueError):
            row_dots(CSRMatrix.from_dense(np.eye(3)), np.ones(shape), squares_from=first)

    @settings(max_examples=80, deadline=None)
    @given(binary_matrices(), st.data())
    def test_derived_matrices_report_their_own_values(self, matrix, data):
        """Every derived constructor keeps ``data=None`` and derives the
        structure its valued twin's counterpart has, with 1.0s."""
        pattern, twin = pattern_and_twin(matrix)
        n_rows, n_cols = matrix.shape
        ids = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=6)) if n_rows else []
        start = data.draw(st.integers(0, n_rows))
        stop = data.draw(st.integers(start, n_rows))
        columns = data.draw(st.lists(st.integers(0, n_cols - 1), unique=True, min_size=1))
        owner = data.draw(arrays(np.int64, matrix.nnz, elements=st.integers(0, 2)))
        local = np.zeros(matrix.nnz, dtype=np.int64)  # one column per piece: any ids do

        def derived(m):
            cols, inverse = m.touched_columns()
            return [
                m.take_rows(ids),
                m.slice_rows(start, stop),
                CSRMatrix.vstack([m.take_rows(ids), m]),
                m.select_columns(sorted(columns)),
                *m.split_columns(owner, local, [1, 1, 1]),
                CSRMatrix(m.indptr, inverse, m.data, cols.size),  # FFM's re-index
            ]

        for got, want in zip(derived(pattern), derived(twin)):
            assert got.data is None
            assert np.all(want.data == 1.0)
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got == want

    def test_pattern_view_decides_on_every_value(self):
        ones = CSRMatrix.from_dense([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        view = ones.pattern_view()
        assert view.data is None and ones.data is not None  # the original is untouched
        assert view.indptr is ones.indptr and view.indices is ones.indices
        assert view.pattern_view() is view
        assert np.array_equal(view.values(), ones.data) and view == ones
        valued = CSRMatrix.from_dense([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        assert valued.pattern_view() is valued
        # rows of a valued matrix stay valued, whatever they hold
        assert valued.take_rows([0]).data is not None
        mixed = CSRMatrix.vstack([view, valued])
        assert np.array_equal(mixed.data, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        assert np.array_equal(view.to_dense(), ones.to_dense())
        assert np.array_equal(view.row(2).values, [1.0, 1.0])
