"""Op-counter semantics and the sparse-kernel edge cases they exposed.

The counters (:mod:`repro.linalg.counters`) record the work the
kernels did: disabled they must cost nothing and count nothing; enabled
they must accumulate across kernel calls and never perturb numeric
results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import CSRMatrix, OP_COUNTERS, OpCounters, SparseVector


@pytest.fixture(autouse=True)
def _quiesce_counters():
    """Leave the process-wide singleton disabled and zeroed."""
    OP_COUNTERS.reset()
    OP_COUNTERS.disable()
    yield
    OP_COUNTERS.reset()
    OP_COUNTERS.disable()


# ----------------------------------------------------------------------
# counter semantics
# ----------------------------------------------------------------------
def test_disabled_counters_stay_zero():
    counters = OpCounters()
    counters.add_flops(10)
    counters.add_alloc(5)
    counters.add_densify(7)
    assert counters.snapshot() == {
        "flops": 0,
        "alloc_elements": 0,
        "densify_events": 0,
        "peak_alloc_elements": 0,
    }


def test_enabled_counters_accumulate():
    counters = OpCounters()
    counters.enable()
    counters.add_flops(10)
    counters.add_flops(3)
    counters.add_alloc(5)
    counters.add_densify(100)
    snap = counters.snapshot()
    assert snap["flops"] == 13
    assert snap["alloc_elements"] == 105  # densify bytes count as allocs
    assert snap["densify_events"] == 1
    assert snap["peak_alloc_elements"] == 100


def test_reset_zeroes_but_preserves_enabled_state():
    counters = OpCounters()
    counters.enable()
    counters.add_flops(4)
    counters.reset()
    assert counters.snapshot()["flops"] == 0
    counters.add_flops(2)
    assert counters.snapshot()["flops"] == 2  # still enabled after reset


def test_singleton_records_kernel_work():
    OP_COUNTERS.enable()
    v = SparseVector(np.array([1, 5]), np.array([2.0, 3.0]), dim=10)
    dense = np.ones(10)
    v.dot(dense)
    snap = OP_COUNTERS.snapshot()
    assert snap["flops"] >= 2 * v.nnz
    assert snap["densify_events"] == 0


def test_to_dense_counts_a_densify_event():
    OP_COUNTERS.enable()
    v = SparseVector(np.array([0]), np.array([1.0]), dim=1000)
    v.to_dense()
    snap = OP_COUNTERS.snapshot()
    assert snap["densify_events"] == 1
    assert snap["peak_alloc_elements"] >= 1000


def test_counters_never_change_numerics():
    v = SparseVector(np.array([2, 7]), np.array([1.5, -2.0]), dim=12)
    dense = np.arange(12, dtype=np.float64)
    quiet = v.dot(dense)
    OP_COUNTERS.enable()
    counted = v.dot(dense)
    assert counted == quiet


def _pattern_and_valued(n_rows=1_000, per_row=30, n_cols=200):
    """A pattern matrix of ``per_row`` entries a row and its valued twin."""
    indptr = np.arange(n_rows + 1) * per_row
    indices = (np.arange(n_rows * per_row) * 7) % n_cols
    indices = np.sort(indices.reshape(n_rows, per_row), axis=1).ravel()
    pattern = CSRMatrix(indptr, indices, None, n_cols)
    return pattern, CSRMatrix(indptr, indices, pattern.values(), n_cols)


def _allocated(work) -> int:
    OP_COUNTERS.reset()
    OP_COUNTERS.enable()
    work()
    OP_COUNTERS.disable()
    return OP_COUNTERS.snapshot()["alloc_elements"]


@pytest.mark.parametrize("op", ["take_rows", "vstack", "split_columns"])
def test_a_pattern_copy_is_charged_its_ids_alone(op):
    """A pattern matrix's row and column copies allocate column ids and
    no values: 30,000 elements for 1,000 rows of 30 entries, where the
    valued twin's copies allocate ids and values, 60,000."""
    pattern, valued = _pattern_and_valued()
    owner = pattern.indices % 3
    copies = {
        "take_rows": lambda m: m.take_rows(np.arange(m.n_rows)),
        "vstack": lambda m: CSRMatrix.vstack([m.slice_rows(0, 400), m.slice_rows(400, 1_000)]),
        "split_columns": lambda m: m.split_columns(owner, m.indices // 3, [67, 67, 66]),
    }
    assert _allocated(lambda: copies[op](pattern)) == 30_000
    assert _allocated(lambda: copies[op](valued)) == 60_000


@pytest.mark.parametrize("values", ["unit", "unit-multiplied", "gaussian"])
def test_fm_counts_what_its_four_kernel_calls_count(values):
    """FM's fused statistics gather and its pattern-matrix shortcut are
    counted as the four separate kernel calls they replace: a round's
    flops, allocations and peak do not depend on how the sums are made."""
    from repro.datasets import make_classification
    from repro.linalg import (
        accumulate_rows, accumulate_rows_squared, row_dots, row_dots_squared,
    )
    from repro.models import FactorizationMachine

    data = make_classification(
        60, 40, nnz_per_row=6, binary_features=values != "gaussian", seed=2)
    features, model = data.features, FactorizationMachine(3)
    params = model.init_params(40, seed=1)
    if values == "unit":  # "unit-multiplied" is its valued twin
        features = features.pattern_view()
    assert (features.data is None) == (values == "unit")
    features.touched_columns()  # the once-per-process column scratch is not a round's

    def counted(work):
        OP_COUNTERS.reset()
        OP_COUNTERS.enable()
        work()
        OP_COUNTERS.disable()
        return OP_COUNTERS.snapshot()

    def fm_round():
        stats = model.compute_statistics(features, params)
        coefficients = model.coefficients(stats, data.labels)
        model.gradient_from_statistics(features, data.labels, coefficients, params)

    def four_calls():
        row_dots(features, params)
        row_dots_squared(features, params[:, 1:])
        accumulate_rows(features, np.ones((features.n_rows, 4)))
        accumulate_rows_squared(features, np.ones(features.n_rows))

    got = counted(fm_round)
    assert got["flops"] > 0
    assert got == counted(four_calls)


# ----------------------------------------------------------------------
# sparse-kernel edge cases
# ----------------------------------------------------------------------
def test_sparse_vector_dim_zero():
    v = SparseVector.empty(0)
    assert v.dim == 0
    assert v.nnz == 0
    assert v.to_dense().shape == (0,)
    assert v.dot(np.zeros(0)) == 0.0


def test_sparse_vector_all_zero_construction():
    v = SparseVector.from_dense(np.zeros(8))
    assert v.nnz == 0
    assert np.array_equal(v.to_dense(), np.zeros(8))


def test_sparse_vector_to_dense_round_trip():
    dense = np.zeros(16)
    dense[[3, 9, 15]] = [1.0, -2.5, 4.0]
    v = SparseVector.from_dense(dense)
    assert np.array_equal(v.to_dense(), dense)
    again = SparseVector.from_dense(v.to_dense())
    assert again == v


def test_csr_zero_column_matrix():
    m = CSRMatrix.empty(3, 0)
    assert m.shape == (3, 0)
    assert m.nnz == 0
    assert m.to_dense().shape == (3, 0)


def test_csr_all_zero_rows_round_trip():
    rows = [SparseVector.empty(5) for _ in range(4)]
    m = CSRMatrix.from_rows(rows, n_cols=5)
    assert m.nnz == 0
    assert np.array_equal(m.to_dense(), np.zeros((4, 5)))
    assert CSRMatrix.from_dense(m.to_dense()) == m


def test_csr_to_dense_round_trip_counts_once_per_call():
    dense = np.zeros((2, 6))
    dense[0, 1] = 3.0
    dense[1, 4] = -1.0
    m = CSRMatrix.from_dense(dense)
    OP_COUNTERS.enable()
    assert np.array_equal(m.to_dense(), dense)
    assert np.array_equal(m.to_dense(), dense)
    assert OP_COUNTERS.snapshot()["densify_events"] == 2
