"""Sparse-kernel micro-benchmarks: axpy, dot, and the gradient kernel
at three nnz scales, and FM's statistics and gradient at the e2e
``fm_sim`` per-worker shape, on one-hot and on Gaussian values.

A ColumnSGD round is O(batch nnz) only while these kernels are
O(nnz).  The tier-1 width gate (``test_round_work_is_flat_in_m``)
times whole rounds at m = 1e5 and 1e7; this benchmark is its kernel
view: it records their wall time (and measured element-ops) as nnz
grows 10x per step at a fixed m, so a kernel regressing to O(d) shows
up as super-linear scaling in ``BENCH_sparsity.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import CSRMatrix, OP_COUNTERS, SparseVector
from repro.linalg.ops import accumulate_rows
from repro.models import FactorizationMachine
from repro.utils import ascii_table
from repro.utils.rng import rng_from_seed

#: Model dimension is fixed; only the stored entries grow.
DIM = 1_000_000

NNZ_SCALES = (1_000, 10_000, 100_000)

#: ``fm_sim``'s per-worker batch (benchmarks/e2e): 500 rows, about 8.9k
#: entries over a 25k-column partition, 16 factors (17-wide statistics).
FM_ROWS, FM_ENTRIES, FM_COLS, FM_FACTORS = 500, 8_900, 25_000, 16


def _vector(nnz: int) -> SparseVector:
    rng = rng_from_seed(7)
    indices = np.sort(rng.choice(DIM, size=nnz, replace=False))
    values = rng.standard_normal(nnz)
    return SparseVector(indices, values, dim=DIM)


def _matrix(nnz: int, rows: int = 64) -> CSRMatrix:
    rng = rng_from_seed(13)
    per_row = max(nnz // rows, 1)
    row_vectors = []
    for _ in range(rows):
        indices = np.sort(rng.choice(DIM, size=per_row, replace=False))
        row_vectors.append(
            SparseVector(indices, rng.standard_normal(per_row), dim=DIM)
        )
    return CSRMatrix.from_rows(row_vectors, n_cols=DIM)


def _fm_case(values: str):
    """FM, its params and one batch; ``values`` is ``unit`` (one-hot CTR
    data, the kernels skip their multiplies) or ``gaussian``."""
    rng = rng_from_seed(17)
    lengths = rng.multinomial(FM_ENTRIES, np.full(FM_ROWS, 1.0 / FM_ROWS))
    indices = np.concatenate([np.sort(rng.choice(FM_COLS, size=k, replace=False)) for k in lengths])
    data = np.ones(indices.size) if values == "unit" else rng.standard_normal(indices.size)
    features = CSRMatrix(np.concatenate(([0], np.cumsum(lengths))), indices, data, FM_COLS)
    model = FactorizationMachine(FM_FACTORS)
    labels = np.where(rng.random(FM_ROWS) < 0.5, 1.0, -1.0)
    return model, model.init_params(FM_COLS, seed=1), features, labels


def _axpy(out: np.ndarray, alpha: float, v: SparseVector) -> None:
    out[v.indices] += alpha * v.values


@pytest.mark.parametrize("nnz", NNZ_SCALES)
def test_bench_axpy(benchmark, nnz):
    v = _vector(nnz)
    out = np.zeros(DIM)
    benchmark(_axpy, out, 0.5, v)


@pytest.mark.parametrize("nnz", NNZ_SCALES)
def test_bench_dot(benchmark, nnz):
    v = _vector(nnz)
    dense = np.ones(DIM)
    benchmark(v.dot, dense)


@pytest.mark.parametrize("nnz", NNZ_SCALES)
def test_bench_gradient(benchmark, nnz):
    matrix = _matrix(nnz)
    coefficients = np.ones(matrix.n_rows)
    benchmark(accumulate_rows, matrix, coefficients)


@pytest.mark.parametrize("values", ["unit", "gaussian"])
def test_bench_fm_statistics(benchmark, values):
    model, params, features, _ = _fm_case(values)
    benchmark(model.compute_statistics, features, params)


@pytest.mark.parametrize("values", ["unit", "gaussian"])
def test_bench_fm_gradient(benchmark, values):
    model, params, features, labels = _fm_case(values)
    coefficients = model.coefficients(model.compute_statistics(features, params), labels)
    benchmark(model.gradient_from_statistics, features, labels, coefficients, params)


def test_measured_work_scales_with_nnz(emit):
    """The op counters see O(nnz) element-ops, not O(d): flops for dot
    must grow ~10x per scale step while dim stays fixed at 1e6."""
    rows = []
    flops_per_scale = []
    for nnz in NNZ_SCALES:
        v = _vector(nnz)
        dense = np.ones(DIM)
        OP_COUNTERS.reset()
        OP_COUNTERS.enable()
        v.dot(dense)
        snap = OP_COUNTERS.snapshot()
        OP_COUNTERS.disable()
        flops_per_scale.append(snap["flops"])
        rows.append((nnz, snap["flops"], snap["densify_events"]))
    emit(
        "sparsity_kernel_work",
        ascii_table(["nnz", "dot flops", "densify events"], rows),
    )
    for prev, cur in zip(flops_per_scale, flops_per_scale[1:]):
        ratio = cur / max(prev, 1)
        assert 8.0 <= ratio <= 12.0, flops_per_scale
