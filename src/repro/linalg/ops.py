"""Vectorised kernels shared by every trainer.

These kernels are the entire compute inner loop of the paper's
workloads:

* :func:`row_dots` — per-row dot products ``X W`` (the "statistics");
* :func:`row_dots_squared` — per-row ``sum_j x_ij^2 * w_j^2`` (FM needs
  the square term of equation 10);
* :func:`accumulate_rows` — ``X^T C``: linear combination of rows, which
  is exactly the gradient of every GLM (``g = X^T coefficients``);
* :func:`accumulate_rows_squared` — the same over squared data;

Every dense operand may carry a trailing *width* axis — one column per
class (MLR) or per factor (FM) — and the whole width is one gather of
``W[indices]`` plus one segmented reduction; a 1-D operand is width 1
and returns 1-D.  Work and temporaries are O(nnz x width) and never
depend on ``n_cols``: the accumulate pair runs in the compact space of
the columns the matrix touches and returns a :class:`RowGradient`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DimensionMismatchError
from repro.linalg.counters import OP_COUNTERS
from repro.linalg.csr import CSRMatrix

#: Most per-entry temporaries (entries x width) a row kernel holds at
#: once; larger inputs are processed in row blocks.  Per-row sums do not
#: depend on the blocking, so this bounds memory and changes no bit.
BLOCK_ELEMENTS = 2 ** 18


#: ``RowGradient.cols`` of a gradient that covers every row, in order.
EVERY_ROW = slice(None)


class RowGradient:
    """A gradient that is zero outside the rows ``cols``.

    ``values[i]`` is the gradient of parameter row ``cols[i]`` of an
    array of shape ``shape``; ``cols`` is an int array of distinct rows
    — or :data:`EVERY_ROW` when the gradient is dense by nature (a
    user-defined model's dense return) and ``values`` is the whole
    array.  This is what
    ``gradient_from_statistics`` returns and ``Optimizer.step`` applies.
    """

    __slots__ = ("cols", "values", "shape")

    def __init__(self, cols: np.ndarray, values: np.ndarray, shape: Tuple[int, ...]):
        self.cols = cols
        self.values = values
        self.shape = tuple(shape)

    def add_to(self, dense: np.ndarray) -> np.ndarray:
        """``dense[cols] += values`` in place; returns ``dense``."""
        dense[self.cols] += self.values
        return dense

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ``shape`` array (``+0.0`` off ``cols``)."""
        OP_COUNTERS.add_densify(int(np.prod(self.shape)))
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.cols] = self.values
        return out


def _check_operand(first: int, array: np.ndarray, what: str) -> Tuple[np.ndarray, int]:
    """``array`` as float64 — ``(first,)`` or ``(first, w)`` — and its width."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim not in (1, 2) or array.shape[0] != first:
        raise DimensionMismatchError((first,), array.shape, what)
    return array, (1 if array.ndim == 1 else array.shape[1])


def _segment_sums(
    data: np.ndarray, indices: np.ndarray, model: np.ndarray, squared: bool, starts: np.ndarray
) -> np.ndarray:
    """Sum ``data * model[indices]`` (or the squares) over the entry
    segments beginning at ``starts`` — one row of sums per segment."""
    products = model[indices]
    if squared:
        products *= products
        data = data ** 2
    products *= data if model.ndim == 1 else data[:, None]
    return np.add.reduceat(products, starts, axis=0)


def _row_sums(matrix: CSRMatrix, model: np.ndarray, width: int, squared: bool) -> np.ndarray:
    """Per-row ``sum_j x_ij w_j`` (or of the squares), any width."""
    OP_COUNTERS.add_alloc(matrix.n_rows * width)  # the statistics buffer
    out = np.zeros((matrix.n_rows,) + model.shape[1:], dtype=np.float64)
    rows, starts = matrix.row_segments()
    indptr = matrix.indptr
    # Row blocks of about ``per_block`` entries: a block ends at the first
    # row starting past its quota, so it overshoots by less than one row.
    per_block = max(BLOCK_ELEMENTS // max(width, 1), 1)
    bounds = [0, matrix.n_rows]
    if matrix.nnz > per_block:
        cuts = np.searchsorted(indptr, np.arange(per_block, matrix.nnz, per_block))
        bounds = np.unique(np.concatenate((bounds, cuts)))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a, b = np.searchsorted(rows, (lo, hi))
        if a < b:
            first, last = indptr[lo], indptr[hi]
            OP_COUNTERS.add_alloc(int(last - first) * width)  # per-entry products
            out[rows[a:b]] = _segment_sums(
                matrix.data[first:last], matrix.indices[first:last], model, squared,
                starts[a:b] - first,
            )
    return out


def row_dots(matrix: CSRMatrix, model: np.ndarray) -> np.ndarray:
    """Return ``X @ W``: ``(n_rows,)`` for a 1-D model, ``(n_rows, w)`` for
    an ``(n_cols, w)`` one.

    In ColumnSGD each worker calls this on its column shard against its
    model partition, yielding the *partial statistics* that the master
    sums (Section III-A, Step 1).
    """
    model, width = _check_operand(matrix.n_cols, model, "model shape")
    OP_COUNTERS.add_flops(3 * matrix.nnz * width)  # gather + multiply + row-sum
    return _row_sums(matrix, model, width, squared=False)


def row_dots_squared(matrix: CSRMatrix, model: np.ndarray) -> np.ndarray:
    """Return per-row ``sum_j x_ij^2 * w_j^2``, shaped like :func:`row_dots`.

    Factorization machines need ``sum_j v_{jf}^2 x_{ij}^2`` per row and
    factor (equation 10's second-order correction); callers pass the
    factors themselves and the gathered entries are squared, so nothing
    model-sized is ever squared.
    """
    model, width = _check_operand(matrix.n_cols, model, "model shape")
    # x^2 once per entry; gather-and-square + multiply + row-sum per width
    OP_COUNTERS.add_flops(matrix.nnz * (1 + 3 * width))
    return _row_sums(matrix, model, width, squared=True)


def _column_sums(
    matrix: CSRMatrix, coefficients: np.ndarray, width: int, squared: bool
) -> RowGradient:
    """``X^T C`` (or over squared data) on the touched columns, any width."""
    cols, inverse = matrix.touched_columns()
    shape = (matrix.n_cols,) + coefficients.shape[1:]
    if not matrix.nnz:  # np.bincount of nothing is an int array
        return RowGradient(cols, np.zeros((0,) + shape[1:], dtype=np.float64), shape)
    OP_COUNTERS.add_alloc(matrix.nnz * width)  # per-entry products
    OP_COUNTERS.add_alloc(cols.size * width)  # the compact gradient block
    data = matrix.data ** 2 if squared else matrix.data
    if coefficients.ndim == 1:
        per_entry = data * np.repeat(coefficients, matrix.row_nnz())
        return RowGradient(
            cols, np.bincount(inverse, weights=per_entry, minlength=cols.size), shape
        )
    # width-major, so each width's entries are contiguous bincount weights
    per_entry = np.repeat(np.ascontiguousarray(coefficients.T), matrix.row_nnz(), axis=1)
    per_entry *= data
    values = np.empty((cols.size, per_entry.shape[0]), dtype=np.float64)
    for k, weights in enumerate(per_entry):
        values[:, k] = np.bincount(inverse, weights=weights, minlength=cols.size)
    return RowGradient(cols, values, shape)


def accumulate_rows(matrix: CSRMatrix, coefficients: np.ndarray) -> RowGradient:
    """Return ``X^T C`` over the columns ``matrix`` touches.

    ``coefficients`` is ``(n_rows,)`` or ``(n_rows, w)``; the result's
    values are ``(n_touched,)`` or ``(n_touched, w)``.  This is the
    gradient kernel: for GLMs the batch gradient is ``sum_i c_i * x_i``
    where ``c_i`` depends only on the statistics (equation 2).  Each
    ColumnSGD worker calls it on its shard to get the gradient of *its
    own* model partition — no communication needed.
    """
    coefficients, width = _check_operand(matrix.n_rows, coefficients, "coefficients shape")
    OP_COUNTERS.add_flops(3 * matrix.nnz * width)  # expand + multiply + scatter-add
    return _column_sums(matrix, coefficients, width, squared=False)


def accumulate_rows_squared(matrix: CSRMatrix, coefficients: np.ndarray) -> RowGradient:
    """Return ``(X**2)^T C`` — like :func:`accumulate_rows` with squared data.

    FM's factor gradient (equation 13) contains a ``v_{if} x_i^2`` term;
    this kernel provides the ``x^2``-weighted accumulation.
    """
    coefficients, width = _check_operand(matrix.n_rows, coefficients, "coefficients shape")
    # x^2 once per entry; expand + multiply + scatter-add per width
    OP_COUNTERS.add_flops(matrix.nnz * (1 + 3 * width))
    return _column_sums(matrix, coefficients, width, squared=True)
