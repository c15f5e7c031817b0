"""Vectorised kernels shared by every trainer.

These kernels are the entire compute inner loop of the paper's
workloads:

* :func:`row_dots` — per-row dot products ``X W`` (the "statistics"),
  and with ``squares_from`` the squared sums below from the same gather;
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
the columns the matrix touches and returns a :class:`RowGradient`.  On a
pattern matrix (``data is None``, every value 1.0) no kernel multiplies
by a value: the product is exact, so its valued twin gives the same bits.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
    A step consumes the ``values`` of a compact gradient (SGD scales them
    in place); a dense one over :data:`EVERY_ROW` is left as it is.
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
    gathered: np.ndarray, data: Optional[np.ndarray], starts: np.ndarray,
    dots: bool, squares_from: Optional[int],
) -> List[np.ndarray]:
    """Per-segment sums over one row block: the dot sums ``sum x w`` (if
    ``dots``), then the squared sums ``sum x^2 w^2`` of the columns from
    ``squares_from`` on (unless ``None``).

    ``gathered`` is ``model[indices]`` for the block's entries, one row
    per entry, and is overwritten.  ``data`` is ``None`` for a pattern
    matrix: a product with 1.0 is exact, so skipping it changes no bit.
    """
    if data is not None and gathered.ndim == 2:
        data = data[:, None]
    sums = []
    if dots:
        if data is None:
            products = gathered
        elif squares_from is None:
            products = np.multiply(gathered, data, out=gathered)
        else:  # the squares below still need ``gathered``
            products = gathered * data
        sums.append(np.add.reduceat(products, starts, axis=0))
    if squares_from is not None:
        # The whole contiguous block is squared in place, the columns
        # before ``squares_from`` too: a strided in-place square of the
        # tail alone made the whole call 1.6x slower at FM's width.
        np.multiply(gathered, gathered, out=gathered)
        if data is not None:
            gathered *= data ** 2
        sums.append(np.add.reduceat(gathered[..., squares_from:], starts, axis=0))
    return sums


def _row_sums(
    matrix: CSRMatrix, model: np.ndarray, dots: bool, squares_from: Optional[int]
) -> List[np.ndarray]:
    """:func:`_segment_sums` over every row (an empty row sums to 0),
    in row blocks that bound the per-entry temporaries."""
    width = 1 if model.ndim == 1 else model.shape[1]
    widths = [width] if dots else []
    if squares_from is not None:
        widths.append(width - squares_from)
    outs = []
    for w in widths:
        OP_COUNTERS.add_alloc(matrix.n_rows * w)  # a statistics buffer
        outs.append(np.zeros((matrix.n_rows, w)[:model.ndim], dtype=np.float64))
    data = matrix.data
    # Per-entry temporaries held at once: the gathered rows, and their
    # products with the values while the squares still need the rows.
    held = width * (2 if dots and squares_from is not None and data is not None else 1)
    rows, starts = matrix.row_segments()
    indptr = matrix.indptr
    # Row blocks of about ``per_block`` entries: a block ends at the first
    # row starting past its quota, so it overshoots by less than one row.
    per_block = max(BLOCK_ELEMENTS // held, 1)
    bounds = [0, matrix.n_rows]
    if matrix.nnz > per_block:
        cuts = np.searchsorted(indptr, np.arange(per_block, matrix.nnz, per_block))
        bounds = np.unique(np.concatenate((bounds, cuts)))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a, b = np.searchsorted(rows, (lo, hi))
        if a < b:
            first, last = indptr[lo], indptr[hi]
            for w in widths:  # per-entry products, one set per sum
                OP_COUNTERS.add_alloc(int(last - first) * w)
            sums = _segment_sums(
                np.take(model, matrix.indices[first:last], axis=0),
                None if data is None else data[first:last],
                starts[a:b] - first, dots, squares_from,
            )
            for out, block in zip(outs, sums):
                out[rows[a:b]] = block
    return outs


def row_dots(matrix: CSRMatrix, model: np.ndarray, squares_from: Optional[int] = None):
    """Return ``X @ W``: ``(n_rows,)`` for a 1-D model, ``(n_rows, w)`` for
    an ``(n_cols, w)`` one.

    In ColumnSGD each worker calls this on its column shard against its
    model partition, yielding the *partial statistics* that the master
    sums (Section III-A, Step 1).

    With ``squares_from = f`` (a 2-D model) it returns the pair
    ``(X @ W, row_dots_squared(X, W[:, f:]))`` from one gather of each
    entry's parameter row instead of two — FM's statistics (equation 10).
    """
    model, width = _check_operand(matrix.n_cols, model, "model shape")
    OP_COUNTERS.add_flops(3 * matrix.nnz * width)  # gather + multiply + row-sum
    if squares_from is None:
        return _row_sums(matrix, model, True, None)[0]
    if model.ndim != 2 or not 0 <= squares_from < width:
        raise ValueError(
            "squares_from={} needs a 2-D model with more columns, got shape {}".format(
                squares_from, model.shape))
    # as row_dots_squared counts the squared columns
    OP_COUNTERS.add_flops(matrix.nnz * (1 + 3 * (width - squares_from)))
    return tuple(_row_sums(matrix, model, True, squares_from))


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
    return _row_sums(matrix, model, False, 0)[0]


def _column_sums(
    matrix: CSRMatrix, coefficients: np.ndarray, width: int, squared: bool,
    linear: Optional[np.ndarray] = None,
) -> RowGradient:
    """``X^T C`` (or over squared data) on the touched columns, any width."""
    cols, inverse = matrix.touched_columns()
    shape = (matrix.n_cols,) + coefficients.shape[1:]
    if not matrix.nnz:  # np.bincount of nothing is an int array
        return RowGradient(cols, np.zeros((0,) + shape[1:], dtype=np.float64), shape)
    OP_COUNTERS.add_alloc(matrix.nnz * width)  # per-entry products
    OP_COUNTERS.add_alloc(cols.size * width)  # the compact gradient block
    data = matrix.data
    if data is None and linear is not None:  # x^2 == x: the caller holds the sums
        return RowGradient(cols, linear, shape)
    if data is not None and squared:
        data = data ** 2
    if coefficients.ndim == 1:
        per_entry = np.repeat(coefficients, matrix.row_nnz())
        if data is not None:
            per_entry *= data
        return RowGradient(
            cols, np.bincount(inverse, weights=per_entry, minlength=cols.size), shape
        )
    # width-major, so each width's entries are contiguous bincount weights
    per_entry = np.repeat(np.ascontiguousarray(coefficients.T), matrix.row_nnz(), axis=1)
    if data is not None:
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


def accumulate_rows_squared(
    matrix: CSRMatrix, coefficients: np.ndarray, linear: Optional[np.ndarray] = None
) -> RowGradient:
    """Return ``(X**2)^T C`` — like :func:`accumulate_rows` with squared data.

    FM's factor gradient (equation 13) contains a ``v_{if} x_i^2`` term;
    this kernel provides the ``x^2``-weighted accumulation.  A caller
    that already holds ``accumulate_rows(matrix, coefficients).values``
    passes it as ``linear``: on a pattern matrix ``x^2 == x`` and those
    are the result, returned without another pass (and counted as the
    pass they replace).
    """
    coefficients, width = _check_operand(matrix.n_rows, coefficients, "coefficients shape")
    # x^2 once per entry; expand + multiply + scatter-add per width
    OP_COUNTERS.add_flops(matrix.nnz * (1 + 3 * width))
    return _column_sums(matrix, coefficients, width, squared=True, linear=linear)
