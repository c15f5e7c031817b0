"""Compressed Sparse Row matrix built on three numpy arrays.

``indptr`` (n_rows + 1), ``indices`` (nnz, column ids sorted within each
row) and ``data`` (nnz, float64) — or ``data = None``: a *pattern
matrix*, every stored value 1.0 (one-hot data, the paper's workloads),
with no values array at all.  The class supports exactly the
operations the reproduction needs: row slicing/gathering for mini-batch
sampling, column-subset projection for column partitioning, horizontal
stitching for reassembly tests, and the SGD kernels in
:mod:`repro.linalg.ops`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DimensionMismatchError
from repro.linalg.counters import OP_COUNTERS
from repro.linalg.sparse_vector import SparseVector


def frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` (a cache or a handed-out view) read-only; return it."""
    array.setflags(write=False)
    return array


#: Scratch for :meth:`CSRMatrix.touched_columns`, one slot per column of
#: the widest matrix compacted so far.  It carries nothing between calls
#: (a call reads only the slots it has just written), so it is reused
#: instead of allocating a model-sized array per mini-batch.
_SLOTS = np.empty(0, dtype=np.int64)


def _column_slots(n_cols: int) -> np.ndarray:
    global _SLOTS
    if _SLOTS.size < n_cols:
        OP_COUNTERS.add_alloc(n_cols)
        _SLOTS = np.empty(n_cols, dtype=np.int64)
    return _SLOTS


def _cut(data: Optional[np.ndarray], where) -> Optional[np.ndarray]:
    """``data[where]``; a pattern matrix's missing values stay missing."""
    return None if data is None else data[where]


def _check(indptr, indices, data, n_cols: int) -> None:
    """The structural checks every matrix a public method returns passes."""
    if indptr.ndim != 1 or indices.ndim != 1 or (data is not None and data.ndim != 1):
        raise ValueError("indptr, indices, data must be 1-D arrays")
    if indptr.size == 0 or indptr[0] != 0:
        raise ValueError("indptr must start with 0")
    if data is not None and indices.shape != data.shape:
        raise DimensionMismatchError(indices.shape, data.shape, "indices/data length")
    if indptr[-1] != indices.size:
        raise ValueError(
            "indptr[-1]={} does not match nnz={}".format(indptr[-1], indices.size)
        )
    if np.any(indptr[1:] < indptr[:-1]):  # not diff: unsigned ids wrap
        raise ValueError("indptr must be non-decreasing")
    if n_cols < 0:
        raise ValueError("n_cols must be >= 0")
    if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
        raise ValueError(
            "column indices must lie in [0, {}), got [{}, {}]".format(
                n_cols, indices.min(), indices.max()
            )
        )
    OP_COUNTERS.add_flops(indices.size + indptr.size)  # validation scans


class CSRMatrix:
    """CSR matrix with float64 data and int64 indices (:meth:`over` aside).

    Rows keep their column indices sorted; explicit zeros are allowed in
    ``data`` only if the caller constructs the arrays directly (the
    higher-level constructors drop them).  ``data=None`` makes a pattern
    matrix: every stored value is 1.0 and none is stored.  Every row and
    column operation below returns a pattern matrix again (:meth:`vstack`
    only when all of its parts are one).
    """

    __slots__ = (
        "indptr", "indices", "data", "n_rows", "n_cols",
        # derived structure, filled on first use: the matrix is immutable
        "_row_nnz", "_row_segments", "_touched",
    )

    def __init__(self, indptr, indices, data, n_cols: int):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
        _check(indptr, indices, data, n_cols)
        self._adopt(indptr, indices, data, n_cols)

    @classmethod
    def over(cls, indptr, indices, data, n_cols: int) -> "CSRMatrix":
        """A matrix *over* the caller's arrays: validated, nothing copied.

        For buffers this library does not own — a mapped shard record —
        whose index arrays may have any integer dtype and whose ``data``
        (float64, or ``None``) may be read-only or unaligned.  Every check
        of the plain constructor runs; every method works on the result
        and returns int64-indexed matrices as usual.
        """
        if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
            raise ValueError("indptr and indices must be integer arrays")
        if data is not None and data.dtype != np.float64:
            raise ValueError("data must be float64, got {}".format(data.dtype))
        _check(indptr, indices, data, n_cols)
        self = cls.__new__(cls)
        self._adopt(indptr, indices, data, n_cols)
        return self

    def _adopt(self, indptr, indices, data, n_cols: int) -> None:
        """Take the three arrays as they are; the caller has checked them."""
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.n_rows = int(indptr.size - 1)
        self.n_cols = int(n_cols)
        self._row_nnz = None
        self._row_segments = None
        self._touched = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[SparseVector], n_cols: Optional[int] = None) -> "CSRMatrix":
        """Stack sparse vectors as matrix rows.

        All rows must share one dimension; ``n_cols`` overrides it (useful
        for an empty row list).
        """
        if n_cols is None:
            if not rows:
                raise ValueError("n_cols is required for an empty row list")
            n_cols = rows[0].dim
        counts = np.zeros(len(rows) + 1, dtype=np.int64)
        for i, row in enumerate(rows):
            if row.dim != n_cols:
                raise DimensionMismatchError(n_cols, row.dim, "row dimension")
            counts[i + 1] = row.nnz
        indptr = np.cumsum(counts)
        nnz = int(indptr[-1])
        OP_COUNTERS.add_alloc(2 * nnz)
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        for i, row in enumerate(rows):
            indices[indptr[i]:indptr[i + 1]] = row.indices
            data[indptr[i]:indptr[i + 1]] = row.values
        return cls(indptr, indices, data, n_cols)

    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """Build from a dense 2-D array, keeping non-zero entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        OP_COUNTERS.add_flops(dense.size)  # full scan for non-zeros
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(indptr, cols, dense[rows, cols], dense.shape[1])

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CSRMatrix":
        """An all-zero matrix of the given shape."""
        return cls(
            np.zeros(n_rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            n_cols,
        )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Total number of stored entries."""
        return int(self.indices.size)

    def values(self) -> np.ndarray:
        """``data``, or fresh 1.0s for a pattern matrix: for the cold paths
        that need an array (codec, shard writer, densifying, preprocessing)."""
        return np.ones(self.nnz) if self.data is None else self.data

    def pattern_view(self) -> "CSRMatrix":
        """This matrix without ``data`` when every stored value is exactly
        1.0 — a pattern matrix over the same ``indptr`` and ``indices`` —
        else this matrix itself.  One O(nnz) scan, made where values enter
        the column pipeline: the driver's view of its dataset, the
        in-memory dispatch and each mapped block at first touch."""
        if self.data is None or not np.all(self.data == 1.0):
            return self
        view = CSRMatrix.__new__(CSRMatrix)
        view._adopt(self.indptr, self.indices, None, self.n_cols)
        return view

    def row(self, i: int) -> SparseVector:
        """Return row ``i`` as a :class:`SparseVector`."""
        if not 0 <= i < self.n_rows:
            raise IndexError("row index {} out of range [0, {})".format(i, self.n_rows))
        start, stop = self.indptr[i], self.indptr[i + 1]
        values = np.ones(stop - start) if self.data is None else self.data[start:stop]
        return SparseVector(self.indices[start:stop], values, self.n_cols)

    def row_nnz(self) -> np.ndarray:
        """nnz of every row as a read-only int64 array."""
        if self._row_nnz is None:
            self._row_nnz = frozen(np.diff(self.indptr))
        return self._row_nnz

    def row_segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, starts)``: the non-empty rows and where their entries begin.

        What a segmented row reduction (``np.add.reduceat``) needs; empty
        rows have no segment.
        """
        if self._row_segments is None:
            rows = np.flatnonzero(self.row_nnz())
            self._row_segments = (frozen(rows), frozen(self.indptr[rows]))
        return self._row_segments

    def touched_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cols, inverse)``: the distinct columns holding a stored entry
        and, per entry, the position of its column in ``cols``.

        ``cols[inverse] == indices``.  O(nnz) and sort-free: every entry
        writes its own position into its column's slot, whichever write
        lands last owns the column, and the owners in entry order are
        ``cols``; the slots then take each column's position in ``cols``.
        Nothing summed per column or per row depends on that order.
        """
        if self._touched is None:
            slots = _column_slots(self.n_cols)
            entry = np.arange(self.nnz)
            slots[self.indices] = entry
            cols = self.indices[np.flatnonzero(slots[self.indices] == entry)]
            slots[cols] = np.arange(cols.size)
            self._touched = (frozen(cols), frozen(slots[self.indices]))
        return self._touched

    def density(self) -> float:
        """Fraction of stored entries: ``nnz / (n_rows * n_cols)``."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D float64 array."""
        OP_COUNTERS.add_densify(self.n_rows * self.n_cols)
        OP_COUNTERS.add_flops(self.nnz)
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz())
        out[rows, self.indices] = self.values()
        return out

    # ------------------------------------------------------------------
    # row operations
    # ------------------------------------------------------------------
    def take_rows(self, row_ids) -> "CSRMatrix":
        """Gather rows (with repetition allowed) into a new matrix.

        This is the mini-batch sampling primitive: sampling ``B`` rows out
        of a shard is one ``take_rows`` call.  Row ids must be integers;
        a float or boolean array is rejected, never truncated or read as
        0/1 ids.
        """
        row_ids = np.asarray(row_ids)
        if row_ids.dtype.kind not in "iu":
            if row_ids.size:
                raise TypeError(
                    "row ids must be integers, got dtype {}".format(row_ids.dtype)
                )
            row_ids = row_ids.astype(np.int64)  # np.asarray([]) is float64
        if row_ids.size and (row_ids.min() < 0 or row_ids.max() >= self.n_rows):
            raise IndexError(
                "row ids must lie in [0, {}), got [{}, {}]".format(
                    self.n_rows, row_ids.min(), row_ids.max()
                )
            )
        taken = self._gather_rows(row_ids.astype(np.int64, copy=False))
        _check(taken.indptr, taken.indices, taken.data, taken.n_cols)
        return taken

    def _gather_rows(self, row_ids: np.ndarray) -> "CSRMatrix":
        """:meth:`take_rows` without its checks, for callers that made them.

        ``row_ids`` must be int64 and inside ``[0, n_rows)``; this runs no
        check of its own.  The result is built valid — its rows are rows
        of this (validated) matrix — and its arrays are fresh copies,
        aligned, with int64 ``indices`` whatever this matrix's index
        dtype.  :meth:`take_rows` still runs ``_check`` on it at its exit,
        a scan of the new ``indptr`` and ``indices``.  The rows of a
        pattern matrix are a pattern matrix: no values are gathered.
        """
        starts = self.indptr[row_ids]
        lengths = np.subtract(self.indptr[row_ids + 1], starts, dtype=np.int64)
        indptr = np.zeros(row_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        nnz = int(indptr[-1])
        OP_COUNTERS.add_alloc(nnz if self.data is None else 2 * nnz)  # ids (+ values)
        # Source position of every output entry: a ramp over the output,
        # shifted per row by how far that row moved.
        source = np.repeat(starts - indptr[:-1], lengths) + np.arange(nnz)
        taken = CSRMatrix.__new__(CSRMatrix)
        taken._adopt(
            indptr, self.indices[source].astype(np.int64, copy=False),
            _cut(self.data, source), self.n_cols,
        )
        taken._row_nnz = frozen(lengths)
        return taken

    def slice_rows(self, start: int, stop: int) -> "CSRMatrix":
        """Contiguous row slice ``[start, stop)`` without copying per row."""
        if not (0 <= start <= stop <= self.n_rows):
            raise IndexError(
                "bad row slice [{}:{}) for {} rows".format(start, stop, self.n_rows)
            )
        lo, hi = self.indptr[start], self.indptr[stop]
        indptr = self.indptr[start:stop + 1] - lo
        sliced = CSRMatrix(indptr, self.indices[lo:hi], _cut(self.data, slice(lo, hi)), self.n_cols)
        if self._row_nnz is not None:
            sliced._row_nnz = self._row_nnz[start:stop]
        return sliced

    @classmethod
    def vstack(cls, parts: Sequence["CSRMatrix"]) -> "CSRMatrix":
        """Stack matrices vertically; all must share ``n_cols``.

        A stack of pattern matrices is a pattern matrix; a stack that
        mixes them with valued ones holds :meth:`values` of every part.
        """
        if not parts:
            raise ValueError("vstack needs at least one matrix")
        n_cols = parts[0].n_cols
        for part in parts:
            if part.n_cols != n_cols:
                raise DimensionMismatchError(n_cols, part.n_cols, "n_cols")
        indptr_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        offset = 0
        for part in parts:
            indptr_parts.append(part.indptr[1:] + offset)
            offset += part.nnz
        pattern = all(part.data is None for part in parts)
        OP_COUNTERS.add_alloc(offset if pattern else 2 * offset)  # ids (+ values)
        return cls(
            np.concatenate(indptr_parts),
            np.concatenate([p.indices for p in parts]),
            None if pattern else np.concatenate([p.values() for p in parts]),
            n_cols,
        )

    # ------------------------------------------------------------------
    # column operations (the column-partitioning primitives)
    # ------------------------------------------------------------------
    def select_columns(self, global_indices) -> "CSRMatrix":
        """Project onto a column subset, re-indexing to local coordinates.

        ``global_indices`` maps local column -> global column and must be
        sorted ascending and unique.  The result has
        ``n_cols == len(global_indices)`` and the same number of rows;
        entries outside the subset are dropped.  The single-projection
        form; the loaders cut a block K ways with :meth:`split_columns`.
        """
        global_indices = np.asarray(global_indices, dtype=np.int64)
        if global_indices.size and np.any(np.diff(global_indices) <= 0):
            raise ValueError("global_indices must be sorted ascending and unique")
        if global_indices.size == 0:
            return CSRMatrix.empty(self.n_rows, 0)
        OP_COUNTERS.add_flops(2 * self.nnz)  # binary searches + filter
        pos = np.searchsorted(global_indices, self.indices)
        pos_clipped = np.minimum(pos, global_indices.size - 1)
        hit = global_indices[pos_clipped] == self.indices
        # new per-row lengths after filtering
        row_of = np.repeat(np.arange(self.n_rows), self.row_nnz())
        kept_rows = row_of[hit]
        lengths = np.zeros(self.n_rows, dtype=np.int64)
        np.add.at(lengths, kept_rows, 1)
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        return CSRMatrix(indptr, pos_clipped[hit], _cut(self.data, hit), global_indices.size)

    def split_columns(self, owner, local, dims: Sequence[int]) -> List["CSRMatrix"]:
        """Every column projection of the matrix at once, in one O(nnz) pass.

        Stored entry ``e`` goes to piece ``owner[e]`` as column
        ``local[e]``; piece ``k`` has ``dims[k]`` columns and every row
        of the matrix.  The entries are partitioned by owner *stably*,
        so each row keeps its entries in their stored order: when
        ``local`` ascends with the global id inside each piece (a column
        assignment's global -> local map does) the pieces equal
        ``[self.select_columns(columns_k) for k in range(K)]`` array for
        array, explicit zeros and empty rows included.  The pieces are
        views of three shared arrays, together one copy of the matrix.
        """
        owner = np.asarray(owner, dtype=np.int64)
        local = np.asarray(local, dtype=np.int64)
        K = len(dims)
        if owner.shape != self.indices.shape:
            raise DimensionMismatchError(self.indices.shape, owner.shape, "owner length")
        if local.shape != self.indices.shape:
            raise DimensionMismatchError(self.indices.shape, local.shape, "local length")
        if owner.size and (owner.min() < 0 or owner.max() >= K):
            raise ValueError(
                "owners must lie in [0, {}), got [{}, {}]".format(K, owner.min(), owner.max())
            )
        OP_COUNTERS.add_flops(2 * self.nnz)  # partition + row-length count
        # the pieces' ids (+ values)
        OP_COUNTERS.add_alloc(self.nnz if self.data is None else 2 * self.nnz)
        # owners fit a narrow unsigned type, which numpy radix-sorts
        order = np.argsort(owner.astype(np.min_scalar_type(max(K - 1, 0))), kind="stable")
        row_of = np.repeat(np.arange(self.n_rows), self.row_nnz())
        lengths = np.bincount(owner * self.n_rows + row_of, minlength=K * self.n_rows)
        indptr = np.zeros((K, self.n_rows + 1), dtype=np.int64)
        np.cumsum(lengths.reshape(K, self.n_rows), axis=1, out=indptr[:, 1:])
        bounds = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(indptr[:, -1], out=bounds[1:])
        indices, data = local[order], _cut(self.data, order)
        return [
            CSRMatrix(
                indptr[k], indices[bounds[k]:bounds[k + 1]],
                _cut(data, slice(bounds[k], bounds[k + 1])), dims[k],
            )
            for k in range(K)
        ]

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values(), other.values())
        )

    def __hash__(self):
        raise TypeError("CSRMatrix is unhashable")

    def __repr__(self) -> str:
        return "CSRMatrix(shape={}, nnz={}, density={:.4g})".format(
            self.shape, self.nnz, self.density()
        )
