"""Out-of-core shuffle writer: streaming row→column transformation.

:class:`ShuffleWriter` turns labelled sparse rows into the K shard files
plus the label sidecar, never holding more than one block (and its K
projections) in memory.  That is the paper's Fig 5 / Algorithm 4
pipeline run as a disk shuffle, and it ships block-sized objects: rows
collect in one *open block*, a full block is cut K ways in a single
pass (:meth:`~repro.partition.column.ColumnAssignment.split`), and each
piece is codec-encoded and appended to its worker's shard: as a format
v2 *pattern record* (no value section) when every value it stores is
1.0 — decided from the data, per piece — else as a valued record, its
kind and ``zlib.crc32`` noted in the footer row
(:mod:`repro.store.format`).

Rows arrive through two entries that feed the same open block:

* :meth:`ShuffleWriter.add_rows` — the block-fed entry: a run of rows as
  a validated :class:`~repro.linalg.CSRMatrix`.  The open block takes
  array *views* of it, so nothing is copied or inspected per row and
  what the matrix stores (explicit zeros included) is what the shards
  hold — the same entries the in-memory dispatcher ships.
* :meth:`ShuffleWriter.add_row` — the entry for *untrusted* rows (a
  text file's): each row is sanitised through
  :class:`~repro.linalg.SparseVector` (range-checked, sorted, duplicate
  ids rejected, zeros dropped) before it joins the open block.

Memory is bounded by ``memory_budget_bytes``.  One cut rule
(:meth:`ShuffleWriter._full`) closes the open block at ``block_size``
rows, or early once its rows' :func:`~repro.storage.serialization.
sparse_row_bytes` — the byte model the simulator charges — reach a
third of the budget.  An early flush produces a shorter block — still a
valid store, but a *different block layout* than the in-memory
dispatcher, so runs that must stay bit-identical with the simulator
should grant a budget of at least ``3 x`` the largest block's row bytes.

:class:`MemoryMeter` is the tracked-bytes instrument: every sanitised
row the writer owns, every assembled block, all K projections of it and
each in-flight record are charged and released (views of the caller's
matrix are not the writer's memory and are not charged), and
``meter.peak`` is what the out-of-core acceptance test asserts against
the budget.  A flush holds block + K pieces + one record, each at most
the block's row bytes while K stays under ~16, hence the ``3 x`` rule.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import IO, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import DataError
from repro.linalg import CSRMatrix, SparseVector
from repro.partition.column import make_assignment
from repro.store.format import (
    HEADER_BYTES,
    KIND_SHARD,
    KIND_SIDECAR,
    RECORD_PATTERN,
    RECORD_VALUED,
    SHARD_FOOTER_FIELDS,
    SIDECAR_FILENAME,
    SIDECAR_FOOTER_FIELDS,
    StoreHeader,
    pattern_record_bytes,
    shard_filename,
    shard_record_bytes,
    sidecar_record_bytes,
)
from repro.storage.serialization import (
    CSRBlockPayload,
    DenseVectorPayload,
    IntVectorPayload,
    csr_matrix_bytes,
    encode_payload,
    sparse_row_bytes,
)
from repro.utils.validation import check_non_negative, check_positive

#: ``sparse_row_bytes`` is affine in nnz; the block-fed cut needs it on
#: a whole run of rows at once.
_ROW_BYTES = sparse_row_bytes(0)
_NNZ_BYTES = sparse_row_bytes(1) - _ROW_BYTES


class MemoryMeter:
    """Tracked buffer bytes: charge/release with a running peak.

    Tracks *model* bytes (the serialization size functions), the same
    currency :meth:`~repro.sim.cluster.SimulatedCluster.charge_memory`
    uses — so "peak under budget" means the same thing out-of-core as
    it does in the simulator's Table-I memory shape.
    """

    __slots__ = ("current", "peak")

    def __init__(self):
        self.current = 0
        self.peak = 0

    def charge(self, n_bytes: int) -> None:
        check_non_negative(n_bytes, "n_bytes")
        self.current += int(n_bytes)
        if self.current > self.peak:
            self.peak = self.current

    def release(self, n_bytes: int) -> None:
        check_non_negative(n_bytes, "n_bytes")
        if n_bytes > self.current:
            raise DataError(
                "releasing {} byte(s) but only {} charged".format(
                    n_bytes, self.current
                )
            )
        self.current -= int(n_bytes)


class ShuffleWriter:
    """Stream rows into a column-shard store, one block at a time."""

    def __init__(
        self,
        store_dir: Union[str, Path],
        n_features: int,
        n_workers: int,
        scheme: str = "round_robin",
        block_size: int = 2048,
        memory_budget_bytes: int = 0,
        name: str = "dataset",
    ):
        check_positive(n_features, "n_features")
        check_positive(n_workers, "n_workers")
        check_positive(block_size, "block_size")
        check_non_negative(memory_budget_bytes, "memory_budget_bytes")
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.n_features = int(n_features)
        self.n_workers = int(n_workers)
        self.scheme = scheme
        self.block_size = int(block_size)
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.name = name
        self.meter = MemoryMeter()
        self.assignment = make_assignment(scheme, self.n_features, self.n_workers)

        self._shard_handles: List[IO[bytes]] = []
        self._shard_footers: List[List[int]] = [[] for _ in range(self.n_workers)]
        self._shard_offsets = [HEADER_BYTES] * self.n_workers
        for w in range(self.n_workers):
            handle = open(self._tmp_path(shard_filename(w)), "wb")
            handle.write(b"\x00" * HEADER_BYTES)
            self._shard_handles.append(handle)
        self._sidecar_handle: IO[bytes] = open(self._tmp_path(SIDECAR_FILENAME), "wb")
        self._sidecar_handle.write(b"\x00" * HEADER_BYTES)
        self._sidecar_footer: List[int] = []
        self._sidecar_offset = HEADER_BYTES

        # the open block: (labels, row nnz, indices, data) runs of rows in
        # arrival order, whichever entry they came through
        self._segments: List[Tuple[Sequence, Sequence, np.ndarray, np.ndarray]] = []
        self._open_rows = 0
        self._open_bytes = 0  # sparse_row_bytes over the open rows
        # close the block when its rows reach a third of the budget: the
        # flush holds block + K pieces + one record, each bounded by that.
        self._flush_threshold = (
            self.memory_budget_bytes // 3 if self.memory_budget_bytes else 0
        )
        self.n_rows = 0
        self.total_nnz = 0
        self._closed = False

    # ------------------------------------------------------------------
    def _tmp_path(self, filename: str) -> Path:
        return self.store_dir / (filename + ".tmp")

    @property
    def n_blocks(self) -> int:
        """Blocks flushed so far."""
        return len(self._sidecar_footer) // SIDECAR_FOOTER_FIELDS

    def add_row(self, label: float, indices, values) -> None:
        """Add one *untrusted* labelled row, sanitising it first."""
        self._check_open()
        vector = SparseVector(indices, values, self.n_features)
        self.meter.charge(sparse_row_bytes(vector.nnz))  # a copy the writer owns
        self._extend([float(label)], [vector.nnz], vector.indices, vector.values)

    def add_rows(self, labels: np.ndarray, features: CSRMatrix) -> None:
        """Add a run of labelled rows held as validated CSR, block-fed.

        The rows join the open block as views cut at exactly the rows
        the per-row entry would flush after, so the store does not
        depend on which entry (or what chunking) delivered them.
        """
        self._check_open()
        if features.n_cols != self.n_features:
            raise DataError(
                "rows have {} columns; the store has {}".format(
                    features.n_cols, self.n_features
                )
            )
        if np.shape(labels) != (features.n_rows,):
            raise DataError(
                "got labels of shape {} for {} rows".format(
                    np.shape(labels), features.n_rows
                )
            )
        indptr, row_nnz, values = features.indptr, features.row_nnz(), features.values()
        start = 0
        while start < features.n_rows:
            # the rows the open block has room for, cut after the first
            # one that fills it
            room = row_nnz[start:start + self.block_size - self._open_rows]
            full = self._full(
                self._open_rows + np.arange(1, room.size + 1),
                self._open_bytes + np.cumsum(_ROW_BYTES + _NNZ_BYTES * room),
            )
            stop = start + (int(np.argmax(full)) + 1 if full.any() else room.size)
            lo, hi = indptr[start], indptr[stop]
            self._extend(
                labels[start:stop],
                row_nnz[start:stop],
                features.indices[lo:hi],
                values[lo:hi],
            )
            start = stop

    def _check_open(self) -> None:
        if self._closed:
            raise DataError("writer is closed")

    def _full(self, n_rows, n_bytes):
        """The cut rule, on scalars or arrays: is a block of this size full?"""
        full = n_rows >= self.block_size
        if self._flush_threshold:
            full = full | (n_bytes >= self._flush_threshold)
        return full

    def _extend(self, labels, row_nnz, indices: np.ndarray, data: np.ndarray) -> None:
        """Append a run of rows to the open block; flush it when full."""
        self._segments.append((labels, row_nnz, indices, data))
        self._open_rows += len(row_nnz)
        self._open_bytes += len(row_nnz) * _ROW_BYTES + indices.size * _NNZ_BYTES
        self.n_rows += len(row_nnz)
        self.total_nnz += indices.size
        if self._full(self._open_rows, self._open_bytes):
            self._flush_block()

    def _flush_block(self) -> None:
        """Assemble the open block and append one record per shard."""
        if not self._segments:
            return
        labels, row_nnz, indices, data = zip(*self._segments)
        indptr = np.zeros(self._open_rows + 1, dtype=np.int64)
        np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
        block = CSRMatrix(
            indptr, np.concatenate(indices), np.concatenate(data), self.n_features
        )
        labels = np.concatenate(labels, dtype=np.float64)
        # all the meter holds between flushes is add_row's sanitised rows;
        # the block owns copies now, so they go before the K-way split.
        buffered = self.meter.current
        block_bytes = csr_matrix_bytes(block.n_rows, block.nnz, with_labels=True)
        self.meter.charge(block_bytes)
        self.meter.release(buffered)
        self._segments = []
        self._open_rows = 0
        self._open_bytes = 0

        record = encode_payload(DenseVectorPayload(labels, precision="fp64"))
        if len(record) != sidecar_record_bytes(block.n_rows):
            raise DataError("sidecar record does not match the byte model")
        self._sidecar_handle.write(record)
        self._sidecar_footer.extend(
            (self._sidecar_offset, len(record), block.n_rows, zlib.crc32(record))
        )
        self._sidecar_offset += len(record)

        shards = self.assignment.split(block)
        shard_bytes = sum(shard_record_bytes(s.n_rows, s.nnz) for s in shards)
        self.meter.charge(shard_bytes)  # the one-pass split holds all K at once
        for dest, shard in enumerate(shards):
            # a piece whose values are all 1.0 is written without them
            data = shard.pattern_view().data
            kind, model = (
                (RECORD_PATTERN, pattern_record_bytes) if data is None
                else (RECORD_VALUED, shard_record_bytes)
            )
            encoded = encode_payload(
                CSRBlockPayload(indptr=shard.indptr, indices=shard.indices, data=data)
            )
            if len(encoded) != model(shard.n_rows, shard.nnz):
                raise DataError("shard record does not match the byte model")
            self.meter.charge(len(encoded))
            self._shard_handles[dest].write(encoded)
            self._shard_footers[dest].extend((
                self._shard_offsets[dest], len(encoded), shard.n_rows, shard.nnz,
                kind, zlib.crc32(encoded),
            ))
            self._shard_offsets[dest] += len(encoded)
            self.meter.release(len(encoded))
        self.meter.release(shard_bytes + block_bytes)

    # ------------------------------------------------------------------
    def _finalize_file(
        self,
        handle: IO[bytes],
        filename: str,
        kind: int,
        worker_id: int,
        footer: List[int],
        data_end: int,
    ) -> None:
        """Append the footer, rewrite the real header, publish atomically."""
        encoded_footer = encode_payload(
            IntVectorPayload(np.array(footer, dtype=np.int64))
        )
        handle.write(encoded_footer)
        fields = SHARD_FOOTER_FIELDS if kind == KIND_SHARD else SIDECAR_FOOTER_FIELDS
        header = StoreHeader(
            kind=kind,
            worker_id=worker_id,
            n_blocks=len(footer) // fields,
            footer_offset=data_end,
            footer_length=len(encoded_footer),
            data_bytes=data_end - HEADER_BYTES,
        )
        handle.seek(0)
        handle.write(header.pack())
        handle.close()
        os.replace(self._tmp_path(filename), self.store_dir / filename)

    def close(self) -> None:
        """Flush the tail block and publish every file atomically.

        A failure on the way (a full disk, a refused rename) aborts the
        writer before the error propagates.
        """
        if self._closed:
            return
        try:
            self._flush_block()
            for w, handle in enumerate(self._shard_handles):
                self._finalize_file(
                    handle,
                    shard_filename(w),
                    KIND_SHARD,
                    w,
                    self._shard_footers[w],
                    self._shard_offsets[w],
                )
            self._finalize_file(
                self._sidecar_handle,
                SIDECAR_FILENAME,
                KIND_SIDECAR,
                0,
                self._sidecar_footer,
                self._sidecar_offset,
            )
        except BaseException:
            self.abort()
            raise
        self._closed = True

    def abort(self) -> None:
        """Give up the shuffle: close every handle, delete the temporaries.

        Files already published stay; without a manifest they are not a
        store (:meth:`ColumnShardStore.exists` is false) and the next
        shuffle into the directory overwrites them.
        """
        self._closed = True
        for handle in self._shard_handles + [self._sidecar_handle]:
            handle.close()
            Path(handle.name).unlink(missing_ok=True)  # its *.tmp, unless renamed

    def __enter__(self) -> "ShuffleWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()
