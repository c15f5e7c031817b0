"""Worksets: the unit of column-partitioned storage on each worker.

A :class:`Workset` is what one dispatch message carries (Fig 5, Step 3):
the column-projection of one block's rows for one destination worker,
in CSR with local column ids, plus the rows' labels and the originating
block id.  A :class:`WorksetStore` is the per-worker "hash map of
received worksets" (Algorithm 4, line 7) that the two-phase index
samples from.

The store keeps what it receives in **one resident shard** — a single
CSR plus a single label vector, blocks in arrival order — and the
worksets it hands out are read-only row-slice views of it.  While every
workset it receives is a pattern matrix (one-hot: no values array) the
shard is one too, so a batch copies no values; the first valued
workset gives the shard a values array, 1.0 for the rows before it.  A
mini-batch is therefore ``(block_id, offset) -> shard row`` arithmetic
and one :meth:`CSRMatrix.take_rows` over the shard, however many
blocks the draws touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.linalg import CSRMatrix
from repro.linalg.csr import frozen
from repro.partition.indexing import as_draws, rows_of_draws
from repro.storage.serialization import workset_bytes


@dataclass
class Workset:
    """Column shard of one block: local-id CSR + labels + provenance."""

    block_id: int
    features: CSRMatrix  # n_cols == owner's local dim
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim != 1 or self.labels.size != self.features.n_rows:
            raise PartitionError(
                "workset labels ({}) do not match rows ({})".format(
                    self.labels.size, self.features.n_rows
                )
            )

    @property
    def n_rows(self) -> int:
        """Rows in the originating block."""
        return self.features.n_rows


def _resized(array: np.ndarray, size: int, used: int) -> np.ndarray:
    """A new array of ``size`` elements keeping the first ``used``."""
    out = np.empty(size, dtype=array.dtype)
    out[:used] = array[:used]
    return out


class _Resident(NamedTuple):
    """The filled part of a store's arrays, ready to gather from."""

    shard: CSRMatrix       # every stored row, blocks in arrival order
    labels: np.ndarray


class WorksetStore:
    """Per-worker map ``block_id -> Workset`` with batch assembly.

    ``local_dim`` pins the column dimension every stored workset must
    share (the worker's model partition width).  :meth:`put` copies a
    workset's rows to the end of the resident shard; :meth:`get`,
    :attr:`shard` and :attr:`labels` return read-only views of it.
    """

    def __init__(self, worker_id: int, local_dim: int):
        self.worker_id = int(worker_id)
        self.local_dim = int(local_dim)
        self._reset()

    def _reset(self) -> None:
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.empty(0, dtype=np.int64)
        #: ``None`` while every stored workset is a pattern matrix
        self._data: Optional[np.ndarray] = None
        self._labels = np.empty(0, dtype=np.float64)
        self._block_ids: List[int] = []   # arrival order
        self._row_starts: List[int] = [0]  # first shard row per block, then the end
        self._resident = self._layout = None

    def reserve(self, n_rows: int, nnz: int) -> None:
        """Size the resident arrays for ``n_rows`` rows / ``nnz`` entries in all.

        A loader that knows the shard's final size calls this once, and
        its puts then write in place; a put that does not fit regrows
        the arrays to exactly what it needs.
        """
        rows_used, nnz_used = self.n_rows, self.nnz
        if n_rows < rows_used or nnz < nnz_used:
            raise PartitionError(
                "cannot shrink worker {}'s shard below its {} rows / {} entries".format(
                    self.worker_id, rows_used, nnz_used
                )
            )
        self._indptr = _resized(self._indptr, n_rows + 1, rows_used + 1)
        self._indices = _resized(self._indices, nnz, nnz_used)
        if self._data is not None:
            self._data = _resized(self._data, nnz, nnz_used)
        self._labels = _resized(self._labels, n_rows, rows_used)
        self._resident = self._layout = None

    def put(self, workset: Workset) -> None:
        """Append a received workset to the shard; block ids must be unique."""
        features = workset.features
        if features.n_cols != self.local_dim:
            raise PartitionError(
                "workset has {} columns but worker {} owns {}".format(
                    features.n_cols, self.worker_id, self.local_dim
                )
            )
        if workset.block_id in self._block_ids:
            raise PartitionError(
                "duplicate workset for block {} on worker {}".format(
                    workset.block_id, self.worker_id
                )
            )
        row0, lo = self.n_rows, self.nnz
        row1, hi = row0 + features.n_rows, lo + features.nnz
        if row1 > self._labels.size or hi > self._indices.size:
            self.reserve(max(row1, self._labels.size), max(hi, self._indices.size))
        self._indptr[row0 + 1:row1 + 1] = features.indptr[1:] + lo
        self._indices[lo:hi] = features.indices
        if self._data is None and features.data is not None:
            self._data = np.ones(self._indices.size)  # the rows so far held 1.0s
        if self._data is not None:
            self._data[lo:hi] = 1.0 if features.data is None else features.data
        self._labels[row0:row1] = workset.labels
        self._block_ids.append(int(workset.block_id))
        self._row_starts.append(row1)
        self._resident = self._layout = None

    def _blocks(self):
        """``(block_id, first row, end row)`` of every block, in arrival order."""
        return zip(self._block_ids, self._row_starts, self._row_starts[1:])

    def _seal(self) -> _Resident:
        """The resident shard and its labels (built once per fill)."""
        if self._resident is None:
            n_rows, nnz = self.n_rows, self.nnz
            shard = CSRMatrix(
                frozen(self._indptr[:n_rows + 1]),
                frozen(self._indices[:nnz]),
                None if self._data is None else frozen(self._data[:nnz]),
                self.local_dim,
            )
            self._resident = _Resident(shard, frozen(self._labels[:n_rows]))
        return self._resident

    @property
    def shard(self) -> CSRMatrix:
        """Every stored row as one read-only CSR, blocks in arrival order."""
        return self._seal().shard

    @property
    def labels(self) -> np.ndarray:
        """Labels of :attr:`shard`'s rows (read-only)."""
        return self._seal().labels

    def get(self, block_id: int) -> Workset:
        """One block's workset: read-only views of its rows in the shard."""
        try:
            i = self._block_ids.index(block_id)
        except ValueError:
            raise PartitionError(
                "worker {} has no workset for block {}".format(self.worker_id, block_id)
            ) from None
        row0, row1 = self._row_starts[i], self._row_starts[i + 1]
        lo, hi = self._indptr[row0], self._indptr[row1]
        features = CSRMatrix(
            frozen(self._indptr[row0:row1 + 1] - lo),
            frozen(self._indices[lo:hi]),
            None if self._data is None else frozen(self._data[lo:hi]),
            self.local_dim,
        )
        return Workset(block_id, features, frozen(self._labels[row0:row1]))

    def block_ids(self) -> list:
        """Sorted block ids present in the store."""
        return sorted(self._block_ids)

    def block_sizes(self) -> Dict[int, int]:
        """Rows per stored block (two-phase index input)."""
        return {block_id: row1 - row0 for block_id, row0, row1 in self._blocks()}

    @property
    def n_rows(self) -> int:
        """Total logical rows across all worksets."""
        return self._row_starts[-1]

    @property
    def nnz(self) -> int:
        """Total stored non-zeros in this shard."""
        return int(self._indptr[self.n_rows])

    def stored_bytes(self) -> int:
        """Memory footprint of the shard (CSR + labels)."""
        indptr = self._indptr
        return sum(
            workset_bytes(row1 - row0, int(indptr[row1] - indptr[row0]))
            for _, row0, row1 in self._blocks()
        )

    def cache_stats(self) -> Dict[str, int]:
        """Read counters; an in-memory store reads nothing from disk.

        The shard-backed store (:class:`repro.store.ShardWorksetStore`)
        overrides this with real first-touch (``misses``) / table-hit /
        bytes-read tallies — the shared shape lets accounting code treat
        both uniformly.
        """
        return {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "bytes_read": 0,
            "bytes_evicted": 0,
            "resident_bytes": self.stored_bytes(),
        }

    def block_layout(self) -> tuple:
        """The sorted block ids, their rows and their first shard rows,
        kept until the store changes: what
        :func:`~repro.partition.indexing.rows_of_draws` needs."""
        if self._layout is None:
            block_ids = np.asarray(self._block_ids, dtype=np.int64)
            starts = np.asarray(self._row_starts, dtype=np.int64)
            order = np.argsort(block_ids)
            self._layout = block_ids[order], np.diff(starts)[order], starts[:-1][order]
        return self._layout

    def assemble_batch(self, draws, rows=None, labels=None) -> Tuple[CSRMatrix, np.ndarray]:
        """Gather the rows named by ``(block_id, offset)`` draws.

        ``draws`` is the ``(B, 2)`` int64 array
        :meth:`~repro.partition.indexing.TwoPhaseIndex.sample` returns
        (an iterable of pairs is converted).  Returns a local-dimension
        CSR batch plus the labels, in draw order.  Every worker calling
        this with the same draws gets row-aligned shards of the same
        logical mini-batch — the point of the two-phase index.  A draw
        outside the stored blocks raises :class:`PartitionError`.

        ``rows`` (in :meth:`block_layout`) and ``labels`` are found here
        unless a host found them once for all its stores; then only the
        features are gathered.
        """
        draws = as_draws(draws)
        if not draws.shape[0]:
            return CSRMatrix.empty(0, self.local_dim), np.empty(0, dtype=np.float64)
        if rows is None:
            rows = rows_of_draws(draws, *self.block_layout())
        return self._gather(draws, rows, labels)

    def batch_labels(self, draws: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The labels of a non-empty batch's ``rows``, in draw order."""
        return self._seal().labels[rows]

    def _gather(self, draws: np.ndarray, rows: np.ndarray, labels) -> Tuple[CSRMatrix, np.ndarray]:
        """One gather over the resident shard for a non-empty batch, and
        its labels unless given."""
        if labels is None:
            labels = self.batch_labels(draws, rows)
        return self._seal().shard.take_rows(rows), labels

    def clear(self) -> None:
        """Drop the shard and every workset (worker failure simulation)."""
        self._reset()

    # ------------------------------------------------------------------
    # pickling (spawn/respawn ship stores): the shard once, no views
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        n_rows, nnz = self.n_rows, self.nnz
        state = dict(self.__dict__)
        state.update(
            _indptr=self._indptr[:n_rows + 1],
            _indices=self._indices[:nnz],
            _data=None if self._data is None else self._data[:nnz],
            _labels=self._labels[:n_rows],
            _resident=None,
            _layout=None,
        )
        return state
