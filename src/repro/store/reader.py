"""mmap-backed shard readers and the lazy shard-backed workset store.

Reads are zero-copy at the I/O boundary: a shard file is mapped once
(``mmap.ACCESS_READ``) and every record is a :class:`memoryview` slice
of the mapping, decoded straight off the page cache with
``np.frombuffer`` views — no ``read()`` into intermediate buffers, no
densification (lint rule R019 enforces both for this package).  The
only copies are the codec's documented index widenings (i4 on disk →
int64 in-memory CSR), paid once per cache miss.

:class:`ShardWorksetStore` is the out-of-core drop-in for
:class:`~repro.partition.workset.WorksetStore`: it answers every
metadata query (block sizes, nnz, stored bytes) from the footer tables
without touching record data, opens the mmap lazily on the first
workset fetch, and keeps decoded worksets in a budgeted
:class:`~repro.store.cache.LRUBlockCache`.  Laziness is the
local-backend integration contract — the driver process builds these
stores without mapping a single data byte, so forked/spawned workers
each open their *own* shard view instead of inheriting a parent copy.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.errors import DataError, PartitionError
from repro.linalg import CSRMatrix
from repro.partition.indexing import rows_of_draws
from repro.partition.workset import Workset, WorksetStore
from repro.store.cache import LRUBlockCache, STORE_LEDGER, StoreLedger
from repro.store.format import (
    HEADER_BYTES,
    KIND_SHARD,
    KIND_SIDECAR,
    StoreHeader,
    check_sizes,
)
from repro.storage.serialization import (
    CSRBlockPayload,
    DenseVectorPayload,
    decode_payload,
    workset_bytes,
)


class ShardIndex:
    """Parsed header + footer table of one store file (no data reads).

    Loading an index touches only the 64-byte header and the footer —
    a few hundred bytes — so the master can hold every shard's metadata
    without paging any record data.  The table is an int64 array of
    shape ``(n_blocks, fields)`` in footer row order (block ids dense
    from 0).
    """

    __slots__ = ("path", "header", "table")

    def __init__(self, path: Path, header: StoreHeader, table: np.ndarray):
        self.path = path
        self.header = header
        self.table = table

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardIndex":
        path = Path(path)
        with open(path, "rb") as handle:
            header = StoreHeader.unpack(handle.read(HEADER_BYTES))
            check_sizes(header, path.stat().st_size)
            handle.seek(header.footer_offset)
            footer = decode_payload(handle.read(header.footer_length))
        table = footer.values.reshape(header.n_blocks, header.footer_fields)
        return cls(path, header, table)

    @property
    def n_blocks(self) -> int:
        return self.header.n_blocks

    def offset(self, block_id: int) -> int:
        return int(self.table[block_id, 0])

    def length(self, block_id: int) -> int:
        return int(self.table[block_id, 1])

    def n_rows(self, block_id: int) -> int:
        return int(self.table[block_id, 2])

    def nnz(self, block_id: int) -> int:
        """Stored non-zeros of one record (shard files only)."""
        if self.header.kind != KIND_SHARD:
            raise DataError("sidecar footers carry no nnz column")
        return int(self.table[block_id, 3])


class ShardReader:
    """One mmap'ed store file with zero-copy record access."""

    def __init__(self, index: ShardIndex):
        self.index = index
        self._handle = open(index.path, "rb")
        self._mm = mmap.mmap(self._handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._view = memoryview(self._mm)

    @classmethod
    def open(cls, path: Union[str, Path]) -> "ShardReader":
        return cls(ShardIndex.load(path))

    def record(self, block_id: int) -> memoryview:
        """Zero-copy view of one record's bytes."""
        if not 0 <= block_id < self.index.n_blocks:
            raise DataError(
                "block {} out of range [0, {})".format(block_id, self.index.n_blocks)
            )
        start = self.index.offset(block_id)
        return self._view[start:start + self.index.length(block_id)]

    def csr_block(self, block_id: int) -> CSRBlockPayload:
        """Decode one shard record (shard files only)."""
        payload = decode_payload(self.record(block_id))
        if not isinstance(payload, CSRBlockPayload):
            raise DataError(
                "record {} is not a CSR block (sidecar file?)".format(block_id)
            )
        return payload

    def labels(self, block_id: int) -> np.ndarray:
        """Decode one sidecar record (sidecar files only)."""
        payload = decode_payload(self.record(block_id))
        if not isinstance(payload, DenseVectorPayload):
            raise DataError(
                "record {} is not a label vector (shard file?)".format(block_id)
            )
        return payload.values

    def close(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ShardWorksetStore(WorksetStore):
    """A :class:`WorksetStore` whose worksets live in a shard file.

    Construction takes only paths + footer indexes (cheap, picklable);
    the mmap opens on the first :meth:`get`.  Decoded worksets are
    cached under an LRU byte budget; every miss charges the fetched
    record bytes (shard + sidecar) to the cache counters and the
    process-wide :data:`~repro.store.cache.STORE_LEDGER`.
    """

    def __init__(
        self,
        worker_id: int,
        local_dim: int,
        shard_index: ShardIndex,
        sidecar_index: ShardIndex,
        cache_budget_bytes: int = 0,
        ledger: Optional[StoreLedger] = None,
    ):
        super().__init__(worker_id, local_dim)
        if shard_index.header.kind != KIND_SHARD:
            raise DataError("shard_index does not describe a shard file")
        if sidecar_index.header.kind != KIND_SIDECAR:
            raise DataError("sidecar_index does not describe a sidecar file")
        if shard_index.n_blocks != sidecar_index.n_blocks:
            raise DataError(
                "shard has {} block(s) but sidecar has {}".format(
                    shard_index.n_blocks, sidecar_index.n_blocks
                )
            )
        self._shard_index = shard_index
        self._sidecar_index = sidecar_index
        self._cache_budget_bytes = int(cache_budget_bytes)
        self._cache = LRUBlockCache(self._cache_budget_bytes)
        self._ledger = ledger if ledger is not None else STORE_LEDGER
        self._reader: Optional[ShardReader] = None
        self._sidecar_reader: Optional[ShardReader] = None
        sizes = shard_index.table[:, 2]
        #: (block ids, rows per block, first row per block) from the footer
        self._layout = (np.arange(sizes.size), sizes, np.cumsum(sizes) - sizes)

    # ------------------------------------------------------------------
    # the out-of-core fetch path
    # ------------------------------------------------------------------
    def _open_readers(self) -> None:
        if self._reader is None:
            self._reader = ShardReader(self._shard_index)
        if self._sidecar_reader is None:
            self._sidecar_reader = ShardReader(self._sidecar_index)

    def get(self, block_id: int) -> Workset:
        if not 0 <= block_id < self._shard_index.n_blocks:
            raise PartitionError(
                "worker {} has no workset for block {}".format(
                    self.worker_id, block_id
                )
            )
        cached = self._cache.get(block_id)
        if cached is not None:
            return cached
        self._open_readers()
        payload = self._reader.csr_block(block_id)
        labels = self._sidecar_reader.labels(block_id)
        workset = Workset(
            block_id,
            CSRMatrix(
                payload.indptr, payload.indices, payload.data, self.local_dim
            ),
            labels,
        )
        fetched = self._shard_index.length(block_id) + self._sidecar_index.length(
            block_id
        )
        self._cache.counters.bytes_read += fetched
        self._ledger.charge_read(self.worker_id, fetched)
        self._cache.put(block_id, workset, weight=workset.serialized_bytes())
        return workset

    def _seal(self):
        raise PartitionError(
            "a shard-backed store keeps no resident shard; fetch blocks with get()"
        )

    def _gather(self, draws: np.ndarray):
        """Block by block, since blocks come and go under the LRU.

        Draws are grouped by block so each touched block is fetched once
        and contributes one ``take_rows``; the pieces are stacked and a
        final gather restores draw order.
        """
        # every draw is checked against the footers before any block is read
        rows_of_draws(draws, *self._layout)
        block_ids, offsets = draws[:, 0], draws[:, 1]
        order = np.argsort(block_ids, kind="stable")
        grouped = block_ids[order]
        bounds = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
        parts = []
        labels = []
        for start, end in zip([0, *bounds], [*bounds, order.size]):
            workset = self.get(int(grouped[start]))
            offs = offsets[order[start:end]]
            parts.append(workset.features.take_rows(offs))
            labels.append(workset.labels[offs])
        stacked = CSRMatrix.vstack(parts)
        inverse = np.empty(order.size, dtype=np.int64)
        inverse[order] = np.arange(order.size)
        return stacked.take_rows(inverse), np.concatenate(labels)[inverse]

    # ------------------------------------------------------------------
    # metadata answered from footers, no data I/O
    # ------------------------------------------------------------------
    def put(self, workset: Workset) -> None:
        raise PartitionError(
            "shard-backed stores are read-only; write through ShuffleWriter"
        )

    def block_ids(self) -> list:
        return list(range(self._shard_index.n_blocks))

    def block_sizes(self) -> Dict[int, int]:
        return {
            b: self._shard_index.n_rows(b)
            for b in range(self._shard_index.n_blocks)
        }

    @property
    def n_rows(self) -> int:
        return int(self._shard_index.table[:, 2].sum())

    @property
    def nnz(self) -> int:
        return int(self._shard_index.table[:, 3].sum())

    def stored_bytes(self) -> int:
        """Byte-model footprint of the full shard, as if resident.

        Matches the in-memory store's answer exactly (``workset_bytes``
        per block), so the driver's Table-I memory shape is unchanged
        by where the shard physically lives.
        """
        return sum(
            workset_bytes(self._shard_index.n_rows(b), self._shard_index.nnz(b))
            for b in range(self._shard_index.n_blocks)
        )

    def cache_stats(self) -> Dict[str, int]:
        stats = self._cache.counters.as_dict()
        stats["resident_bytes"] = self._cache.resident_bytes
        return stats

    def clear(self) -> None:
        """Drop the cache and close the file views."""
        self._cache.clear()
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sidecar_reader is not None:
            self._sidecar_reader.close()
            self._sidecar_reader = None

    # ------------------------------------------------------------------
    # spawn/fork safety: file views never cross process boundaries
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_reader"] = None
        state["_sidecar_reader"] = None
        state["_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache = LRUBlockCache(self._cache_budget_bytes)
