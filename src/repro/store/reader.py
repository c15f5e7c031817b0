"""mmap-backed shard readers and the lazy shard-backed workset store.

A shard file is mapped once (``mmap.ACCESS_READ``) and every record is
read where it lies: ``np.frombuffer`` views of the mapping, int32 index
arrays and (possibly 4-byte-misaligned) float64 values exactly as format
v2 stores them — no ``read()`` into intermediate buffers, no widening,
no densification (lint rule R019).  The page cache is the cache.

:class:`ShardWorksetStore` is the out-of-core drop-in for
:class:`~repro.partition.workset.WorksetStore`: metadata comes from the
footer tables, the mmap opens lazily on the first fetch (so a forked or
spawned worker maps its *own* view; the driver process maps nothing),
a block is validated once per process, on first touch (a pattern record
becomes a pattern matrix there, with no values to scan), and a
mini-batch copies out only the rows it names.

Everything read from a file is input: footers are checked against the
byte model of each record's kind before they are used as offsets,
record bytes against the footers' CRC32 and record headers against the
footers, CSR structure with the checks every :class:`CSRMatrix` gets —
and every way any of it can fail is a :class:`~repro.errors.DataError`.
"""

from __future__ import annotations

import mmap
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import DataError, DimensionMismatchError, PartitionError
from repro.linalg import CSRMatrix
from repro.linalg.counters import OP_COUNTERS
from repro.partition.workset import Workset, WorksetStore
from repro.store.cache import CacheCounters, STORE_LEDGER
from repro.store.format import (
    HEADER_BYTES,
    KIND_SHARD,
    KIND_SIDECAR,
    RECORD_PATTERN,
    RECORD_VALUED,
    StoreHeader,
    check_sizes,
    pattern_record_bytes,
    shard_record_bytes,
    sidecar_record_bytes,
)
from repro.storage.serialization import (
    INDEX_BYTES,
    LABEL_BYTES,
    SPARSE_PAIR_BYTES,
    CSRBlockPayload,
    DenseVectorPayload,
    IntVectorPayload,
    decode_payload,
    workset_bytes,
)

#: bytes a batch copies out of the mappings: per row two ``indptr`` reads
#: and a label (16), per stored entry of a valued block a column id and a
#: value (12), per entry of a pattern block its column id (``INDEX_BYTES``).
ROW_READ_BYTES = 2 * INDEX_BYTES + LABEL_BYTES
ENTRY_READ_BYTES = SPARSE_PAIR_BYTES


def _decode(data, kind: type, what: str, copy: bool = True):
    """``decode_payload`` on file input: however it fails, a DataError."""
    try:
        payload = decode_payload(data, copy)
    except (ValueError, OverflowError) as exc:  # OverflowError: a count past 2**63
        raise DataError("{} does not decode: {}".format(what, exc)) from exc
    if not isinstance(payload, kind):
        raise DataError(
            "{} holds a {}, not a {}".format(what, type(payload).__name__, kind.__name__)
        )
    return payload


def _record_model(kind: int, table: np.ndarray) -> np.ndarray:
    """The size function of each row's record kind over a whole footer
    (every size function is affine)."""
    if kind == KIND_SIDECAR:
        base = sidecar_record_bytes(0)
        return base + table[:, 2] * (sidecar_record_bytes(1) - base)

    def affine(size):
        base = size(0, 0)
        return base + table[:, 2] * (size(1, 0) - base) + table[:, 3] * (size(0, 1) - base)

    pattern = table[:, 4] == RECORD_PATTERN
    return np.where(pattern, affine(pattern_record_bytes), affine(shard_record_bytes))


def _check_table(path: Path, header: StoreHeader, table: np.ndarray) -> None:
    """A footer is checked before it is trusted as offsets.

    Records start right after the header and are contiguous, every
    length is the byte model's for its ``(n_rows, nnz)`` and record kind,
    the lengths add up to ``data_bytes`` — so every record lies inside
    the file and no two overlap — and every kind and CRC field is one a
    writer can write.  O(n_blocks), no record data read.
    """
    offsets, lengths, crcs = table[:, 0], table[:, 1], table[:, -1]
    shard = header.kind == KIND_SHARD
    sizes = table[:, :4] if shard else table[:, :3]  # offset, length, n_rows(, nnz)
    kinds = table[:, 4] if shard else np.zeros(0, dtype=np.int64)
    end = HEADER_BYTES + header.data_bytes  # inside the file: check_sizes ran
    if sizes.size and (sizes.min() < 0 or sizes.max() > end):
        problem = "a field outside [0, {}]".format(end)  # also: no overflow below
    elif not np.isin(kinds, (RECORD_VALUED, RECORD_PATTERN)).all():
        problem = "a record kind that is neither valued nor pattern"
    elif crcs.size and (crcs.min() < 0 or crcs.max() > 0xFFFFFFFF):
        problem = "a CRC32 field outside [0, 2**32)"
    elif not np.array_equal(lengths, _record_model(header.kind, table)):
        problem = "a record length that is not the byte model's"
    elif not np.array_equal(offsets, HEADER_BYTES + np.cumsum(lengths) - lengths):
        problem = "records that are not contiguous from the header"
    elif int(lengths.sum()) != header.data_bytes:
        problem = "record lengths that do not add up to its data_bytes"
    else:
        return
    raise DataError("footer of {} has {}".format(path.name, problem))


class ShardIndex:
    """Parsed header + footer table of one store file (no data reads).

    Loading an index touches only the 64-byte header and the footer —
    a few hundred bytes — so the master can hold every shard's metadata
    without paging any record data.  The table is an int64 array of
    shape ``(n_blocks, fields)`` in footer row order (block ids dense
    from 0), checked against the byte model (:func:`_check_table`).
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
            if header.footer_offset != HEADER_BYTES + header.data_bytes:
                raise DataError(
                    "footer of {} at {}, not after its {} data byte(s)".format(
                        path.name, header.footer_offset, header.data_bytes
                    )
                )
            handle.seek(header.footer_offset)
            footer = handle.read(header.footer_length)
        footer = _decode(footer, IntVectorPayload, "footer of {}".format(path.name))
        if footer.values.size != header.n_blocks * header.footer_fields:
            raise DataError(
                "footer of {} holds {} field(s) for {} block(s)".format(
                    path.name, footer.values.size, header.n_blocks
                )
            )
        table = footer.values.reshape(header.n_blocks, header.footer_fields)
        _check_table(path, header, table)
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

    def pattern(self, block_id: int) -> bool:
        """Whether one record is a pattern record (shard files only)."""
        if self.header.kind != KIND_SHARD:
            raise DataError("sidecar footers carry no kind column")
        return int(self.table[block_id, 4]) == RECORD_PATTERN

    def crc(self, block_id: int) -> int:
        """The ``zlib.crc32`` of one record's bytes."""
        return int(self.table[block_id, -1])


class ShardReader:
    """One mmap'ed store file; records are read as views of the mapping.

    Views keep the mapping alive (``mmap.close()`` under a live
    ``np.frombuffer`` view raises ``BufferError``), so :meth:`close`
    unmaps now if it can and otherwise when the last view dies.
    """

    def __init__(self, index: ShardIndex):
        self.index = index
        with open(index.path, "rb") as handle:  # the mapping outlives the handle
            self._mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        if len(self._mm) != index.header.expected_file_bytes():
            raise DataError(
                "{} is {} byte(s), was {} when its footer was read".format(
                    index.path.name, len(self._mm), index.header.expected_file_bytes()
                )
            )

    def record(self, block_id: int) -> memoryview:
        """Zero-copy view of one record's bytes."""
        if not 0 <= block_id < self.index.n_blocks:
            raise DataError(
                "block {} out of range [0, {})".format(block_id, self.index.n_blocks)
            )
        start = self.index.offset(block_id)
        return memoryview(self._mm)[start:start + self.index.length(block_id)]

    def _views(self, block_id: int, kind: type):
        """One record decoded as views, once its bytes match the footer's CRC."""
        what = "record {} of {}".format(block_id, self.index.path.name)
        record = self.record(block_id)
        if zlib.crc32(record) != self.index.crc(block_id):
            raise DataError("{} does not match its footer's CRC32".format(what))
        return _decode(record, kind, what, copy=False), what

    def csr_block(self, block_id: int) -> CSRBlockPayload:
        """One shard record as int32 / float64 views (shard files only);
        a pattern record's ``data`` is ``None``.

        The record header must say what the footer says, its pattern
        flag included; the CSR structure is not looked at here.
        """
        payload, what = self._views(block_id, CSRBlockPayload)
        found = (payload.n_rows, payload.nnz, payload.data is None)
        expected = (
            self.index.n_rows(block_id), self.index.nnz(block_id),
            self.index.pattern(block_id),
        )
        if found != expected or payload.labels is not None:
            raise DataError(
                "{} is headed (n_rows, nnz, pattern) = {}, labelled: {}; its footer "
                "says {}, unlabelled".format(
                    what, found, payload.labels is not None, expected
                )
            )
        return payload

    def labels(self, block_id: int) -> np.ndarray:
        """One sidecar record's labels as a view (sidecar files only)."""
        payload, what = self._views(block_id, DenseVectorPayload)
        n_rows = self.index.n_rows(block_id)
        if payload.precision != "fp64" or payload.values.size != n_rows:
            raise DataError(
                "{} is headed {} {} label(s); its footer says {} fp64".format(
                    what, payload.values.size, payload.precision, n_rows
                )
            )
        return payload.values

    def close(self) -> None:
        mapping, self._mm = self._mm, None
        try:
            if mapping is not None:
                mapping.close()
        except BufferError:
            pass  # views are alive: the pages go when the last of them does


class ShardWorksetStore(WorksetStore):
    """A :class:`WorksetStore` whose worksets live in a shard file.

    Construction takes only paths + footer indexes (cheap, picklable).
    A workset is a set of views of the mapping — it costs no memory, so
    the tables that keep it never evict.  The first touch of a block
    checks its shard record's CRC32, its record header (the pattern flag
    against the footer's kind) and its CSR structure, copies its
    validated ``indptr`` into the row table, and charges the record
    bytes to the counters and the process-wide
    :data:`~repro.store.cache.STORE_LEDGER`; the first :meth:`get` of a
    block does the same for its label sidecar record and copies its
    labels into the label table.  A batch reads no labels when the host
    hands it the rows and labels, so the stores of a host check the
    sidecar through one of them.  Every batch charges the bytes it
    copies out (``INDEX_BYTES`` per entry of a pattern block,
    ``ENTRY_READ_BYTES`` of a valued one, ``LABEL_BYTES`` per label).

    The **row table** is every block's ``indptr`` laid end to end in
    footer order, ``n_rows + n_blocks`` int32 entries allocated when
    the process maps the files: block ``b``'s ``n_rows(b) + 1`` entries
    start at ``first_row(b) + b``, so shard row ``r`` of block ``b``
    spans ``[table[r + b], table[r + b + 1])`` of that block's arrays.
    Only blocks in the block table are filled, and only after
    ``CSRMatrix.over`` accepted them.  The **label table** holds shard
    row ``r``'s label at ``r``, filled only for the blocks :meth:`get`
    read.
    """

    def __init__(
        self,
        worker_id: int,
        local_dim: int,
        shard_index: ShardIndex,
        sidecar_index: ShardIndex,
    ):
        super().__init__(worker_id, local_dim)
        if shard_index.header.kind != KIND_SHARD:
            raise DataError("shard_index does not describe a shard file")
        if sidecar_index.header.kind != KIND_SIDECAR:
            raise DataError("sidecar_index does not describe a sidecar file")
        sizes = shard_index.table[:, 2]
        if not np.array_equal(sizes, sidecar_index.table[:, 2]):
            raise DataError(
                "shard {} and the sidecar disagree on rows per block "
                "({} vs {} block(s))".format(
                    shard_index.path.name, shard_index.n_blocks, sidecar_index.n_blocks
                )
            )
        self._shard_index = shard_index
        self._sidecar_index = sidecar_index
        self.counters = CacheCounters()
        self._readers: Optional[Tuple[ShardReader, ShardReader]] = None  # shard, sidecar
        #: block id -> validated features, filled on first touch
        self._blocks: Dict[int, CSRMatrix] = {}
        #: block id -> validated workset (features and labels), filled by get()
        self._worksets: Dict[int, Workset] = {}
        #: the row and label tables (class docstring); live and die with the readers
        self._row_table = self._label_table = None
        #: (block ids, rows per block, first row per block) from the footer:
        #: the :meth:`block_layout`
        self._layout = (np.arange(sizes.size), sizes, np.cumsum(sizes) - sizes)

    # ------------------------------------------------------------------
    # the out-of-core fetch path
    # ------------------------------------------------------------------
    def get(self, block_id: int) -> Workset:
        workset = self._worksets.get(block_id)
        if workset is not None:
            self.counters.hits += 1
            return workset
        features = self._features(block_id)
        labels = self._readers[1].labels(block_id)
        self._charge(self._sidecar_index.length(block_id))
        start = self._layout[2][block_id]
        self._label_table[start:start + labels.size] = labels
        workset = self._worksets[block_id] = Workset(block_id, features, labels)
        return workset

    def _features(self, block_id: int) -> CSRMatrix:
        """One block's validated features: a hit of the block table, or
        the first touch that maps and checks them."""
        features = self._blocks.get(block_id)
        if features is None:
            return self._first_touch(block_id)
        self.counters.hits += 1
        return features

    def _first_touch(self, block_id: int) -> CSRMatrix:
        """Map one block's shard record, validate it once, and table it."""
        n_blocks = self._shard_index.n_blocks
        if not 0 <= block_id < n_blocks:
            raise PartitionError(
                "worker {} has no workset for block {}".format(self.worker_id, block_id)
            )
        if self._readers is None:  # the first fetch of this process maps the files
            self._readers = ShardReader(self._shard_index), ShardReader(self._sidecar_index)
            # format v2 stores indptr as int32
            self._row_table = np.empty(self.n_rows + n_blocks, dtype=np.int32)
            self._label_table = np.empty(self.n_rows)
        payload = self._readers[0].csr_block(block_id)
        try:
            features = CSRMatrix.over(
                payload.indptr, payload.indices, payload.data, self.local_dim
            )
        except (ValueError, DimensionMismatchError) as exc:
            raise DataError(
                "block {} of {} is not a CSR matrix of {} column(s): {}".format(
                    block_id, self._shard_index.path.name, self.local_dim, exc
                )
            ) from exc
        slot = self._layout[2][block_id] + block_id
        self._row_table[slot:slot + features.n_rows + 1] = features.indptr
        self._blocks[block_id] = features
        self.counters.misses += 1
        self._charge(self._shard_index.length(block_id), blocks=1)
        return features

    def _charge(self, n_bytes: int, blocks: int = 0) -> None:
        self.counters.bytes_read += n_bytes
        STORE_LEDGER.charge_read(self.worker_id, n_bytes, blocks)

    def _seal(self):
        raise PartitionError(
            "a shard-backed store keeps no resident shard; fetch blocks with get()"
        )

    def batch_labels(self, draws: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Fetch each touched block through :meth:`get`, which tables its
        labels, then read the rows' labels from the table."""
        for block_id in np.unique(draws[:, 0]).tolist():
            self.get(block_id)
        self._charge(LABEL_BYTES * rows.size)
        return self._label_table[rows]

    def _gather(self, draws: np.ndarray, rows: np.ndarray, labels):
        """Size every drawn row in one pass, then read each block's map once.

        Draws are sorted by row, which groups them by block, and each
        touched block is fetched once (so its ``indptr`` is in the row
        table): its workset when the labels are read here too, else its
        features alone.  One whole-batch pass over the table then gives
        every drawn row's start and length, the batch ``indptr`` and the ramp
        of entry positions; per block there is left only the read of its
        ids and values at its slice of the ramp and one piece for the
        ``vstack``.  A final ``take_rows`` restores draw order.  The
        pieces are not checked: the draws were checked against the
        footers and every table entry by ``CSRMatrix.over`` at first
        touch — the ``vstack`` (which widens the int32 ids once) and the
        final ``take_rows`` check the batch as it leaves the store.
        A piece of a pattern block (a pattern record) reads no values;
        when every piece is one, so are the stack and the batch.
        """
        order = np.argsort(rows)
        block_ids = draws[order, 0]
        bounds = [0, *(np.flatnonzero(block_ids[1:] != block_ids[:-1]) + 1), order.size]
        fetch = self._features if labels is not None else lambda b: self.get(b).features
        blocks = [fetch(int(block_id)) for block_id in block_ids[bounds[:-1]]]
        if labels is None:  # what get() tabled
            labels = self._label_table[rows]
            self._charge(LABEL_BYTES * order.size)
        slots = rows[order] + block_ids
        starts = self._row_table[slots]
        lengths = np.subtract(self._row_table[slots + 1], starts, dtype=np.int64)
        indptr = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        nnz = int(indptr[-1])
        # position of every batch entry in its block's arrays: a ramp over
        # the batch, shifted per row by how far that row moved
        ramp = np.repeat(starts - indptr[:-1], lengths)
        ramp += np.arange(nnz)
        parts, valued = [], 0  # valued: entries read with their values
        for features, start, end in zip(blocks, bounds, bounds[1:]):
            lo, hi = indptr[start], indptr[end]
            data = None
            if features.data is not None:
                data = features.data[ramp[lo:hi]]
                valued += int(hi - lo)
            piece = CSRMatrix.__new__(CSRMatrix)
            piece._adopt(
                indptr[start:end + 1] - lo, features.indices[ramp[lo:hi]], data,
                self.local_dim,
            )
            parts.append(piece)
        OP_COUNTERS.add_alloc(nnz + valued)  # the pieces' ids + values
        # the stack and the reorder are the walk's peak: the ramp goes
        # before the one, the pieces before the other
        del ramp
        stacked = CSRMatrix.vstack(parts)
        del parts
        inverse = np.empty(order.size, dtype=np.int64)
        inverse[order] = np.arange(order.size)
        self._charge(
            2 * INDEX_BYTES * order.size + INDEX_BYTES * (nnz - valued)
            + ENTRY_READ_BYTES * valued
        )
        return stacked.take_rows(inverse), labels

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
        return dict(enumerate(self._shard_index.table[:, 2].tolist()))

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
        counts = self._shard_index.table[:, 2:4].tolist()
        return sum(workset_bytes(n_rows, nnz) for n_rows, nnz in counts)

    def cache_stats(self) -> Dict[str, int]:
        """``misses`` are first touches, ``hits`` fetches the tables
        served; mapped views are never evicted and hold no memory."""
        stats = self.counters.as_dict()
        stats["resident_bytes"] = 0
        return stats

    def clear(self) -> None:
        """Drop the block and row tables and let go of the mappings.

        Safe while a caller still holds a workset: its views keep the
        pages mapped until they die.
        """
        self._blocks, self._worksets = {}, {}
        self._row_table = self._label_table = None
        for reader in self._readers or ():
            reader.close()
        self._readers = None

    # ------------------------------------------------------------------
    # spawn/fork safety: mappings and views never cross a pickle
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.update(
            _readers=None, _blocks={}, _worksets={}, _row_table=None, _label_table=None,
            counters=CacheCounters(),
        )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)  # nothing to rebuild: the tables refill lazily
