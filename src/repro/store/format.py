"""The column-shard file format v2 (header + records + footer).

One shard file holds one worker's column projection of every block, one
:class:`~repro.storage.serialization.CSRBlockPayload` record per block.
A shared *sidecar* file holds the per-block label vectors (one
:class:`~repro.storage.serialization.DenseVectorPayload` record per
block) so labels are written once, not K times.

Layout of every store file::

    [ 64-byte store header ]          offset 0
    [ record 0 ][ record 1 ] ...      codec payloads, block ids dense from 0
    [ footer ]                        one IntVectorPayload of per-record rows

A shard record is one of two kinds, decided by the writer from the data:

* a *pattern record* (:data:`RECORD_PATTERN`) for a piece whose stored
  values are all 1.0 — one-hot data, the paper's workloads: the codec's
  pattern flag and no value section, 4 bytes per entry
  (:func:`pattern_record_bytes`);
* a *valued record* (:data:`RECORD_VALUED`) for any other piece: int32
  ids and float64 values, 12 bytes per entry (:func:`shard_record_bytes`).

The footer is a flat int64 table — ``(offset, length, n_rows, nnz,
kind, crc)`` per shard record, ``(offset, length, n_rows, crc)`` per
sidecar record, ``crc`` the ``zlib.crc32`` of the record's bytes —
encoded as a codec payload itself, so *every byte in the file is
covered by the byte model*: the file size equals

    HEADER_BYTES + sum(record lengths) + int_vector_bytes(table size)

by construction, and each record length equals the size function of its
kind.  :func:`check_sizes` asserts that identity when a file is opened,
which is what lets a store-backed load be charged from the footers'
block table alone (:meth:`~repro.store.store.ColumnShardStore.block_table`)
and stay bit-identical with the in-memory dispatcher.  The CRC is
checked when a record is first read (:mod:`repro.store.reader`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import DataError
from repro.storage.serialization import (
    OBJECT_OVERHEAD_BYTES,
    csr_matrix_bytes,
    dense_vector_bytes,
    int_vector_bytes,
)

#: store header size; deliberately equal to the codec's per-object
#: overhead so headers are charged like any other serialized object.
HEADER_BYTES = OBJECT_OVERHEAD_BYTES

#: header layout mirrors the codec's: magic, version, kind code, a
#: uint16 worker id, then four uint64 shape fields, zero-padded.
_STORE_HEADER_STRUCT = struct.Struct("<4sBBH4Q")
STORE_MAGIC = b"RSHD"
STORE_VERSION = 2
_HEADER_PAD = HEADER_BYTES - _STORE_HEADER_STRUCT.size

KIND_SHARD = 1
KIND_SIDECAR = 2

#: int64 fields per footer row; the record's CRC32 is the last of them.
SHARD_FOOTER_FIELDS = 6    # offset, length, n_rows, nnz, kind, crc
SIDECAR_FOOTER_FIELDS = 4  # offset, length, n_rows, crc

#: shard record kinds (the footer's ``kind`` field)
RECORD_VALUED = 0   # ids and float64 values
RECORD_PATTERN = 1  # ids only: every stored value is 1.0

SIDECAR_FILENAME = "labels.col"
MANIFEST_FILENAME = "manifest.json"


def shard_filename(worker_id: int) -> str:
    """File name of one worker's shard inside the store directory."""
    return "shard_{:04d}.col".format(worker_id)


def shard_record_bytes(n_rows: int, nnz: int) -> int:
    """On-disk length of one valued shard record (unlabelled CSR payload)."""
    return csr_matrix_bytes(n_rows, nnz, with_labels=False)


def pattern_record_bytes(n_rows: int, nnz: int) -> int:
    """On-disk length of one pattern shard record (no value section)."""
    return csr_matrix_bytes(n_rows, nnz, with_labels=False, pattern=True)


def sidecar_record_bytes(n_rows: int) -> int:
    """On-disk length of one sidecar record (fp64 label vector)."""
    return dense_vector_bytes(n_rows)


def footer_bytes(n_blocks: int, fields: int) -> int:
    """On-disk length of a footer table (an IntVectorPayload)."""
    return int_vector_bytes(n_blocks * fields)


@dataclass(frozen=True)
class StoreHeader:
    """The fixed 64-byte header at offset 0 of every store file."""

    kind: int
    worker_id: int
    n_blocks: int
    footer_offset: int
    footer_length: int
    data_bytes: int

    def pack(self) -> bytes:
        packed = _STORE_HEADER_STRUCT.pack(
            STORE_MAGIC,
            STORE_VERSION,
            self.kind,
            self.worker_id,
            self.n_blocks,
            self.footer_offset,
            self.footer_length,
            self.data_bytes,
        )
        return packed + b"\x00" * _HEADER_PAD

    @classmethod
    def unpack(cls, buffer: bytes) -> "StoreHeader":
        if len(buffer) < HEADER_BYTES:
            raise DataError(
                "truncated store header: {} byte(s)".format(len(buffer))
            )
        magic, version, kind, worker_id, a, b, c, d = (
            _STORE_HEADER_STRUCT.unpack_from(buffer, 0)
        )
        if magic != STORE_MAGIC:
            raise DataError("bad store magic {!r}".format(magic))
        if version != STORE_VERSION:
            raise DataError(
                "store file format version {}; this reader reads version {}".format(
                    version, STORE_VERSION
                )
            )
        if kind not in (KIND_SHARD, KIND_SIDECAR):
            raise DataError("unknown store file kind {}".format(kind))
        return cls(
            kind=kind,
            worker_id=worker_id,
            n_blocks=a,
            footer_offset=b,
            footer_length=c,
            data_bytes=d,
        )

    @property
    def footer_fields(self) -> int:
        """int64 fields per footer row for this file kind."""
        return SHARD_FOOTER_FIELDS if self.kind == KIND_SHARD else SIDECAR_FOOTER_FIELDS

    def expected_file_bytes(self) -> int:
        """Total file size implied by the byte model."""
        return HEADER_BYTES + self.data_bytes + self.footer_length


def check_sizes(header: StoreHeader, file_size: int) -> None:
    """Assert the on-disk layout equals the byte model.

    Raises :class:`~repro.errors.DataError` when the file size or the
    footer length disagree with the size functions — a truncated write
    or a foreign file, either way unreadable.
    """
    if header.footer_length != footer_bytes(header.n_blocks, header.footer_fields):
        raise DataError(
            "footer length {} does not match model {} for {} block(s)".format(
                header.footer_length,
                footer_bytes(header.n_blocks, header.footer_fields),
                header.n_blocks,
            )
        )
    if file_size != header.expected_file_bytes():
        raise DataError(
            "store file is {} byte(s) but the byte model says {}".format(
                file_size, header.expected_file_bytes()
            )
        )
