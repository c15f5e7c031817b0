"""Byte-size model — and real codec — for everything that crosses the wire.

The paper's Fig 7 result (block dispatch beats naive row-by-row dispatch
by 3.2-7.1x) is entirely a serialization story: sending K small objects
per row pays K per-object overheads, while batching rows into CSR blocks
pays one overhead per block and compresses away the per-row headers.  We
model that with a flat per-object overhead (JVM serialization headers,
class descriptors) plus per-payload bytes.

The size functions return integer byte counts.  The codec half of this
module (``encode_payload`` / ``decode_payload``) turns the model into a
real wire format: every encoded payload starts with a 64-byte header —
exactly :data:`OBJECT_OVERHEAD_BYTES` — followed by raw array bytes at
the model's :data:`INDEX_BYTES` / :data:`VALUE_BYTES` widths, so
``len(encode_payload(p))`` equals the corresponding size function *by
construction*.  The multiprocess backend
(:mod:`repro.runtime.local`) ships these bytes through real pipes,
which is how Table-I accounting stays exact for measured traffic too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.validation import check_non_negative

#: Per-serialized-object overhead (headers, class descriptor, refs).
#: Roughly what Java serialization / Kryo pays per object graph.
OBJECT_OVERHEAD_BYTES = 64

#: Bytes per stored index (int32 on the wire, as LIBSVM-scale ids fit).
INDEX_BYTES = 4

#: Bytes per stored value (float64).
VALUE_BYTES = 8

#: Bytes per sparse (index, value) entry.
SPARSE_PAIR_BYTES = INDEX_BYTES + VALUE_BYTES

#: Bytes per label.
LABEL_BYTES = 8

#: Per-record framing of a shuffle record (partition id, lengths) — far
#: cheaper than a full serialized object, which is why MLlib-Repartition
#: beats Naive-ColumnSGD in Fig 7 despite also moving every row.
SHUFFLE_RECORD_OVERHEAD_BYTES = 16


def sparse_row_bytes(nnz: int) -> int:
    """Serialized size of one labelled sparse row as a standalone object."""
    check_non_negative(nnz, "nnz")
    return OBJECT_OVERHEAD_BYTES + LABEL_BYTES + nnz * SPARSE_PAIR_BYTES


def dense_vector_bytes(dim: int) -> int:
    """Serialized size of a dense float64 vector (models, statistics)."""
    check_non_negative(dim, "dim")
    return OBJECT_OVERHEAD_BYTES + dim * VALUE_BYTES


def csr_matrix_bytes(
    n_rows: int, nnz: int, with_labels: bool = False, pattern: bool = False
) -> int:
    """Serialized size of a CSR block: one object, indptr + indices + data.

    ``pattern=True`` sizes a pattern block (every value 1.0): it has no
    data section, so an entry is its index alone.
    """
    check_non_negative(n_rows, "n_rows")
    check_non_negative(nnz, "nnz")
    size = OBJECT_OVERHEAD_BYTES
    size += (n_rows + 1) * INDEX_BYTES  # indptr
    size += nnz * (INDEX_BYTES if pattern else SPARSE_PAIR_BYTES)
    if with_labels:
        size += n_rows * LABEL_BYTES
    return size


def workset_bytes(n_rows: int, nnz: int) -> int:
    """Serialized size of one workset: (block id, labels?, CSR piece).

    Worksets carry labels only on the worker that owns the label column;
    we charge labels on every workset for simplicity — it is a few bytes
    per row and identical across dispatch strategies, so comparisons are
    unaffected.
    """
    return 8 + csr_matrix_bytes(n_rows, nnz, with_labels=True)


def int_vector_bytes(count: int) -> int:
    """Serialized size of an int64 id list (assignments, control frames).

    ``count == 0`` degenerates to the bare per-object overhead — the
    size the recovery layer charges for a HEARTBEAT probe.
    """
    check_non_negative(count, "count")
    return OBJECT_OVERHEAD_BYTES + count * 8


# ======================================================================
# the codec: byte-model-exact wire encoding
# ======================================================================
#: header layout: magic, version, payload-type code, flags, reserved,
#: then four uint64 shape fields (40 bytes), zero-padded to
#: OBJECT_OVERHEAD_BYTES.
_HEADER_STRUCT = struct.Struct("<4sBBH4Q24x")
_HEADER_MAGIC = b"RPRO"
_HEADER_VERSION = 1

_TYPE_DENSE = 1
_TYPE_CSR = 3
_TYPE_INTS = 5

_FLAG_FP32 = 0x01
_FLAG_LABELS = 0x02
_FLAG_PATTERN = 0x04  # a CSR block with no data section: every value 1.0

#: the flag bits each payload type defines; any other bit is damage
_TYPE_FLAGS = {
    _TYPE_DENSE: _FLAG_FP32,
    _TYPE_CSR: _FLAG_LABELS | _FLAG_PATTERN,
    _TYPE_INTS: 0,
}

#: value widths the codec writes, keyed by wire precision.
WIRE_PRECISIONS = ("fp64", "fp32")


@dataclass(frozen=True)
class DenseVectorPayload:
    """A dense float vector (models, statistics, gradients).

    ``precision='fp32'`` writes values as float32 — the honest model of
    the driver's ``wire_precision`` knob: the payload halves *and* a
    decode returns the float32-rounded values.  ColumnSGD's round bodies
    encode their statistics with this on both backends, so the rounding
    happens in one place.
    """

    values: np.ndarray
    precision: str = "fp64"

    def __post_init__(self):
        if self.precision not in WIRE_PRECISIONS:
            raise ValueError(
                "unknown precision {!r}; expected one of {}".format(
                    self.precision, WIRE_PRECISIONS
                )
            )

    @property
    def value_bytes(self) -> int:
        """Bytes per value on the wire."""
        return 4 if self.precision == "fp32" else VALUE_BYTES

    def encoded_bytes(self) -> int:
        """Model size of this payload (what ``len(encode)`` will be)."""
        return OBJECT_OVERHEAD_BYTES + self.values.size * self.value_bytes


@dataclass(frozen=True)
class CSRBlockPayload:
    """One CSR block (indptr, indices, data), optionally with labels.

    ``data=None`` is a *pattern* block, every stored value 1.0 (a
    pattern :class:`~repro.linalg.CSRMatrix`): it is encoded with a
    pattern flag and no data section, and decodes with ``data=None``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: Optional[np.ndarray]
    labels: Optional[np.ndarray] = None

    @property
    def n_rows(self) -> int:
        return int(self.indptr.size) - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def encoded_bytes(self) -> int:
        return csr_matrix_bytes(
            self.n_rows, self.nnz, with_labels=self.labels is not None,
            pattern=self.data is None,
        )


@dataclass(frozen=True)
class WorksetPayload:
    """A shipped workset: (block id, labelled CSR piece)."""

    block_id: int
    block: CSRBlockPayload = field()

    def __post_init__(self):
        # a damaged frame can nest any payload type here
        if not isinstance(self.block, CSRBlockPayload) or self.block.labels is None:
            raise ValueError(
                "worksets always carry a CSR block with labels (see workset_bytes)"
            )

    def encoded_bytes(self) -> int:
        return 8 + self.block.encoded_bytes()  # workset_bytes for a valued block


@dataclass(frozen=True)
class IntVectorPayload:
    """An int64 id list (block assignments, control/heartbeat frames)."""

    values: np.ndarray

    def encoded_bytes(self) -> int:
        return int_vector_bytes(int(self.values.size))


def _header(type_code: int, flags: int, a: int = 0, b: int = 0,
            c: int = 0, d: int = 0) -> bytes:
    return _HEADER_STRUCT.pack(
        _HEADER_MAGIC, _HEADER_VERSION, type_code, flags, a, b, c, d
    )


def encode_payload(payload) -> bytes:
    """Encode a payload dataclass into its exact byte-model length.

    The invariant the codec tests pin down:
    ``len(encode_payload(p)) == p.encoded_bytes()`` for every payload
    type, with ``encoded_bytes`` defined by the size functions above —
    so real pipes move exactly the bytes the simulator charges.
    """
    if isinstance(payload, DenseVectorPayload):
        flags = _FLAG_FP32 if payload.precision == "fp32" else 0
        dtype = "<f4" if payload.precision == "fp32" else "<f8"
        body = np.ascontiguousarray(payload.values.ravel(), dtype=dtype)
        return b"".join((_header(_TYPE_DENSE, flags, payload.values.size), body))
    if isinstance(payload, CSRBlockPayload):
        flags = _FLAG_LABELS if payload.labels is not None else 0
        if payload.data is None:
            flags |= _FLAG_PATTERN
        parts = [
            _header(_TYPE_CSR, flags, payload.n_rows, payload.nnz),
            np.ascontiguousarray(payload.indptr.ravel(), dtype="<i4").tobytes(),
            np.ascontiguousarray(payload.indices.ravel(), dtype="<i4").tobytes(),
        ]
        if payload.data is not None:
            parts.append(np.ascontiguousarray(payload.data.ravel(), dtype="<f8").tobytes())
        if payload.labels is not None:
            parts.append(
                np.ascontiguousarray(payload.labels.ravel(), dtype="<f8").tobytes()
            )
        return b"".join(parts)
    if isinstance(payload, WorksetPayload):
        return (
            struct.pack("<q", int(payload.block_id))
            + encode_payload(payload.block)
        )
    if isinstance(payload, IntVectorPayload):
        body = np.ascontiguousarray(payload.values.ravel(), dtype="<i8").tobytes()
        return _header(_TYPE_INTS, 0, payload.values.size) + body
    raise TypeError("cannot encode payload of type {}".format(type(payload).__name__))


def _body_bytes(type_code: int, flags: int, a: int, b: int) -> int:
    """Body bytes a header's counts promise (0 for an unknown type)."""
    if type_code == _TYPE_DENSE:
        return a * (4 if flags & _FLAG_FP32 else 8)
    if type_code == _TYPE_CSR:
        entry = 4 if flags & _FLAG_PATTERN else 12
        return (a + 1) * 4 + b * entry + (a * 8 if flags & _FLAG_LABELS else 0)
    if type_code == _TYPE_INTS:
        return a * 8
    return 0


def payload_length(data: bytes) -> int:
    """Bytes of the payload ``data`` starts with, as its header promises:
    the prefix :func:`decode_payload` decodes when ``data`` holds more."""
    if len(data) < OBJECT_OVERHEAD_BYTES:
        raise ValueError("truncated payload: {} byte(s)".format(len(data)))
    _, _, type_code, flags, a, b, _c, _d = _HEADER_STRUCT.unpack_from(data, 0)
    return OBJECT_OVERHEAD_BYTES + _body_bytes(type_code, flags, a, b)


def decode_payload(data: bytes, copy: bool = True):
    """Decode bytes produced by :func:`encode_payload`.

    Dense fp32 payloads decode back to float64 values that went through
    float32 rounding — the same semantics the simulated wire applies.
    With ``copy=False`` every array that sits in ``data`` in its decoded
    dtype already is a read-only view of it (possibly unaligned) instead
    of a copy: how a mapped shard record is read.
    """
    if len(data) >= 8 + OBJECT_OVERHEAD_BYTES and data[8:12] == _HEADER_MAGIC:
        (block_id,) = struct.unpack_from("<q", data, 0)
        return WorksetPayload(block_id=block_id, block=decode_payload(data[8:], copy))
    length = payload_length(data)
    magic, version, type_code, flags, a, b, _c, _d = _HEADER_STRUCT.unpack_from(
        data, 0
    )
    if magic != _HEADER_MAGIC:
        raise ValueError("bad payload magic {!r}".format(magic))
    if version != _HEADER_VERSION:
        raise ValueError("unsupported codec version {}".format(version))
    # arrays are read at offsets into ``data``, never out of a sliced
    # copy; the counts are checked before any reaches np.frombuffer,
    # which overflows on a count past 2**63 instead of reporting a short
    # buffer, and a payload is exactly the header and body it promises
    if length != len(data):
        raise ValueError(
            "{} payload: the header promises {} byte(s), {} follow".format(
                "truncated" if length > len(data) else "overlong", length, len(data)
            )
        )
    undefined = flags & ~_TYPE_FLAGS.get(type_code, 0)
    if undefined:
        raise ValueError(
            "payload type {} defines no flag 0x{:04x}".format(type_code, undefined)
        )
    at = OBJECT_OVERHEAD_BYTES
    if type_code == _TYPE_DENSE:
        if flags & _FLAG_FP32:
            values = np.frombuffer(data, "<f4", a, at).astype(np.float64)
            return DenseVectorPayload(values=values, precision="fp32")
        values = np.frombuffer(data, "<f8", a, at).astype(np.float64, copy=copy)
        return DenseVectorPayload(values=values, precision="fp64")
    if type_code == _TYPE_CSR:
        n_rows, nnz = a, b
        indptr = np.frombuffer(data, "<i4", n_rows + 1, at).astype(
            np.int32, copy=copy
        )
        at += (n_rows + 1) * 4
        indices = np.frombuffer(data, "<i4", nnz, at).astype(np.int32, copy=copy)
        at += nnz * 4
        data_vals = None
        if not flags & _FLAG_PATTERN:
            data_vals = np.frombuffer(data, "<f8", nnz, at).astype(np.float64, copy=copy)
            at += nnz * 8
        labels = None
        if flags & _FLAG_LABELS:
            labels = np.frombuffer(data, "<f8", n_rows, at).astype(
                np.float64, copy=copy
            )
        return CSRBlockPayload(
            indptr=indptr, indices=indices, data=data_vals, labels=labels
        )
    if type_code == _TYPE_INTS:
        values = np.frombuffer(data, "<i8", a, at).astype(np.int64, copy=copy)
        return IntVectorPayload(values=values)
    raise ValueError("unknown payload type code {}".format(type_code))
