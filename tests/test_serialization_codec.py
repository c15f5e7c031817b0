"""Codec tests: lossless round-trips and byte-model-exact lengths.

The invariant the local backend rests on: for every payload type,
``len(encode_payload(p)) == p.encoded_bytes()``, with ``encoded_bytes``
defined by the same size functions the simulator charges — so the bytes
that cross a real pipe are exactly the bytes the cost model predicts.
"""

import struct

import numpy as np
import pytest

from repro.net.message import MessageKind
from repro.storage.serialization import (
    CSRBlockPayload,
    DenseVectorPayload,
    IntVectorPayload,
    OBJECT_OVERHEAD_BYTES,
    WorksetPayload,
    csr_matrix_bytes,
    decode_payload,
    dense_vector_bytes,
    encode_payload,
    int_vector_bytes,
    workset_bytes,
)


def rng():
    return np.random.default_rng(7)


def make_csr(n_rows=6, nnz=17, with_labels=False, seed=7):
    r = np.random.default_rng(seed)
    splits = np.sort(r.integers(0, nnz + 1, size=n_rows - 1))
    indptr = np.concatenate([[0], splits, [nnz]]).astype(np.int32)
    return CSRBlockPayload(
        indptr=indptr,
        indices=r.integers(0, 100, size=nnz).astype(np.int32),
        data=r.standard_normal(nnz),
        labels=r.standard_normal(n_rows) if with_labels else None,
    )


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_dense_fp64_is_bit_exact(self):
        values = rng().standard_normal(33)
        out = decode_payload(encode_payload(DenseVectorPayload(values)))
        assert out.precision == "fp64"
        assert out.values.dtype == np.float64
        np.testing.assert_array_equal(out.values, values)

    def test_dense_fp32_rounds_like_the_simulated_wire(self):
        values = rng().standard_normal(33)
        payload = DenseVectorPayload(values, precision="fp32")
        out = decode_payload(encode_payload(payload))
        assert out.precision == "fp32"
        # float64 values that went through float32: what every backend's
        # round bodies see of an fp32 statistics buffer
        np.testing.assert_array_equal(
            out.values, values.astype(np.float32).astype(np.float64)
        )

    @pytest.mark.parametrize("with_labels", (False, True))
    def test_csr(self, with_labels):
        payload = make_csr(with_labels=with_labels)
        out = decode_payload(encode_payload(payload))
        np.testing.assert_array_equal(out.indptr, payload.indptr)
        np.testing.assert_array_equal(out.indices, payload.indices)
        np.testing.assert_array_equal(out.data, payload.data)
        if with_labels:
            np.testing.assert_array_equal(out.labels, payload.labels)
        else:
            assert out.labels is None

    def test_workset(self):
        payload = WorksetPayload(block_id=42, block=make_csr(with_labels=True))
        out = decode_payload(encode_payload(payload))
        assert out.block_id == 42
        np.testing.assert_array_equal(out.block.data, payload.block.data)
        np.testing.assert_array_equal(out.block.labels, payload.block.labels)

    def test_int_vector(self):
        payload = IntVectorPayload(np.array([0, 5, 2**40, -3], dtype=np.int64))
        out = decode_payload(encode_payload(payload))
        assert out.values.dtype == np.int64
        np.testing.assert_array_equal(out.values, payload.values)

    def test_empty_vectors(self):
        for payload in (
            DenseVectorPayload(np.zeros(0)),
            IntVectorPayload(np.zeros(0, dtype=np.int64)),
        ):
            encoded = encode_payload(payload)
            assert len(encoded) == OBJECT_OVERHEAD_BYTES
            assert decode_payload(encoded).values.size == 0


# ----------------------------------------------------------------------
# the byte-model agreement
# ----------------------------------------------------------------------
class TestByteModel:
    def test_dense_fp64(self):
        p = DenseVectorPayload(rng().standard_normal(57))
        assert len(encode_payload(p)) == p.encoded_bytes() == dense_vector_bytes(57)

    def test_dense_fp32_halves_the_body(self):
        p64 = DenseVectorPayload(rng().standard_normal(40))
        p32 = DenseVectorPayload(p64.values, precision="fp32")
        assert len(encode_payload(p32)) == p32.encoded_bytes()
        assert len(encode_payload(p32)) - OBJECT_OVERHEAD_BYTES == (
            len(encode_payload(p64)) - OBJECT_OVERHEAD_BYTES
        ) // 2

    @pytest.mark.parametrize("with_labels", (False, True))
    def test_csr(self, with_labels):
        p = make_csr(n_rows=9, nnz=23, with_labels=with_labels)
        assert (
            len(encode_payload(p))
            == p.encoded_bytes()
            == csr_matrix_bytes(9, 23, with_labels=with_labels)
        )

    @pytest.mark.parametrize("with_labels", (False, True))
    def test_pattern_csr_has_no_data_section(self, with_labels):
        valued = make_csr(n_rows=9, nnz=23, with_labels=with_labels)
        p = CSRBlockPayload(valued.indptr, valued.indices, None, valued.labels)
        encoded = encode_payload(p)
        assert (
            len(encoded)
            == p.encoded_bytes()
            == csr_matrix_bytes(9, 23, with_labels=with_labels, pattern=True)
            == len(encode_payload(valued)) - 8 * 23
        )
        for copy in (True, False):
            out = decode_payload(encoded, copy)
            assert out.data is None
            np.testing.assert_array_equal(out.indptr, p.indptr)
            np.testing.assert_array_equal(out.indices, p.indices)
            if with_labels:
                np.testing.assert_array_equal(out.labels, p.labels)

    def test_workset(self):
        p = WorksetPayload(block_id=3, block=make_csr(n_rows=9, nnz=23, with_labels=True))
        assert len(encode_payload(p)) == p.encoded_bytes() == workset_bytes(9, 23)

    def test_int_vector(self):
        p = IntVectorPayload(np.arange(11, dtype=np.int64))
        assert len(encode_payload(p)) == p.encoded_bytes() == int_vector_bytes(11)


#: Every wire-bearing MessageKind has a codec representative: the
#: payload shape that kind actually moves in the trainers.
KIND_REPRESENTATIVES = {
    MessageKind.MODEL_PULL: lambda: DenseVectorPayload(rng().standard_normal(80)),
    MessageKind.GRADIENT_PUSH: lambda: DenseVectorPayload(rng().standard_normal(80)),
    MessageKind.STATISTICS_PUSH: lambda: DenseVectorPayload(rng().standard_normal(64)),
    MessageKind.STATISTICS_BCAST: lambda: DenseVectorPayload(rng().standard_normal(64)),
    MessageKind.MODEL_AVG: lambda: DenseVectorPayload(rng().standard_normal(80)),
    MessageKind.WORKSET: lambda: WorksetPayload(
        block_id=1, block=make_csr(with_labels=True)
    ),
    MessageKind.BLOCK_ASSIGN: lambda: IntVectorPayload(np.arange(5, dtype=np.int64)),
    MessageKind.CONTROL: lambda: IntVectorPayload(np.zeros(0, dtype=np.int64)),
    MessageKind.RETRY: lambda: DenseVectorPayload(rng().standard_normal(64)),
    MessageKind.HEARTBEAT: lambda: IntVectorPayload(np.zeros(0, dtype=np.int64)),
    MessageKind.CHECKPOINT: lambda: DenseVectorPayload(rng().standard_normal(128)),
}


@pytest.mark.parametrize(
    "kind", sorted(KIND_REPRESENTATIVES, key=lambda k: k.value),
    ids=lambda k: k.value,
)
def test_every_message_kind_has_a_model_exact_representative(kind):
    payload = KIND_REPRESENTATIVES[kind]()
    encoded = encode_payload(payload)
    assert len(encoded) == payload.encoded_bytes()
    decoded = decode_payload(encoded)
    assert type(decoded) is type(payload)


def test_representatives_cover_all_kinds():
    assert set(KIND_REPRESENTATIVES) == set(MessageKind)


# ----------------------------------------------------------------------
# validation and errors
# ----------------------------------------------------------------------
class TestErrors:
    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            DenseVectorPayload(np.zeros(3), precision="fp16")

    def test_workset_requires_labels(self):
        with pytest.raises(ValueError, match="labels"):
            WorksetPayload(block_id=0, block=make_csr(with_labels=False))

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_payload(b"\x00" * 10)

    def test_bad_magic_rejected(self):
        encoded = bytearray(encode_payload(DenseVectorPayload(np.zeros(2))))
        encoded[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            decode_payload(bytes(encoded))

    def test_bad_version_rejected(self):
        encoded = bytearray(encode_payload(DenseVectorPayload(np.zeros(2))))
        encoded[4] = 9
        with pytest.raises(ValueError, match="version"):
            decode_payload(bytes(encoded))

    @pytest.mark.parametrize("count", [2**62, 2**63, 2**64 - 1])
    @pytest.mark.parametrize(
        "type_code", [1, 3, 5], ids=["dense", "csr", "ints"]
    )
    def test_a_huge_header_count_is_a_value_error(self, type_code, count):
        header = struct.pack("<4sBBH4Q", b"RPRO", 1, type_code, 0, count, 0, 0, 0)
        data = header.ljust(OBJECT_OVERHEAD_BYTES, b"\x00") + b"\x00" * 16
        with pytest.raises(ValueError, match="truncated"):
            decode_payload(data)

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_payload(object())


class TestDegenerateShapes:
    """Length invariants on zero-nnz and zero-row payloads.

    The shard store writes one record per (block, worker) pair even when
    a worker owns no non-zeros of a block, so the byte model must hold
    exactly at nnz == 0 and n_rows == 0 — otherwise footer offsets drift.
    """

    def test_zero_nnz_csr_block_keeps_rows(self):
        # 4 rows, none of which store a value: indptr is all zeros
        payload = CSRBlockPayload(
            indptr=np.zeros(5, dtype=np.int32),
            indices=np.zeros(0, dtype=np.int32),
            data=np.zeros(0, dtype=np.float64),
        )
        encoded = encode_payload(payload)
        assert len(encoded) == payload.encoded_bytes()
        assert len(encoded) == csr_matrix_bytes(4, 0, with_labels=False)
        out = decode_payload(encoded)
        assert out.n_rows == 4
        assert out.indices.size == 0

    def test_empty_csr_block(self):
        payload = CSRBlockPayload(
            indptr=np.zeros(1, dtype=np.int32),
            indices=np.zeros(0, dtype=np.int32),
            data=np.zeros(0, dtype=np.float64),
        )
        encoded = encode_payload(payload)
        assert len(encoded) == payload.encoded_bytes()
        assert len(encoded) == csr_matrix_bytes(0, 0, with_labels=False)
        assert decode_payload(encoded).n_rows == 0

    def test_zero_nnz_csr_with_labels(self):
        payload = CSRBlockPayload(
            indptr=np.zeros(3, dtype=np.int32),
            indices=np.zeros(0, dtype=np.int32),
            data=np.zeros(0, dtype=np.float64),
            labels=np.array([1.0, -1.0]),
        )
        encoded = encode_payload(payload)
        assert len(encoded) == payload.encoded_bytes()
        assert len(encoded) == csr_matrix_bytes(2, 0, with_labels=True)
        out = decode_payload(encoded)
        np.testing.assert_array_equal(out.labels, [1.0, -1.0])

    def test_decode_from_memoryview(self):
        # the mmap reader hands decode_payload memoryview slices; the
        # codec must accept them without an intermediate bytes copy
        payload = make_csr(n_rows=3, nnz=5, seed=41)
        encoded = encode_payload(payload)
        out = decode_payload(memoryview(encoded))
        np.testing.assert_array_equal(out.indptr, payload.indptr.astype(np.int64))
        np.testing.assert_array_equal(out.data, payload.data)
