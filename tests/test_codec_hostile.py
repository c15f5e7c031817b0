"""Hostile codec bytes: a payload or a snapshot record, damaged any way.

A single-bit flip, a byte overwritten with any value, or a cut at any
length, applied to an encoding of every payload type and to a snapshot
file on disk (the record and its CRC32 trailer):

* ``decode_payload`` raises only ``ValueError`` — never the
  ``OverflowError`` numpy gives for a header count past ``2**63`` — and
  refuses every flag bit its payload type does not define;
* ``CheckpointStore.read`` raises only ``DataError``, or returns exactly
  the clean record (the damage left the file as it was).

Anything else propagates and fails the test.
"""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recovery import CheckpointStore, snapshot_partition
from repro.core.worker import PartitionState
from repro.errors import DataError
from repro.optim import Adam
from repro.storage.serialization import (
    CSRBlockPayload,
    DenseVectorPayload,
    IntVectorPayload,
    WorksetPayload,
    decode_payload,
    encode_payload,
    payload_length,
)

fuzz = settings(deadline=5000)


def _csr(labels: bool) -> CSRBlockPayload:
    return CSRBlockPayload(
        indptr=np.array([0, 2, 2, 5], dtype=np.int32),
        indices=np.array([1, 4, 0, 2, 3], dtype=np.int32),
        data=np.linspace(-1.0, 1.0, 5),
        labels=np.array([1.0, -1.0, 1.0]) if labels else None,
    )


ENCODED = {
    name: encode_payload(payload)
    for name, payload in {
        "dense": DenseVectorPayload(np.linspace(0.0, 1.0, 6)),
        "dense-fp32": DenseVectorPayload(np.linspace(0.0, 1.0, 6), precision="fp32"),
        "csr": _csr(labels=False),
        "csr-labels": _csr(labels=True),
        "csr-pattern": CSRBlockPayload(_csr(False).indptr, _csr(False).indices, None),
        "workset": WorksetPayload(block_id=3, block=_csr(labels=True)),
        "ints": IntVectorPayload(np.arange(4, dtype=np.int64)),
    }.items()
}


def damages(content: bytes):
    """A strategy over one damaged copy of ``content``.

    Half the positions are the most significant bytes of the headers'
    four little-endian uint64 counts (bytes 8..39 of each header), where
    one damaged byte turns a count into one no body can hold.
    """
    n = len(content)
    msbs = [
        header + 15 + 8 * field
        for header in (m.start() for m in re.finditer(b"RPRO", content))
        for field in range(4)
    ]
    at = st.sampled_from(msbs) | st.integers(0, n - 1)

    def flip(at_bit):
        at, bit = at_bit
        return content[:at] + bytes([content[at] ^ (1 << bit)]) + content[at + 1:]

    def overwrite(at_value):
        at, value = at_value
        return content[:at] + bytes([value]) + content[at + 1:]

    return st.one_of(
        st.tuples(at, st.integers(0, 7)).map(flip),
        st.tuples(at, st.integers(0, 255)).map(overwrite),
        st.integers(0, n - 1).map(lambda cut: content[:cut]),
    )


@fuzz
@given(data=st.data())
def test_decode_raises_only_value_error(data):
    name = data.draw(st.sampled_from(sorted(ENCODED)), label="payload")
    damaged = data.draw(damages(ENCODED[name]), label="damaged")
    try:
        decode_payload(damaged)
    except ValueError:
        pass


def test_workset_frame_around_another_payload_is_a_value_error():
    """A workset frame around a whole int vector: a ValueError, not an
    AttributeError on its missing labels.  (One flipped type byte in a
    real frame is a length error first: the body is the CSR block's.)"""
    frame = struct.pack("<q", 3) + ENCODED["ints"]
    with pytest.raises(ValueError, match="CSR block with labels"):
        decode_payload(frame)
    damaged = bytearray(ENCODED["workset"])
    damaged[13] ^= 1  # the nested header's type code: CSR (3) -> no type (2)
    with pytest.raises(ValueError, match="overlong payload"):
        decode_payload(bytes(damaged))


#: byte offset of each payload's (first) uint16 flags field, and the
#: flag bits its type defines: FP32 for dense, LABELS and PATTERN for CSR
FLAGS_AT, WORKSET_FLAGS_AT = 6, 8 + 6
DEFINED_FLAGS = {
    "dense": 0x01, "dense-fp32": 0x01, "csr": 0x06, "csr-labels": 0x06,
    "csr-pattern": 0x06, "workset": 0x06, "ints": 0x00,
}


@pytest.mark.parametrize("name", sorted(ENCODED))
@pytest.mark.parametrize("extra", [1, 8, 20])
def test_appended_bytes_are_a_value_error(name, extra):
    with pytest.raises(ValueError, match="overlong payload"):
        decode_payload(ENCODED[name] + b"\x00" * extra)


@pytest.mark.parametrize("name", sorted(ENCODED))
@pytest.mark.parametrize("bit", [1 << i for i in range(16)])
def test_a_flag_flip_is_a_value_error_or_the_clean_payload(name, bit):
    """Each of the 16 flag bits, flipped on every kind, is a ValueError,
    never the clean payload: a flag the kind defines changes the body's
    layout and so the length the header promises; any other bit is one
    the kind does not define."""
    at = WORKSET_FLAGS_AT if name == "workset" else FLAGS_AT
    damaged = bytearray(ENCODED[name])
    flags = int.from_bytes(damaged[at:at + 2], "little") ^ bit
    damaged[at:at + 2] = flags.to_bytes(2, "little")
    if bit & DEFINED_FLAGS[name]:
        match = "payload: the header promises"
    else:
        match = "defines no flag 0x{:04x}".format(bit)
    with pytest.raises(ValueError, match=match):
        decode_payload(bytes(damaged))


class Snapshot:
    """One Adam partition's record in an on-disk store."""

    def __init__(self, directory):
        rng = np.random.default_rng(4)
        optimizer = Adam(0.05)
        state = PartitionState(
            partition_id=0, store=None, columns=None,
            params=rng.normal(size=(5, 2)), optimizer=optimizer,
        )
        for _ in range(2):
            optimizer.step(state.params, rng.normal(size=(5, 2)))
        self.record = snapshot_partition(state)
        self.layout = decode_payload(self.record[:payload_length(self.record)]).values.tolist()
        self.store = CheckpointStore(str(directory))
        self.store.write(1, 0, self.record)
        self.path = directory / "p00000.ckpt"
        #: the whole spilled file: the record and its CRC32 trailer
        self.file = self.path.read_bytes()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    return Snapshot(tmp_path_factory.mktemp("snapshot"))


@fuzz
@given(data=st.data())
def test_store_read_raises_data_error_or_keeps_the_layout(snapshot, data):
    snapshot.path.write_bytes(data.draw(damages(snapshot.file), label="damaged"))
    try:
        record = snapshot.store.read(0)
    except DataError:
        return
    assert decode_payload(record[:payload_length(record)]).values.tolist() == snapshot.layout
    assert record == snapshot.record
