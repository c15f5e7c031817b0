"""Hostile store files: whatever is on disk, a ``repro.errors`` type or data.

A shard-backed store validates a block once, on first touch, and then
hands out views of the mapping for as long as the process lives — so
what it trusts it must have checked.  This suite takes two small real
stores — one-hot data (pattern records, no value section) and Gaussian
data (valued records) — and damages them every way a disk, a crash or
a liar can: a bit flip anywhere, a cut at every record boundary and
inside every record, footers that lie about offsets / lengths /
``n_rows`` / ``nnz`` / record kind / CRC, ``indptr`` that runs
backwards, a column id the worker does not own.

Every record is covered by the CRC32 in its footer row, so the property
is one rule whatever the damage hits (``probe`` opens the store,
fetches every block of every worker and assembles every stored row):
**raise a ``ReproError``, or return exactly what the clean store
returns** (the damage hit padding or a field nothing reads).  A flip in
labels, in a valued record's data or in a column id that stays in range
are named cases: each is a ``DataError``.  The structural checks behind
the CRC are tested against a liar that forges the CRCs too.

Never ``IndexError`` / ``ValueError`` / ``BufferError`` (anything that
is not a ``ReproError`` propagates and fails the test), never a hang
(the hypothesis deadline), never an allocation sized by a field that
was not first checked against the file (``tracemalloc`` on the liars).
"""

from __future__ import annotations

import os
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_classification
from repro.datasets.dataset import Dataset
from repro.errors import DataError, ReproError
from repro.linalg import CSRMatrix
from repro.store import ColumnShardStore, shard_filename
from repro.store.format import (
    HEADER_BYTES,
    KIND_SHARD,
    RECORD_PATTERN,
    RECORD_VALUED,
    SIDECAR_FILENAME,
)

WORKERS, BLOCK, FEATURES = 2, 32, 24
LOCAL_DIM = FEATURES // WORKERS
FILES = [shard_filename(w) for w in range(WORKERS)] + [SIDECAR_FILENAME]
#: every byte range of a store file (``Victim._regions``)
REGIONS = ("store_header", "record_header", "footer", "indptr", "indices", "data", "labels")

fuzz = settings(deadline=5000)


class Victim:
    """A store directory whose files are swapped for damaged copies."""

    def __init__(self, root: Path, one_hot: bool):
        self.one_hot = one_hot
        self.dir = root / "store"
        data = make_classification(
            90, FEATURES, nnz_per_row=4, binary_features=one_hot, seed=8
        )
        store = ColumnShardStore.from_dataset(
            data, self.dir, n_workers=WORKERS, block_size=BLOCK
        )
        self.indexes = dict(zip(FILES, store.shard_indexes + [store.sidecar_index]))
        self.clean_bytes = {name: (self.dir / name).read_bytes() for name in FILES}
        self.draws = np.array(
            [(b, o) for b, n in store.block_sizes().items() for o in range(n)]
        )
        self.regions = [r for name in FILES for r in self._regions(name)]
        self.clean = self.probe()

    def _regions(self, name):
        """``(file, kind, start, stop)`` of every byte range of one file."""
        index = self.indexes[name]
        yield name, "store_header", 0, HEADER_BYTES
        for b in range(index.n_blocks):
            at, n_rows = index.offset(b), index.n_rows(b)
            yield name, "record_header", at, at + HEADER_BYTES
            at += HEADER_BYTES
            if index.header.kind == KIND_SHARD:
                sections = [("indptr", 4 * (n_rows + 1)), ("indices", 4 * index.nnz(b))]
                if not index.pattern(b):  # a pattern record has no value section
                    sections.append(("data", 8 * index.nnz(b)))
                for kind, size in sections:
                    yield name, kind, at, at + size
                    at += size
            else:
                yield name, "labels", at, at + 8 * n_rows
        header = index.header
        yield name, "footer", header.footer_offset, header.footer_offset + header.footer_length

    def region(self, name, kind, block=0):
        return [r for r in self.regions if r[:2] == (name, kind)][block]

    def write(self, name: str, content: bytes) -> None:
        # a new inode, never a truncate: a mapping of the old file that
        # some frame still references must not lose its pages
        tmp = self.dir / (name + ".swap")
        tmp.write_bytes(content)
        os.replace(tmp, self.dir / name)

    def restore(self) -> None:
        for name, content in self.clean_bytes.items():
            self.write(name, content)

    def probe(self):
        """Open, fetch every block of every worker, assemble every row:
        everything returned, as owned bytes (no view outlives the call)."""
        store = ColumnShardStore.open(self.dir)
        seen = []
        for w in range(WORKERS):
            ws = store.worker_store(w)
            for b in ws.block_ids():
                workset = ws.get(b)
                seen.append(_owned(workset.features, workset.labels))
            seen.append(_owned(*ws.assemble_batch(self.draws)))
            ws.clear()
        return seen

    def outcome(self, name: str, content: bytes):
        """The probe's result on a damaged file, or the ReproError type."""
        self.write(name, content)
        try:
            return self.probe()
        except ReproError as exc:
            return type(exc)
        finally:
            self.restore()

    def refuses(self, name: str, content: bytes, match: str) -> None:
        """The probe on a damaged file raises a DataError matching ``match``."""
        self.write(name, content)
        try:
            with pytest.raises(DataError, match=match):
                self.probe()
        finally:
            self.restore()


def _owned(features, labels):
    return (
        features.n_rows,
        features.data is None,
        features.indptr.astype(np.int64).tobytes(),
        features.indices.astype(np.int64).tobytes(),
        features.values().tobytes(),
        labels.tobytes(),
    )


def _patched(content: bytes, at: int, patch: bytes) -> bytes:
    return content[:at] + patch + content[at + len(patch):]


def _i4(*values) -> bytes:
    return np.array(values, dtype="<i4").tobytes()


def _flipped(content: bytes, at: int, bit: int) -> bytes:
    return _patched(content, at, bytes([content[at] ^ (1 << bit)]))


@pytest.fixture(scope="module")
def victims(tmp_path_factory):
    """The one-hot store (pattern records) and the Gaussian one (valued)."""
    return [
        Victim(tmp_path_factory.mktemp(kind), one_hot=kind == "one-hot")
        for kind in ("one-hot", "valued")
    ]


def test_the_clean_store_probes_clean(victims):
    one_hot, valued = victims
    assert all(pattern for _, pattern, *_ in one_hot.clean)
    assert not any(pattern for _, pattern, *_ in valued.clean)
    assert {kind for _, kind, _, _ in one_hot.regions} == set(REGIONS) - {"data"}
    assert {kind for _, kind, _, _ in valued.regions} == set(REGIONS)
    for victim in victims:
        # the regions tile every file exactly
        for name in FILES:
            spans = sorted(r[2:] for r in victim.regions if r[0] == name)
            assert spans[0][0] == 0 and spans[-1][1] == len(victim.clean_bytes[name])
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


# ----------------------------------------------------------------------
# bit flips: one rule
# ----------------------------------------------------------------------
@fuzz
@given(data=st.data())
def test_a_bit_flip_anywhere(victims, data):
    victim = data.draw(st.sampled_from(victims), label="victim")
    name, kind, start, stop = data.draw(st.sampled_from(victim.regions), label="region")
    if stop == start:
        return
    at = data.draw(st.integers(start, stop - 1), label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    outcome = victim.outcome(name, _flipped(victim.clean_bytes[name], at, bit))
    assert isinstance(outcome, type) or outcome == victim.clean


@pytest.mark.parametrize("kind", ["store_header", "record_header", "footer"])
def test_every_byte_of_the_small_regions(victims, kind):
    """Exhaustive where it is cheap: one flipped bit per byte of every
    header and footer — the bytes the store uses as sizes and offsets."""
    for victim in victims:
        for name, _, start, stop in (r for r in victim.regions if r[1] == kind):
            content = victim.clean_bytes[name]
            for at in range(start, stop):
                outcome = victim.outcome(name, _flipped(content, at, at % 8))
                assert isinstance(outcome, type) or outcome == victim.clean, (name, at)


def test_a_flip_in_labels_is_a_data_error(victims):
    victim = victims[0]
    _, _, start, stop = victim.region(SIDECAR_FILENAME, "labels", 1)
    content = victim.clean_bytes[SIDECAR_FILENAME]
    for at in (start, (start + stop) // 2, stop - 1):  # a sign, a mantissa, an exponent
        victim.refuses(SIDECAR_FILENAME, _flipped(content, at, 7), "CRC32")


def test_a_flip_in_a_valued_records_data_is_a_data_error(victims):
    victim = victims[1]
    name = FILES[0]
    _, _, start, stop = victim.region(name, "data", 2)
    content = victim.clean_bytes[name]
    for at in (start, (start + stop) // 2, stop - 1):
        victim.refuses(name, _flipped(content, at, 0), "CRC32")


def test_a_column_id_flip_that_stays_in_range_is_a_data_error(victims):
    """The damage format v1 read back as different, well-formed data."""
    for victim in victims:
        name = FILES[1]
        _, _, start, _ = victim.region(name, "indices", 0)
        content = victim.clean_bytes[name]
        column = int(np.frombuffer(content, dtype="<i4", count=1, offset=start)[0])
        other = (column + 1) % LOCAL_DIM
        victim.refuses(name, _patched(content, start, _i4(other)), "CRC32")


# ----------------------------------------------------------------------
# truncation (and growth)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", FILES)
def test_a_cut_at_every_boundary_and_inside_every_record(victims, name):
    for victim in victims:
        content = victim.clean_bytes[name]
        edges = sorted({r[2] for r in victim.regions if r[0] == name} | {len(content)})
        cuts = set(edges[:-1]) | {(a + b) // 2 for a, b in zip(edges, edges[1:])}
        for cut in sorted(cuts):
            assert victim.outcome(name, content[:cut]) is DataError, cut
        assert victim.outcome(name, content + b"\x00") is DataError
        assert victim.outcome(name, content + content[-64:]) is DataError


def test_a_file_cut_after_its_footer_was_read(victims):
    victim = victims[0]
    store = ColumnShardStore.open(victim.dir)
    ws = store.worker_store(0)
    try:
        victim.write(FILES[0], victim.clean_bytes[FILES[0]][:-40])
        with pytest.raises(DataError, match="byte"):
            ws.get(0)
    finally:
        victim.restore()
    assert ws.get(0).n_rows == BLOCK  # and the store recovers with the file


# ----------------------------------------------------------------------
# footers that lie
# ----------------------------------------------------------------------
def _with_table(victim, name, table, content=None) -> bytes:
    """The file with its footer table replaced (same size, same header)."""
    header = victim.indexes[name].header
    at = header.footer_offset + HEADER_BYTES
    return _patched(
        victim.clean_bytes[name] if content is None else content, at,
        np.ascontiguousarray(table, dtype="<i8").tobytes(),
    )


def _forged(victim, name, content, table=None) -> bytes:
    """``content`` with a footer whose every CRC is recomputed over the
    bytes its own offsets and lengths name: a liar that forges CRCs."""
    table = (victim.indexes[name].table if table is None else table).copy()
    for row in table:
        row[-1] = zlib.crc32(content[row[0]:row[0] + row[1]])
    return _with_table(victim, name, table, content)


@fuzz
@given(data=st.data())
def test_a_footer_field_that_lies(victims, data):
    victim = data.draw(st.sampled_from(victims), label="victim")
    name = data.draw(st.sampled_from(FILES), label="file")
    table = victim.indexes[name].table.copy()
    size = len(victim.clean_bytes[name])
    row = data.draw(st.integers(0, table.shape[0] - 1), label="block")
    field = data.draw(st.integers(0, table.shape[1] - 1), label="field")
    was = int(table[row, field])
    lie = data.draw(
        st.sampled_from(
            [0, 1, -1, was - 1, was + 1, was + 4, was - 12, size, size + 1, 2**31,
             2**32, 2**40, 2**62, -(2**63)]
        ).filter(lambda v: v != was)
        | st.integers(-(2**63), 2**63 - 1).filter(lambda v: v != was),
        label="lie",
    )
    table[row, field] = lie
    tracemalloc.start()
    try:
        outcome = victim.outcome(name, _with_table(victim, name, table))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome is DataError
    # nothing was sized by the lie (the store is ~10 kB; the slack is for what
    # a first raise imports and caches, which lands in the same window)
    assert peak < 1 << 23


def test_a_lying_kind_or_crc_field(victims):
    for victim in victims:
        for name in FILES:
            index = victim.indexes[name]
            if index.header.kind == KIND_SHARD:
                table = index.table.copy()  # the other kind: the wrong length model
                table[1, 4] = RECORD_VALUED if victim.one_hot else RECORD_PATTERN
                victim.refuses(name, _with_table(victim, name, table), "byte model")
                table[1, 4] = 2
                victim.refuses(name, _with_table(victim, name, table), "record kind")
            table = index.table.copy()
            table[1, -1] ^= 1
            victim.refuses(name, _with_table(victim, name, table), "CRC32")
            table[1, -1] = 2**32
            victim.refuses(name, _with_table(victim, name, table), "CRC32")


def test_a_kind_that_the_lengths_cannot_tell(tmp_path):
    """An empty piece is as long as a pattern record as a valued one: the
    record header's pattern flag is what refuses the lying kind."""
    features = CSRMatrix([0, 2, 3], [0, 2, 2], [1.5, 1.0, -2.0], 4)
    store = ColumnShardStore.from_dataset(
        Dataset(features, np.array([1.0, -1.0])), tmp_path / "s", n_workers=2
    )
    index = store.shard_indexes[1]  # worker 1 owns the odd columns: no entry
    assert index.nnz(0) == 0 and index.pattern(0)
    assert not store.shard_indexes[0].pattern(0)
    path = tmp_path / "s" / shard_filename(1)
    table = index.table.copy()
    table[0, 4] = RECORD_VALUED
    content = path.read_bytes()
    at = index.header.footer_offset + HEADER_BYTES
    path.write_bytes(_patched(content, at, table.astype("<i8").tobytes()))
    reopened = ColumnShardStore.open(tmp_path / "s")  # the lengths agree
    with pytest.raises(DataError, match="footer says"):
        reopened.worker_store(1).get(0)


def test_footers_out_of_order_overlapping_and_past_eof(victims):
    for victim in victims:
        for name in FILES:
            clean = victim.indexes[name].table
            size = len(victim.clean_bytes[name])
            swapped = clean.copy()
            swapped[[0, 1]] = clean[[1, 0]]                    # whole rows, out of order
            offsets_swapped = clean.copy()
            offsets_swapped[[0, 1], 0] = clean[[1, 0], 0]      # right sizes, wrong places
            overlapping = clean.copy()
            overlapping[1, 0] = clean[0, 0]                    # block 1 on top of block 0
            shifted = clean.copy()
            shifted[:, 0] += 4                                 # every record 4 bytes late
            past_eof = clean.copy()
            past_eof[-1, 0] = size - 8                         # starts inside, ends outside
            for table in (swapped, offsets_swapped, overlapping, shifted, past_eof):
                assert victim.outcome(name, _with_table(victim, name, table)) is DataError


def test_footers_that_agree_with_each_other_but_not_with_the_records(victims):
    """A lie no footer check can see: every file moves one row from
    block 1 to block 0, lengths, offsets and CRCs forged to match — so
    each table is contiguous, model-sized, sums to ``data_bytes`` and
    checks out byte for byte.  The record headers still tell the truth:
    record 0 is longer than its header promises, and the decoder takes
    exactly what a header promises."""
    for victim in victims:
        try:
            for name in FILES:
                index = victim.indexes[name]
                table = index.table.copy()
                per_row = 4 if index.header.kind == KIND_SHARD else 8
                table[0, 2] += 1
                table[1, 2] -= 1
                table[0, 1] += per_row
                table[1, 1] -= per_row
                table[1, 0] += per_row
                victim.write(name, _forged(victim, name, victim.clean_bytes[name], table))
            store = ColumnShardStore.open(victim.dir)      # the footers pass
            ws = store.worker_store(0)                     # and agree on rows per block
            with pytest.raises(DataError, match="overlong payload"):
                ws.get(0)
            with pytest.raises(DataError, match="overlong payload"):
                ws.assemble_batch(victim.draws[:5])
        finally:
            victim.restore()


def test_a_shard_that_disagrees_with_the_sidecar(victims):
    """One shard's footer trades rows for an entry of the same bytes
    (a pattern entry is one row's 4 bytes, a valued one three rows'):
    its own table still checks out, but it is no longer the sidecar's."""
    for victim in victims:
        name = FILES[1]
        table = victim.indexes[name].table.copy()
        table[2, 2] += 1 if victim.one_hot else 3
        table[2, 3] -= 1
        try:
            victim.write(name, _with_table(victim, name, table))
            store = ColumnShardStore.open(victim.dir)
            store.worker_store(0).get(2)
            with pytest.raises(DataError, match="disagree"):
                store.worker_store(1)
        finally:
            victim.restore()


# ----------------------------------------------------------------------
# structure the first touch must refuse, behind a forged CRC
# ----------------------------------------------------------------------
@fuzz
@given(data=st.data())
def test_indptr_that_runs_backwards(victims, data):
    victim = data.draw(st.sampled_from(victims), label="victim")
    name = data.draw(st.sampled_from(FILES[:WORKERS]), label="shard")
    block = data.draw(st.integers(0, victim.indexes[name].n_blocks - 1), label="block")
    _, _, start, stop = victim.region(name, "indptr", block)
    content = victim.clean_bytes[name]
    indptr = np.frombuffer(content[start:stop], dtype="<i4")
    steps = np.flatnonzero(np.diff(indptr) > 0)
    # swap the two ends of a non-empty row: still starts at 0 and ends at nnz
    # unless it is the first or last row, which the other two checks refuse
    row = int(data.draw(st.sampled_from(list(steps)), label="row"))
    bad = _patched(content, start + 4 * row, _i4(indptr[row + 1], indptr[row]))
    assert victim.outcome(name, bad) is DataError
    assert victim.outcome(name, _forged(victim, name, bad)) is DataError


@fuzz
@given(data=st.data())
def test_a_column_the_worker_does_not_own(victims, data):
    victim = data.draw(st.sampled_from(victims), label="victim")
    name = data.draw(st.sampled_from(FILES[:WORKERS]), label="shard")
    block = data.draw(st.integers(0, victim.indexes[name].n_blocks - 1), label="block")
    _, _, start, stop = victim.region(name, "indices", block)
    entry = data.draw(st.integers(0, (stop - start) // 4 - 1), label="entry")
    column = data.draw(
        st.sampled_from([LOCAL_DIM, LOCAL_DIM + 1, FEATURES, 2**31 - 1, -1, -(2**31)]),
        label="column",
    )
    bad = _patched(victim.clean_bytes[name], start + 4 * entry, _i4(column))
    assert victim.outcome(name, _forged(victim, name, bad)) is DataError


def test_indptr_ends(victims):
    for victim in victims:
        name = FILES[0]
        _, _, start, stop = victim.region(name, "indptr", 1)
        content = victim.clean_bytes[name]
        nnz = victim.indexes[name].nnz(1)
        for at, value in ((start, 1), (start, -1), (stop - 4, nnz + 1), (stop - 4, nnz - 1),
                          (stop - 4, 2**31 - 1)):
            bad = _forged(victim, name, _patched(content, at, _i4(value)))
            assert victim.outcome(name, bad) is DataError


def test_record_headers_that_lie(victims):
    """Right magic and a forged CRC, wrong everything else: a labelled
    flag, a pattern flag set or cleared, an fp32 sidecar record, another
    payload type, rows / entries off by one."""
    for victim in victims:
        shard, sidecar = FILES[0], FILES[-1]
        at = victim.indexes[shard].offset(0)
        content = victim.clean_bytes[shard]
        pattern_flag = b"\x00" if victim.one_hot else b"\x04"   # the other kind
        lies = [
            (shard, _patched(content, at + 6, b"\x02")),           # flags: labelled
            (shard, _patched(content, at + 6, pattern_flag)),      # flags: other kind
            (shard, _patched(content, at + 5, b"\x05")),           # type: int vector
            (shard, _patched(content, at + 5, b"\x09")),           # type: unknown
            (shard, _patched(content, at + 4, b"\x02")),           # codec version 2
            (shard, _patched(content, at + 8, _i4(BLOCK - 1))),    # n_rows
            (shard, _patched(content, at + 16, _i4(0))),           # nnz
            (shard, _patched(content, at + 16, b"\xff" * 8)),      # nnz = 2**64 - 1
        ]
        at = victim.indexes[sidecar].offset(0)
        content = victim.clean_bytes[sidecar]
        lies += [
            (sidecar, _patched(content, at + 6, b"\x01")),         # flags: fp32
            (sidecar, _patched(content, at + 5, b"\x03")),         # type: CSR block
            (sidecar, _patched(content, at + 8, _i4(BLOCK // 2))),  # fewer labels
            (sidecar, _patched(content, at + 8, b"\xff" * 8)),     # 2**64 - 1 labels
        ]
        for name, bad in lies:
            assert victim.outcome(name, bad) is DataError
            assert victim.outcome(name, _forged(victim, name, bad)) is DataError
