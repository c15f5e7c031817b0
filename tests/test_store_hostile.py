"""Hostile store files: whatever is on disk, a ``repro.errors`` type or data.

A shard-backed store validates a block once, on first touch, and then
hands out views of the mapping for as long as the process lives — so
what it trusts it must have checked.  This suite takes one small real
store and damages it every way a disk, a crash or a liar can: a bit
flip anywhere, a cut at every record boundary and inside every record,
footers that lie about offsets / lengths / ``n_rows`` / ``nnz``,
``indptr`` that runs backwards, a column id the worker does not own.

Format v1 has no checksums, so the property is tiered by where the
damage lands (``probe`` opens the store, fetches every block of every
worker and assembles every stored row):

* store header, footer, record header — raise, or return exactly what
  the clean store returns (the flip hit padding or an unused field);
* ``indptr`` / ``indices`` — raise, or return a *well-formed* CSR (a
  flip that keeps ``indptr`` monotone and the column id in range is
  not detectable; it must not become an out-of-range index later);
* ``data`` / labels — return, with the structure untouched.

Never ``IndexError`` / ``ValueError`` / ``BufferError`` (anything that
is not a ``ReproError`` propagates and fails the test), never a hang
(the hypothesis deadline), never an allocation sized by a field that
was not first checked against the file (``tracemalloc`` on the liars).
"""

from __future__ import annotations

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_classification
from repro.errors import DataError, ReproError
from repro.store import ColumnShardStore, shard_filename
from repro.store.format import HEADER_BYTES, KIND_SHARD, SIDECAR_FILENAME

WORKERS, BLOCK, FEATURES = 2, 32, 24
LOCAL_DIM = FEATURES // WORKERS
FILES = [shard_filename(w) for w in range(WORKERS)] + [SIDECAR_FILENAME]
#: raise-or-equal, raise-or-well-formed, never-raise (see the module docstring)
STRICT = ("store_header", "record_header", "footer")
STRUCTURE = ("indptr", "indices")
VALUES = ("data", "labels")

fuzz = settings(deadline=5000)


class Victim:
    """A store directory whose files are swapped for damaged copies."""

    def __init__(self, root: Path):
        self.dir = root / "store"
        data = make_classification(90, FEATURES, nnz_per_row=4, seed=8)
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
                for kind, size in (("indptr", 4 * (n_rows + 1)),
                                   ("indices", 4 * index.nnz(b)),
                                   ("data", 8 * index.nnz(b))):
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


def _owned(features, labels):
    return (
        features.n_rows,
        features.indptr.astype(np.int64).tobytes(),
        features.indices.astype(np.int64).tobytes(),
        features.values().tobytes(),
        labels.tobytes(),
    )


def _well_formed(result, clean) -> bool:
    """Every matrix is a CSR of the clean shape over owned columns."""
    for (n_rows, indptr, indices, data, labels), reference in zip(result, clean):
        indptr = np.frombuffer(indptr, dtype=np.int64)
        indices = np.frombuffer(indices, dtype=np.int64)
        if not (
            n_rows == reference[0]
            and indptr.size == n_rows + 1
            and indptr[0] == 0
            and (np.diff(indptr) >= 0).all()
            and indptr[-1] == indices.size == len(data) // 8
            and (indices.size == 0 or (0 <= indices.min() and indices.max() < LOCAL_DIM))
            and len(labels) == 8 * n_rows
        ):
            return False
    return len(result) == len(clean)


def _patched(content: bytes, at: int, patch: bytes) -> bytes:
    return content[:at] + patch + content[at + len(patch):]


def _i4(*values) -> bytes:
    return np.array(values, dtype="<i4").tobytes()


@pytest.fixture(scope="module")
def victim(tmp_path_factory):
    return Victim(tmp_path_factory.mktemp("hostile"))


def test_the_clean_store_probes_clean(victim):
    assert _well_formed(victim.clean, victim.clean)
    assert {kind for _, kind, _, _ in victim.regions} == set(STRICT + STRUCTURE + VALUES)
    # the regions tile every file exactly
    for name in FILES:
        spans = sorted(r[2:] for r in victim.regions if r[0] == name)
        assert spans[0][0] == 0 and spans[-1][1] == len(victim.clean_bytes[name])
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


# ----------------------------------------------------------------------
# bit flips
# ----------------------------------------------------------------------
@fuzz
@given(data=st.data())
def test_a_bit_flip_anywhere(victim, data):
    name, kind, start, stop = data.draw(st.sampled_from(victim.regions), label="region")
    if stop == start:
        return
    at = data.draw(st.integers(start, stop - 1), label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    content = victim.clean_bytes[name]
    outcome = victim.outcome(name, _patched(content, at, bytes([content[at] ^ (1 << bit)])))
    raised = isinstance(outcome, type)
    if kind in STRICT:
        assert raised or outcome == victim.clean
    elif kind in STRUCTURE:
        assert raised or _well_formed(outcome, victim.clean)
    else:
        assert not raised
        assert [r[:3] for r in outcome] == [r[:3] for r in victim.clean]
        assert outcome != victim.clean


@pytest.mark.parametrize("kind", STRICT)
def test_every_byte_of_the_small_regions(victim, kind):
    """Exhaustive where it is cheap: one flipped bit per byte of every
    header and footer — the bytes the store uses as sizes and offsets."""
    for name, _, start, stop in (r for r in victim.regions if r[1] == kind):
        content = victim.clean_bytes[name]
        for at in range(start, stop):
            outcome = victim.outcome(
                name, _patched(content, at, bytes([content[at] ^ (1 << (at % 8))]))
            )
            assert isinstance(outcome, type) or outcome == victim.clean, (name, at)


# ----------------------------------------------------------------------
# truncation (and growth)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", FILES)
def test_a_cut_at_every_boundary_and_inside_every_record(victim, name):
    content = victim.clean_bytes[name]
    edges = sorted({r[2] for r in victim.regions if r[0] == name} | {len(content)})
    cuts = set(edges[:-1]) | {(a + b) // 2 for a, b in zip(edges, edges[1:])}
    for cut in sorted(cuts):
        assert victim.outcome(name, content[:cut]) is DataError, cut
    assert victim.outcome(name, content + b"\x00") is DataError
    assert victim.outcome(name, content + content[-64:]) is DataError


def test_a_file_cut_after_its_footer_was_read(victim):
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
def _with_table(victim, name, table) -> bytes:
    """The file with its footer table replaced (same size, same header)."""
    header = victim.indexes[name].header
    at = header.footer_offset + HEADER_BYTES
    return _patched(
        victim.clean_bytes[name], at, np.ascontiguousarray(table, dtype="<i8").tobytes()
    )


@fuzz
@given(data=st.data())
def test_a_footer_field_that_lies(victim, data):
    name = data.draw(st.sampled_from(FILES), label="file")
    table = victim.indexes[name].table.copy()
    size = len(victim.clean_bytes[name])
    row = data.draw(st.integers(0, table.shape[0] - 1), label="block")
    field = data.draw(st.integers(0, table.shape[1] - 1), label="field")
    was = int(table[row, field])
    lie = data.draw(
        st.sampled_from(
            [0, -1, was - 1, was + 1, was + 4, was - 12, size, size + 1, 2**31,
             2**40, 2**62, -(2**63)]
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


def test_footers_out_of_order_overlapping_and_past_eof(victim):
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


def test_footers_that_agree_with_each_other_but_not_with_the_records(victim):
    """A lie no footer check can see: every file moves one row from
    block 1 to block 0, lengths and offsets adjusted to match — so each
    table is contiguous, model-sized and sums to ``data_bytes``.  The
    record headers still tell the truth; first touch compares."""
    try:
        for name in FILES:
            table = victim.indexes[name].table.copy()
            per_row = 4 if table.shape[1] == 4 else 8
            table[0, 2] += 1
            table[1, 2] -= 1
            table[0, 1] += per_row
            table[1, 1] -= per_row
            table[1, 0] += per_row
            victim.write(name, _with_table(victim, name, table))
        store = ColumnShardStore.open(victim.dir)      # the footers pass
        ws = store.worker_store(0)                     # and agree on rows per block
        with pytest.raises(DataError, match="footer says"):
            ws.get(0)
        with pytest.raises(DataError, match="footer says"):
            ws.assemble_batch(victim.draws[:5])
    finally:
        victim.restore()


def test_a_shard_that_disagrees_with_the_sidecar(victim):
    """One shard's footer trades 3 rows for an entry (4 * 3 == 12): its
    own table still checks out, but it is no longer the sidecar's."""
    name = FILES[1]
    table = victim.indexes[name].table.copy()
    table[2, 2] += 3
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
# structure the first touch must refuse
# ----------------------------------------------------------------------
@fuzz
@given(data=st.data())
def test_indptr_that_runs_backwards(victim, data):
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


@fuzz
@given(data=st.data())
def test_a_column_the_worker_does_not_own(victim, data):
    name = data.draw(st.sampled_from(FILES[:WORKERS]), label="shard")
    block = data.draw(st.integers(0, victim.indexes[name].n_blocks - 1), label="block")
    _, _, start, stop = victim.region(name, "indices", block)
    entry = data.draw(st.integers(0, (stop - start) // 4 - 1), label="entry")
    column = data.draw(
        st.sampled_from([LOCAL_DIM, LOCAL_DIM + 1, FEATURES, 2**31 - 1, -1, -(2**31)]),
        label="column",
    )
    bad = _patched(victim.clean_bytes[name], start + 4 * entry, _i4(column))
    assert victim.outcome(name, bad) is DataError


def test_indptr_ends(victim):
    name = FILES[0]
    _, _, start, stop = victim.region(name, "indptr", 1)
    content = victim.clean_bytes[name]
    nnz = victim.indexes[name].nnz(1)
    for at, value in ((start, 1), (start, -1), (stop - 4, nnz + 1), (stop - 4, nnz - 1),
                      (stop - 4, 2**31 - 1)):
        assert victim.outcome(name, _patched(content, at, _i4(value))) is DataError


def test_record_headers_that_lie(victim):
    """Right magic, wrong everything else: a labelled flag, an fp32
    sidecar record, another payload type, rows / entries off by one."""
    shard, sidecar = FILES[0], FILES[-1]
    at = victim.indexes[shard].offset(0)
    content = victim.clean_bytes[shard]
    lies = [
        (shard, _patched(content, at + 6, b"\x02")),           # flags: labelled
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
