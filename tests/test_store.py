"""Tests for repro.store: the on-disk column-shard store.

Covers the file format's byte-model invariants, the out-of-core shuffle
writer, the mmap readers and the block table of mapped worksets, the
footer-driven load cost, and — the acceptance test — a full
out-of-core ColumnSGD run on ``backend='local'`` whose final model is
*exactly* the in-memory simulator's, with read counters that reconcile
against the byte ledger.  Hostile files are ``test_store_hostile.py``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification
from repro.datasets.dataset import Dataset
from repro.errors import ConfigurationError, DataError, PartitionError
from repro.linalg import OP_COUNTERS, CSRMatrix
from repro.models import make_model
from repro.optim import make_optimizer
from repro.partition.column import ColumnAssignment, make_assignment
from repro.partition.dispatch import dispatch_block_based
from repro.partition.indexing import TwoPhaseIndex
from repro.sim.cluster import SimulatedCluster
from repro.sim.presets import CLUSTER1
from repro.storage.serialization import (
    INDEX_BYTES,
    LABEL_BYTES,
    csr_matrix_bytes,
    sparse_row_bytes,
    workset_bytes,
)
from repro.store import (
    STORE_LEDGER,
    ColumnShardStore,
    MemoryMeter,
    ShardIndex,
    ShardReader,
    ShardWorksetStore,
    ShuffleWriter,
    StoreHeader,
    shard_filename,
    store_backed_dispatch,
)
from repro.store.format import (
    HEADER_BYTES,
    KIND_SHARD,
    MANIFEST_FILENAME,
    SIDECAR_FILENAME,
    pattern_record_bytes,
    shard_record_bytes,
)
from repro.store.reader import ENTRY_READ_BYTES, ROW_READ_BYTES

WORKERS = 4
BLOCK = 64


@pytest.fixture(autouse=True)
def _reset_ledger():
    STORE_LEDGER.reset()
    yield
    STORE_LEDGER.reset()


@pytest.fixture
def data():
    return make_classification(500, 80, nnz_per_row=6, seed=3)


@pytest.fixture
def store(data, tmp_path):
    return ColumnShardStore.from_dataset(
        data, tmp_path / "store", n_workers=WORKERS, block_size=BLOCK
    )


def cluster(n_workers=WORKERS):
    return SimulatedCluster(CLUSTER1.with_workers(n_workers))


def store_files(store_dir):
    """Every file of a store directory, by name."""
    return {path.name: path.read_bytes() for path in sorted(Path(store_dir).iterdir())}


def store_digest(store_dir):
    digest = hashlib.sha256()
    for name, content in store_files(store_dir).items():
        digest.update(name.encode())
        digest.update(content)
    return digest.hexdigest()


def feed_per_row(writer, dataset, start=0, stop=None):
    """The oracle feed: one sanitised ``add_row`` per row, as every
    shuffle ran before the block-fed entry existed."""
    for i in range(start, dataset.n_rows if stop is None else stop):
        row = dataset.features.row(i)
        writer.add_row(dataset.labels[i], row.indices, row.values)


# ----------------------------------------------------------------------
# format: headers, footers, and size validation
# ----------------------------------------------------------------------
class TestFormat:
    def test_header_round_trip(self):
        header = StoreHeader(
            kind=KIND_SHARD, worker_id=3, n_blocks=7,
            footer_offset=4096, footer_length=288, data_bytes=4032,
        )
        packed = header.pack()
        assert len(packed) == HEADER_BYTES
        assert StoreHeader.unpack(packed) == header

    def test_bad_magic_rejected(self):
        packed = bytearray(
            StoreHeader(KIND_SHARD, 0, 1, 100, 50, 36).pack()
        )
        packed[0] = 0
        with pytest.raises(DataError, match="magic"):
            StoreHeader.unpack(bytes(packed))

    def test_a_format_v1_store_is_refused_by_version(self, store):
        """v1 records carry values and v1 footers no kind or CRC: a v1
        manifest or file header is refused before anything is read."""
        manifest = store.store_dir / MANIFEST_FILENAME
        text = manifest.read_text(encoding="utf-8")
        assert '"format_version": 2' in text
        manifest.write_text(text.replace('"format_version": 2', '"format_version": 1'))
        with pytest.raises(DataError, match="manifest version 1"):
            ColumnShardStore.open(store.store_dir)
        path = store.store_dir / shard_filename(0)
        content = path.read_bytes()
        assert content[4] == 2
        path.write_bytes(content[:4] + b"\x01" + content[5:])
        with pytest.raises(DataError, match="format version 1"):
            ShardIndex.load(path)

    def test_store_files_validate(self, store):
        # every published file re-validates against the byte model on open
        for w in range(WORKERS):
            ShardIndex.load(store.store_dir / shard_filename(w))
        ShardIndex.load(store.store_dir / SIDECAR_FILENAME)

    def test_truncated_file_rejected(self, store, tmp_path):
        path = store.store_dir / shard_filename(0)
        clipped = tmp_path / "clipped.col"
        clipped.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            ShardIndex.load(clipped)

    def test_no_tmp_files_left(self, store):
        assert not list(store.store_dir.glob("*.tmp"))


# ----------------------------------------------------------------------
# writer: streaming shuffle under a meter
# ----------------------------------------------------------------------
class TestShuffleWriter:
    def test_record_lengths_equal_byte_model(self, tmp_path):
        # writer already asserts this internally; verify from the footers:
        # one-hot pieces are pattern records (4 B an entry, no value
        # section), Gaussian ones valued records (12 B an entry)
        for one_hot in (True, False):
            data = make_classification(
                500, 80, nnz_per_row=6, seed=3, binary_features=one_hot)
            store = ColumnShardStore.from_dataset(
                data, tmp_path / str(one_hot), n_workers=WORKERS, block_size=BLOCK
            )
            model = pattern_record_bytes if one_hot else shard_record_bytes
            for index in store.shard_indexes:
                for b in range(index.n_blocks):
                    n_rows, nnz = index.n_rows(b), index.nnz(b)
                    assert index.pattern(b) == one_hot
                    assert index.length(b) == model(n_rows, nnz) == (
                        HEADER_BYTES + 4 * (n_rows + 1) + (4 if one_hot else 12) * nnz
                    )

    def test_block_layout_matches_dispatcher(self, data, store):
        sizes = store.block_sizes()
        assert sorted(sizes) == list(range(len(sizes)))
        assert all(v == BLOCK for v in list(sizes.values())[:-1])
        assert sum(sizes.values()) == data.n_rows

    def test_meter_balance_and_peak(self, data, tmp_path):
        # the documented floor: 3x the largest block's row bytes
        block_row_bytes = [
            sum(sparse_row_bytes(nnz) for nnz in data.features.row_nnz()[lo:lo + BLOCK].tolist())
            for lo in range(0, data.n_rows, BLOCK)
        ]
        budget = 3 * max(block_row_bytes)
        # a flush holds the block and all K projections of it at once
        first = data.features.slice_rows(0, BLOCK)
        flush_bytes = csr_matrix_bytes(BLOCK, first.nnz, with_labels=True) + sum(
            csr_matrix_bytes(BLOCK, piece.nnz)
            for piece in make_assignment("round_robin", data.n_features, WORKERS).split(first)
        )
        for entry in ("add_row", "add_rows"):
            writer = ShuffleWriter(
                tmp_path / entry, n_features=data.n_features, n_workers=WORKERS,
                block_size=BLOCK, memory_budget_bytes=budget,
            )
            if entry == "add_row":
                feed_per_row(writer, data)
            else:
                writer.add_rows(data.labels, data.features)
            writer.close()
            assert writer.n_blocks == len(block_row_bytes), entry  # no early flush
            assert writer.meter.current == 0, entry  # all charges released
            assert flush_bytes <= writer.meter.peak <= budget, entry

    def test_meter_rejects_over_release(self):
        meter = MemoryMeter()
        meter.charge(10)
        with pytest.raises(DataError):
            meter.release(11)

    def test_closed_writer_rejects_rows(self, tmp_path):
        writer = ShuffleWriter(tmp_path / "s", n_features=4, n_workers=2)
        writer.close()
        with pytest.raises(DataError, match="closed"):
            writer.add_row(1.0, np.array([0]), np.array([1.0]))
        with pytest.raises(DataError, match="closed"):
            writer.add_rows(np.zeros(1), CSRMatrix.empty(1, 4))

    def test_add_rows_rejects_wrong_shapes(self, data, tmp_path):
        with ShuffleWriter(tmp_path / "s", n_features=data.n_features, n_workers=2) as writer:
            with pytest.raises(DataError, match="columns"):
                writer.add_rows(np.zeros(3), CSRMatrix.empty(3, data.n_features + 1))
            with pytest.raises(DataError, match="labels"):
                writer.add_rows(data.labels[:-1], data.features)
            with pytest.raises(DataError, match="labels"):
                writer.add_rows(data.labels.reshape(-1, 1), data.features)
            assert writer.n_rows == 0  # nothing was taken from a refused run


# ----------------------------------------------------------------------
# the block-fed entry writes what the per-row entry writes
# ----------------------------------------------------------------------
def literal_dataset():
    """50 x 23, rows of 0-4 entries, built without an rng."""
    indptr, indices, values = [0], [], []
    for i in range(50):
        cols = sorted({(3 * i + 5 * j) % 23 for j in range(i % 5)})
        indices += cols
        values += [0.5 * (1 + (i + c) % 4) for c in cols]
        indptr.append(len(indices))
    labels = np.where(np.arange(50) % 3 == 0, 1.0, -1.0)
    return Dataset(CSRMatrix(indptr, indices, values, 23), labels, name="literal")


@st.composite
def shuffles(draw):
    """A dataset (empty rows, no stored zeros), a sharding, and a feed plan."""
    n_features = draw(st.integers(1, 24))
    rows = draw(st.lists(
        st.sets(st.integers(0, n_features - 1), max_size=8), min_size=0, max_size=40))
    indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows]))).astype(np.int64)
    indices = [col for row in rows for col in sorted(row)]
    values = draw(st.lists(
        st.sampled_from([1.0, -0.5, 3.25]), min_size=len(indices), max_size=len(indices)))
    labels = np.array(draw(st.lists(
        st.sampled_from([1.0, -1.0]), min_size=len(rows), max_size=len(rows))))
    dataset = Dataset(CSRMatrix(indptr, indices, values, n_features), labels, name="drawn")
    sharding = dict(
        n_workers=draw(st.integers(1, min(n_features, 5))),
        scheme=draw(st.sampled_from(["round_robin", "range", "hash"])),
        block_size=draw(st.integers(1, 12)),
        # 0: only block_size cuts; 900 / 2400: a block closes after ~2-3 / ~6-9 rows
        memory_budget_bytes=draw(st.sampled_from([0, 900, 2400])),
    )
    # consecutive runs of rows, each through one of the two entries
    plan = draw(st.lists(
        st.tuples(st.integers(1, 15), st.sampled_from(["add_row", "add_rows"])), max_size=8))
    return dataset, sharding, plan


class TestBlockFedEqualsPerRow:
    # sha256 over (name, bytes) of every store file, taken at the last
    # commit whose from_dataset fed add_row one row at a time and re-pinned
    # once for format v2 (pattern records, a CRC32 per footer row); each
    # store holds both record kinds
    PINNED = {
        0: "f7c034c41970e3be6adcb9677674c4df62063fcccca5fafbd0901322404e50e3",
        1500: "684e2bf41153c7a406286287190a38a75f2fb0045332c64fe48981e0d3d9e990",
        600: "19ed97d070b9e3321e1da67528f2b0db86fe7521132570b87d70fb2d7ac07398",
    }

    @pytest.mark.parametrize("budget,n_blocks", [(0, 7), (1500, 9), (600, 20)])
    def test_bytes_unchanged_since_the_per_row_writer(self, tmp_path, budget, n_blocks):
        store = ColumnShardStore.from_dataset(
            literal_dataset(), tmp_path / "s", n_workers=3, block_size=8,
            memory_budget_bytes=budget,
        )
        assert store.manifest.n_blocks == n_blocks
        assert store_digest(tmp_path / "s") == self.PINNED[budget]

    @given(shuffle=shuffles())
    @settings(max_examples=60, deadline=None)
    def test_any_feeding_writes_the_oracle_files(self, shuffle):
        dataset, sharding, plan = shuffle
        with tempfile.TemporaryDirectory() as root:
            oracle = ShuffleWriter(
                Path(root, "oracle"), n_features=dataset.n_features,
                name=dataset.name, **sharding)
            feed_per_row(oracle, dataset)
            ColumnShardStore.finish(oracle)
            want = store_files(Path(root, "oracle"))

            ColumnShardStore.from_dataset(dataset, Path(root, "block_fed"), **sharding)
            assert store_files(Path(root, "block_fed")) == want

            # one open block, one cut rule: any chunking through any mix of
            # the two entries lands the same rows in the same blocks
            mixed = ShuffleWriter(
                Path(root, "mixed"), n_features=dataset.n_features,
                name=dataset.name, **sharding)
            start = 0
            for size, entry in plan + [(dataset.n_rows, "add_rows")]:
                stop = min(start + size, dataset.n_rows)
                if entry == "add_row":
                    feed_per_row(mixed, dataset, start, stop)
                else:
                    mixed.add_rows(
                        dataset.labels[start:stop], dataset.features.slice_rows(start, stop))
                start = stop
            ColumnShardStore.finish(mixed)
            assert store_files(Path(root, "mixed")) == want

    def test_stored_zero_reloads_from_its_own_store(self, tmp_path):
        """The shards hold what the CSR holds, as the in-memory stores do.

        The per-row writer dropped the stored zero: manifest nnz 4 against
        the dataset's 5, and the second load over the directory refused it.
        """
        ds = Dataset(
            CSRMatrix([0, 2, 3, 5], [0, 2, 1, 0, 3], [1.0, 0.0, 2.0, 3.0, 4.0], 4),
            np.array([1.0, -1.0, 1.0]),
        )
        c_mem, c_store, c_again = cluster(2), cluster(2), cluster(2)
        mem_stores, _, mem_report = dispatch_block_based(
            ds, make_assignment("round_robin", 4, 2), c_mem, block_size=2)
        store, stores, _, report = store_backed_dispatch(
            ds, c_store, tmp_path / "s", block_size=2)
        assert store.manifest.nnz == ds.nnz == 5
        assert [s.nnz for s in stores] == [m.nnz for m in mem_stores]
        assert [s.stored_bytes() for s in stores] == [m.stored_bytes() for m in mem_stores]
        assert report.seconds == mem_report.seconds
        _, _, _, again = store_backed_dispatch(ds, c_again, tmp_path / "s", block_size=2)
        assert again.seconds == mem_report.seconds
        assert store.materialize_dataset().features == ds.features


# ----------------------------------------------------------------------
# a shuffle killed at any rename leaves no store and no temporaries
# ----------------------------------------------------------------------
class TestKilledShuffle:
    @pytest.mark.parametrize("fail_at", range(WORKERS + 2))  # K shards, sidecar, manifest
    def test_kill_at_every_replace(self, data, tmp_path, monkeypatch, fail_at):
        clean = tmp_path / "clean"
        ColumnShardStore.from_dataset(data, clean, n_workers=WORKERS, block_size=BLOCK)

        target = tmp_path / "s"
        real_replace, calls = os.replace, []

        def dying_replace(src, dst):
            calls.append(Path(dst).name)
            if len(calls) == fail_at + 1:
                raise OSError("killed before publishing {}".format(Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="killed"):
            store_backed_dispatch(data, cluster(), target, block_size=BLOCK)
        assert calls[-1] == (
            [shard_filename(w) for w in range(WORKERS)] + [SIDECAR_FILENAME, MANIFEST_FILENAME]
        )[fail_at]
        assert not ColumnShardStore.exists(target)
        assert not list(target.glob("*.tmp"))  # aborted: handles closed, temporaries gone

        monkeypatch.setattr(os, "replace", real_replace)
        store_backed_dispatch(data, cluster(), target, block_size=BLOCK)
        assert store_files(target) == store_files(clean)

    def test_exception_inside_the_with_block_aborts(self, data, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            with ShuffleWriter(
                tmp_path / "s", n_features=data.n_features, n_workers=WORKERS
            ) as writer:
                writer.add_rows(data.labels, data.features)
                writer.add_row(1.0, [3, 3], [1.0, 2.0])  # a hostile row
        assert all(handle.closed for handle in writer._shard_handles)
        assert writer._sidecar_handle.closed
        assert not list((tmp_path / "s").iterdir())
        with pytest.raises(DataError, match="closed"):
            writer.add_row(1.0, [0], [1.0])


# ----------------------------------------------------------------------
# readers: zero-copy records, lazy stores, caching
# ----------------------------------------------------------------------
class TestReaders:
    def test_record_is_zero_copy_view(self, store):
        reader = ShardReader(store.shard_indexes[0])
        record = reader.record(0)
        assert isinstance(record, memoryview)
        assert len(record) == store.shard_indexes[0].length(0)
        record.release()  # views pin the mapping; drop before close
        reader.close()

    def test_worksets_identical_to_dispatcher(self, data, store):
        assignment = make_assignment("round_robin", data.n_features, WORKERS)
        mem_stores, _, _ = dispatch_block_based(
            data, assignment, cluster(), block_size=BLOCK
        )
        for w in range(WORKERS):
            ws = store.worker_store(w)
            mem = mem_stores[w]
            assert ws.block_sizes() == mem.block_sizes()
            assert ws.stored_bytes() == mem.stored_bytes()
            for b in ws.block_ids():
                ours, theirs = ws.get(b), mem.get(b)
                np.testing.assert_array_equal(
                    ours.features.indptr, theirs.features.indptr
                )
                np.testing.assert_array_equal(
                    ours.features.indices, theirs.features.indices
                )
                np.testing.assert_array_equal(
                    ours.features.data, theirs.features.data
                )
                np.testing.assert_array_equal(ours.labels, theirs.labels)
            ws.clear()

    def test_store_is_read_only(self, store):
        ws = store.worker_store(0)
        with pytest.raises(PartitionError):
            ws.put(ws.get(0))
        ws.clear()

    def test_out_of_range_block(self, store):
        ws = store.worker_store(0)
        with pytest.raises(PartitionError):
            ws.get(999)

    def test_counters_and_ledger_reconcile(self, store):
        ws = store.worker_store(2)
        for b in ws.block_ids():
            ws.get(b)
        for b in ws.block_ids():
            ws.get(b)  # second pass: all hits
        stats = ws.cache_stats()
        n = store.manifest.n_blocks
        assert stats["misses"] == n and stats["hits"] == n
        assert stats["evictions"] == 0 and stats["bytes_evicted"] == 0
        assert stats["resident_bytes"] == 0  # views hold no memory
        # cold pass: the record bytes of every block, shard + sidecar
        cold = sum(
            store.shard_indexes[2].length(b) + store.sidecar_index.length(b)
            for b in range(n)
        )
        assert stats["bytes_read"] == cold
        assert STORE_LEDGER.by_worker[2] == cold
        assert STORE_LEDGER.blocks_read == n
        # a batch then reads the rows it copies out, and nothing else
        draws = np.array([[0, 1], [3, 5], [0, 1], [n - 1, 0]])
        features, labels = ws.assemble_batch(draws)
        assert features.data is None  # one-hot: each entry is read as its id alone
        copied = ROW_READ_BYTES * labels.size + INDEX_BYTES * features.nnz
        assert ws.cache_stats()["bytes_read"] == cold + copied
        assert STORE_LEDGER.bytes_read == STORE_LEDGER.by_worker[2] == cold + copied
        assert STORE_LEDGER.blocks_read == n  # counts first touches only
        assert ws.cache_stats()["misses"] == n
        ws.clear()

    def test_pickle_drops_file_state(self, store):
        ws = store.worker_store(1)
        held = ws.get(0)
        clone = pickle.loads(pickle.dumps(ws))  # with a live block table
        assert clone.cache_stats()["hits"] == 0  # fresh counters
        assert clone.cache_stats()["misses"] == 0  # and a table of its own
        got = clone.get(0)
        assert not np.shares_memory(got.labels, held.labels)  # its own mapping
        np.testing.assert_array_equal(got.labels, held.labels)
        assert clone.cache_stats()["misses"] == 1
        ws.clear()
        clone.clear()

    def test_kind_mismatch_rejected(self, store):
        with pytest.raises(DataError, match="shard"):
            ShardWorksetStore(0, 10, store.sidecar_index, store.sidecar_index)
        with pytest.raises(DataError, match="sidecar"):
            ShardWorksetStore(
                0, 10, store.shard_indexes[0], store.shard_indexes[0]
            )


class TestBlockTable:
    """What the LRU tests pinned, restated for worksets that are views."""

    def test_get_is_a_view_of_the_mapping(self, store):
        ws = store.worker_store(1)
        index = store.shard_indexes[1]
        reader = ShardReader(index)
        for b in (0, store.manifest.n_blocks - 1):
            workset = ws.get(b)
            features = workset.features
            assert features.indptr.dtype == features.indices.dtype == np.int32
            assert workset.labels.dtype == np.float64
            for array in (features.indptr, features.indices, workset.labels):
                assert not array.flags.writeable and not array.flags.owndata
            # the same file bytes, seen through a second mapping; a
            # one-hot block is a pattern record: ids and no value section
            record = np.frombuffer(reader.record(b), dtype=np.uint8)
            body = record[HEADER_BYTES:]
            assert body.size == features.indptr.nbytes + features.indices.nbytes
            assert features.indptr.tobytes() == body[:features.indptr.nbytes].tobytes()
            assert features.indices.tobytes() == body[features.indptr.nbytes:].tobytes()
            assert features.data is None and index.pattern(b)
            assert ws.get(b) is workset
        ws.clear()

    def test_first_touch_validates_once_then_hits(self, store, monkeypatch):
        validated = []
        over = CSRMatrix.over
        monkeypatch.setattr(
            CSRMatrix, "over",
            classmethod(lambda cls, *args: validated.append(1) or over(*args)),
        )
        ws = store.worker_store(0)
        n = store.manifest.n_blocks
        index = TwoPhaseIndex(store.block_sizes(), base_seed=6)
        for t in range(5):  # every batch walks every block
            draws = index.sample(t, 40 * n)
            assert np.unique(draws[:, 0]).size == n
            ws.assemble_batch(draws)
        stats = ws.cache_stats()
        assert len(validated) == stats["misses"] == n
        assert stats["hits"] == 4 * n
        assert stats["evictions"] == 0
        ws.clear()  # the table goes with the mapping: touched again, validated again
        ws.get(0)
        assert len(validated) == n + 1 and ws.cache_stats()["misses"] == n + 1

    def test_a_batch_allocates_nothing_block_sized(self, tmp_path):
        # one worker, 16 blocks of 2,048 rows; a batch of ~20 rows of each
        ds = make_classification(16 * 2048, 60, nnz_per_row=12, seed=2)
        wide = ColumnShardStore.from_dataset(ds, tmp_path / "wide", n_workers=1)
        ws = wide.worker_store(0)
        draws = TwoPhaseIndex(wide.block_sizes(), base_seed=1).sample(0, 320)
        assert np.unique(draws[:, 0]).size == 16
        ws.assemble_batch(draws)  # first touches done: what is left is the walk
        tracemalloc.start()
        features, labels = ws.assemble_batch(draws)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # the batch and the blocks as valued matrices (8 bytes a value): a
        # pattern batch holds no values and a pattern record stores none,
        # and the bound stays what it is in bytes
        assert features.data is None
        batch_bytes = (
            features.indptr.nbytes + features.indices.nbytes
            + 8 * features.nnz + labels.nbytes
        )
        index = wide.shard_indexes[0]
        valued = [shard_record_bytes(index.n_rows(b), index.nnz(b)) for b in range(16)]
        assert sum(valued) > 50 * batch_bytes
        assert peak < 4 * batch_bytes < valued[0]
        ws.clear()

    def test_misaligned_values_assemble_bit_identically(self, tmp_path):
        # rows with an even entry count make n_rows + 1 + nnz odd for a
        # block of an even number of rows: its float64 values then sit
        # 4 bytes off an 8-byte boundary in the file and in the mapping
        rng = np.random.default_rng(0)
        dense = np.zeros((96, 9))
        for row in dense:
            row[rng.choice(9, size=2 * rng.integers(0, 4), replace=False)] = rng.normal()
        ds = Dataset(CSRMatrix.from_dense(dense), np.sign(rng.normal(size=96)), name="odd")
        on_disk = ColumnShardStore.from_dataset(ds, tmp_path / "odd", n_workers=1, block_size=32)
        index = on_disk.shard_indexes[0]
        assert all((index.n_rows(b) + 1 + index.nnz(b)) % 2 for b in range(3))
        memory, sizes, _ = dispatch_block_based(
            ds, make_assignment("round_robin", 9, 1), cluster(1), block_size=32
        )
        ws = on_disk.worker_store(0)
        assert not all(ws.get(b).features.data.flags.aligned for b in range(3))
        sampler = TwoPhaseIndex(sizes, base_seed=4)
        for t in range(6):
            draws = sampler.sample(t, 20)
            ours, our_labels = ws.assemble_batch(draws)
            theirs, their_labels = memory[0].assemble_batch(draws)
            assert ours.indptr.dtype == ours.indices.dtype == np.int64
            assert ours.data.flags.aligned
            for a, b in ((ours.indptr, theirs.indptr), (ours.indices, theirs.indices),
                         (ours.data, theirs.data), (our_labels, their_labels)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        ws.clear()

    def test_one_non_unit_block_assembles_bit_identically(self, tmp_path):
        # one-hot data but for one stored 2.0 in block 1: on disk that
        # block is valued and the others are pattern matrices; in memory
        # its worker's whole shard is valued.  The values are the same.
        one_hot = make_classification(4 * BLOCK, 20, nnz_per_row=5, seed=8)
        features = one_hot.features
        data = features.data.copy()
        entry = int(features.indptr[BLOCK + 3])  # block 1, row 3
        data[entry] = 2.0
        ds = Dataset(
            CSRMatrix(features.indptr, features.indices, data, features.n_cols),
            one_hot.labels, name="mixed",
        )
        owner = int(features.indices[entry]) % 2  # round robin over 2 workers
        on_disk = ColumnShardStore.from_dataset(ds, tmp_path / "mixed", n_workers=2,
                                                block_size=BLOCK)
        memory, sizes, _ = dispatch_block_based(
            ds, make_assignment("round_robin", 20, 2), cluster(2), block_size=BLOCK
        )
        sampler = TwoPhaseIndex(sizes, base_seed=9)
        twos = 0
        for w in range(2):
            ws = on_disk.worker_store(w)
            blocks = [ws.get(b).features for b in ws.block_ids()]  # first touches done
            for t in range(8):
                draws = sampler.sample(t, 60)
                read = ws.cache_stats()["bytes_read"]
                ours, our_labels = ws.assemble_batch(draws)
                # each entry is charged as its block stores it: an id, or an
                # id and a value
                copied = ROW_READ_BYTES * len(draws) + sum(
                    (INDEX_BYTES if blocks[b].data is None else ENTRY_READ_BYTES)
                    * int(blocks[b].row_nnz()[o])
                    for b, o in draws
                )
                assert ws.cache_stats()["bytes_read"] - read == copied
                twos += int(np.count_nonzero(ours.values() == 2.0))
                theirs, their_labels = memory[w].assemble_batch(draws)
                for a, b in ((ours.indptr, theirs.indptr), (ours.indices, theirs.indices),
                             (ours.values(), theirs.values()), (our_labels, their_labels)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                valued_block = w == owner and 1 in draws[:, 0]
                assert (ours.data is None) == (not valued_block)
                assert (theirs.data is None) == (w != owner)
            pattern = {b: ws.get(b).features.data is None for b in ws.block_ids()}
            assert pattern == {b: not (w == owner and b == 1) for b in ws.block_ids()}
            ws.clear()
        assert twos  # some batch drew the 2.0
        assert memory[owner].shard.data is not None and memory[1 - owner].shard.data is None


class TestRowTable:
    """Every touched block's validated ``indptr``, end to end, one per process."""

    def test_allocated_once_filled_per_block(self, store):
        ws = store.worker_store(1)
        n = store.manifest.n_blocks
        assert ws._row_table is None  # the driver process maps nothing
        ws.get(2)
        table = ws._row_table
        assert table.dtype == ws.get(2).features.indptr.dtype == np.int32
        assert table.size == ws.n_rows + n
        index = TwoPhaseIndex(store.block_sizes(), base_seed=2)
        for t in range(4):  # first touches and warm batches: the same array
            ws.assemble_batch(index.sample(t, 30))
            assert ws._row_table is table
        for b in range(n):
            ws.get(b)
        first = 0
        for b in range(n):  # block b's indptr starts at first_row(b) + b
            indptr = ws.get(b).features.indptr
            assert np.array_equal(table[first + b:first + b + indptr.size], indptr)
            first += indptr.size - 1
        assert first + n == table.size
        ws.clear()

    def test_filled_only_from_an_accepted_indptr(self, store, monkeypatch):
        ws = store.worker_store(0)
        ws.get(0)
        before = ws._row_table.copy()

        def rejecting_over(cls, *args):
            raise ValueError("rejected")

        monkeypatch.setattr(CSRMatrix, "over", classmethod(rejecting_over))
        with pytest.raises(DataError, match="rejected"):
            ws.get(1)
        assert np.array_equal(ws._row_table, before)  # not one entry written
        assert ws.cache_stats()["misses"] == 1
        ws.clear()

    def test_clear_and_pickle_drop_it(self, store):
        ws = store.worker_store(3)
        ws.assemble_batch([(0, 0), (2, 1)])
        assert ws._row_table is not None
        assert ws.__getstate__()["_row_table"] is None
        clone = pickle.loads(pickle.dumps(ws))
        assert clone._row_table is None
        assert ws._row_table is not None  # pickling left the original alone
        ws.clear()
        assert ws._row_table is None
        features, _ = ws.assemble_batch([(0, 0), (2, 1)])  # refilled on first touch
        assert features == clone.assemble_batch([(0, 0), (2, 1)])[0]
        ws.clear()
        clone.clear()

    def test_the_walk_charges_what_the_row_gathers_charged(self, store):
        """Pieces + stack + reorder, one id per entry each (the blocks are
        pattern matrices: no values), and the two exit checks' scans: the
        counts the per-block ``_gather_rows`` gives."""
        ws = store.worker_store(2)
        draws = TwoPhaseIndex(store.block_sizes(), base_seed=4).sample(0, 60)
        ws.assemble_batch(draws)  # first touches: their validation scans stay out
        OP_COUNTERS.reset()
        OP_COUNTERS.enable()
        try:
            features, labels = ws.assemble_batch(draws)
            counts = OP_COUNTERS.snapshot()
        finally:
            OP_COUNTERS.disable()
            OP_COUNTERS.reset()
        nnz = features.nnz
        assert counts == {
            "flops": 2 * (nnz + labels.size + 1),
            "alloc_elements": 3 * nnz,
            "densify_events": 0,
            "peak_alloc_elements": nnz,
        }
        ws.clear()


class TestClosingWithLiveViews:
    """``mmap.close()`` raises BufferError under an ``np.frombuffer``
    view; the store lets go of the mapping and the views keep it."""

    def test_reader_close_under_a_live_view(self, store):
        reader = ShardReader(store.shard_indexes[0])
        payload = reader.csr_block(1)
        labels = ShardReader(store.sidecar_index).labels(1)  # reader already gone
        reader.close()
        reader.close()  # idempotent
        assert payload.indptr[0] == 0 and payload.indptr[-1] == payload.nnz
        assert labels.size == payload.n_rows

    def test_clear_while_a_workset_is_held(self, store):
        ws = store.worker_store(3)
        held = ws.get(2)
        before = held.features.indices.copy(), held.labels.copy()
        ws.clear()
        ws.clear()
        # the pages stay mapped for as long as the views live
        np.testing.assert_array_equal(held.features.indices, before[0])
        np.testing.assert_array_equal(held.labels, before[1])
        again = ws.get(2)  # a fresh mapping and a fresh first touch
        assert again is not held and ws.cache_stats()["misses"] == 2
        np.testing.assert_array_equal(again.features.indices, held.features.indices)
        ws.clear()

    def test_forked_worker_builds_its_own_table(self, tmp_path):
        ds = make_classification(600, 60, nnz_per_row=6, seed=9)
        d_ref = _driver()
        d_ref.load(ds)
        d_ref.fit()
        d_local = _driver("local", store_dir=tmp_path / "s")
        d_local.load(ds)
        # the parent maps and tables a block before the workers fork
        d_local._partitions[0].store.get(0)
        assert d_local._partitions[0].store.cache_stats()["misses"] == 1
        d_local.fit()
        assert np.abs(d_ref.current_params() - d_local.current_params()).max() == 0.0
        n = len(d_local._partitions[0].store.block_ids())
        for per_pid in d_local.store_read_stats.values():
            for pid, stats in per_pid.items():
                # every worker process validated every block it walked itself,
                # the inherited entry of partition 0 included in its count
                assert 1 <= stats["misses"] <= n
                assert stats["hits"] > 0 and stats["evictions"] == 0


# ----------------------------------------------------------------------
# the facade: manifest validation, reassembly
# ----------------------------------------------------------------------
class TestColumnShardStore:
    def test_exists_and_open(self, store):
        assert ColumnShardStore.exists(store.store_dir)
        reopened = ColumnShardStore.open(store.store_dir)
        assert reopened.manifest == store.manifest

    def test_open_missing_dir(self, tmp_path):
        assert not ColumnShardStore.exists(tmp_path / "nothing")
        with pytest.raises(DataError, match="manifest"):
            ColumnShardStore.open(tmp_path / "nothing")

    def test_materialize_round_trip(self, data, store):
        back = store.materialize_dataset()
        assert back.features == data.features
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_reuse_validates_worker_count(self, data, store):
        bad = SimulatedCluster(CLUSTER1.with_workers(WORKERS + 1))
        with pytest.raises(ConfigurationError, match="worker"):
            store_backed_dispatch(
                data, bad, store.store_dir, block_size=BLOCK
            )

    def test_reuse_validates_block_size(self, data, store):
        with pytest.raises(ConfigurationError, match="block_size"):
            store_backed_dispatch(
                data, cluster(), store.store_dir, block_size=BLOCK * 2
            )

    def test_reuse_validates_shape(self, store):
        other = make_classification(500, 80, nnz_per_row=7, seed=4)
        with pytest.raises(ConfigurationError, match="does not match"):
            store_backed_dispatch(
                other, cluster(), store.store_dir, block_size=BLOCK
            )

    def test_load_builds_two_assignments(self, data, tmp_path, monkeypatch):
        """One for the driver, one for the store — not one per worker."""
        built = []
        real_init = ColumnAssignment.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(ColumnAssignment, "__init__", counting_init)
        for label in ("shuffle", "reopen"):
            del built[:]
            driver = _driver(store_dir=tmp_path / "s")
            driver.load(data)
            assert len(built) == 2, (label, built)

    def test_load_cost_identical_to_dispatcher(self, tmp_path):
        assert_store_load_charges_like_memory(tmp_path, 500, WORKERS, BLOCK)

    @pytest.mark.parametrize(
        "n_rows, workers, block_size, reopen",
        [
            (500, 1, BLOCK, False),
            (500, 8, 128, False),  # 4 blocks for 8 workers
            (513, WORKERS, BLOCK, False),  # a one-row last block
            (500, WORKERS, BLOCK, True),
        ],
        ids=["k1", "fewer-blocks-than-workers", "short-last-block", "reopen"],
    )
    def test_load_cost_identical_on_edge_shapes(
        self, tmp_path, n_rows, workers, block_size, reopen
    ):
        assert_store_load_charges_like_memory(
            tmp_path, n_rows, workers, block_size, reopen
        )


def assert_store_load_charges_like_memory(
    tmp_path, n_rows, workers, block_size, reopen=False
):
    """A store-backed load (built, or reopened) charges what
    ``dispatch_block_based`` charges, to the bit."""
    data = make_classification(n_rows, 80, nnz_per_row=6, seed=3)
    assignment = make_assignment("round_robin", data.n_features, workers)
    c_mem, c_store = cluster(workers), cluster(workers)
    _, _, mem_report = dispatch_block_based(
        data, assignment, c_mem, block_size=block_size
    )
    if reopen:
        store_backed_dispatch(
            data, cluster(workers), tmp_path / "s", block_size=block_size
        )
    store_report = store_backed_dispatch(
        data, c_store, tmp_path / "s", block_size=block_size
    )[3]
    assert store_report.seconds == mem_report.seconds
    assert store_report.bytes_shuffled == mem_report.bytes_shuffled
    assert store_report.phase_seconds == mem_report.phase_seconds
    assert store_report.n_objects_shipped == mem_report.n_objects_shipped
    assert c_store.clock.now() == c_mem.clock.now()
    assert c_store.network.bytes_by_kind == c_mem.network.bytes_by_kind


# ----------------------------------------------------------------------
# driver integration (sim backend)
# ----------------------------------------------------------------------
def _driver(backend="sim", store_dir="", budget=0, **kw):
    cfg = ColumnSGDConfig(
        batch_size=100, iterations=10, eval_every=5, seed=5, block_size=128,
        backend=backend,
        local_processes=2 if backend == "local" else 0,
        store_dir=str(store_dir) if store_dir else "",
        memory_budget_bytes=budget,
        **kw,
    )
    return ColumnSGDDriver(
        make_model("lr"), make_optimizer("sgd", 0.1), cluster(), config=cfg
    )


class TestDriverIntegration:
    def test_config_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ColumnSGDConfig(memory_budget_bytes=-1)

    def test_sim_run_bit_identical(self, tmp_path):
        ds = make_classification(2000, 400, nnz_per_row=10, seed=5)
        d_mem = _driver()
        d_mem.load(ds)
        r_mem = d_mem.fit()
        d_store = _driver(store_dir=tmp_path / "s", budget=128 * 1024)
        d_store.load(ds)
        r_store = d_store.fit()
        assert np.abs(d_mem.current_params() - d_store.current_params()).max() == 0.0
        assert [l for _, _, l in r_mem.losses()] == [
            l for _, _, l in r_store.losses()
        ]
        assert d_mem.load_report.seconds == d_store.load_report.seconds
        assert [rec.sim_time for rec in r_mem.records] == [
            rec.sim_time for rec in r_store.records
        ]

    def test_reopened_store_trains_identically(self, tmp_path):
        ds = make_classification(2000, 400, nnz_per_row=10, seed=5)
        seed_driver = _driver(store_dir=tmp_path / "s")
        seed_driver.load(ds)

        d = _driver(store_dir=tmp_path / "s")
        d.load(ds)  # reuses the store the first load wrote
        r = d.fit()
        assert r.dataset == ds.name
        d_mem = _driver()
        d_mem.load(ds)
        r_mem = d_mem.fit()
        assert np.abs(d.current_params() - d_mem.current_params()).max() == 0.0
        assert r.losses() == r_mem.losses()


# ----------------------------------------------------------------------
# THE acceptance test: out-of-core training on the local backend
# ----------------------------------------------------------------------
class TestOutOfCoreAcceptance:
    def test_local_out_of_core_run(self, tmp_path):
        ds = make_classification(2000, 400, nnz_per_row=10, seed=5)
        dataset_bytes = csr_matrix_bytes(ds.n_rows, ds.nnz, with_labels=True)
        budget = 128 * 1024
        assert budget < dataset_bytes  # genuinely out-of-core

        # (a) shuffle under the budget: tracked buffer peak stays below it
        writer = ShuffleWriter(
            tmp_path / "s", n_features=ds.n_features, n_workers=WORKERS,
            block_size=128, memory_budget_bytes=budget,
        )
        feed_per_row(writer, ds)
        store = ColumnShardStore.finish(writer)
        assert writer.meter.peak <= budget, (
            "shuffle peak {} exceeded the {} byte budget".format(
                writer.meter.peak, budget
            )
        )
        # budget high enough that no early flush changed the block layout
        assert store.manifest.n_blocks == (ds.n_rows + 127) // 128

        # (b) train out-of-core on real processes; exact same model as
        # the in-memory simulator run
        d_ref = _driver()
        d_ref.load(ds)
        d_ref.fit()
        d_local = _driver("local", store_dir=tmp_path / "s", budget=budget)
        d_local.load(ds)
        d_local.fit()
        diff = np.abs(d_ref.current_params() - d_local.current_params()).max()
        assert diff == 0.0

        # (c) per-partition read counters, pulled out of the worker
        # processes: every block first-touched once (the record bytes of
        # the whole shard, as a cold pass always cost), then only the
        # rows each batch copied — what replaying the draws here reads.
        # Each process reads a batch's labels through its first store
        # (partitions 0 and 2 of the processes hosting workers {0, 1} and
        # {2, 3}), so only those read the sidecar and the labels.
        assert sorted(d_local.store_read_stats) == list(range(WORKERS))
        n = store.manifest.n_blocks
        index = TwoPhaseIndex(store.block_sizes(), base_seed=5)
        for w, per_pid in d_local.store_read_stats.items():
            for pid, stats in per_pid.items():
                reads_labels = pid in (0, 2)
                cold = sum(
                    store.shard_indexes[pid].length(b)
                    + (store.sidecar_index.length(b) if reads_labels else 0)
                    for b in range(n)
                )
                replay = store.worker_store(pid)
                copied = 0
                for t in range(10):
                    draws = index.sample(t, 100)
                    rows = index.to_global_rows(draws)
                    labels = replay.batch_labels(draws, rows) if reads_labels else ds.labels[rows]
                    features, _ = replay.assemble_batch(draws, rows, labels)
                    assert features.data is None  # one-hot: pattern blocks
                    copied += (ROW_READ_BYTES - (0 if reads_labels else LABEL_BYTES)) \
                        * labels.size + INDEX_BYTES * features.nnz
                assert stats["misses"] == n
                assert stats["evictions"] == 0
                assert stats["bytes_read"] == cold + copied
                assert stats == replay.cache_stats()
                replay.clear()

    def test_in_memory_local_run_reports_zero_stats(self):
        ds = make_classification(800, 100, nnz_per_row=6, seed=7)
        d = _driver("local")
        d.load(ds)
        d.fit()
        for per_pid in d.store_read_stats.values():
            for stats in per_pid.values():
                assert stats["misses"] == 0
                assert stats["bytes_read"] == 0
