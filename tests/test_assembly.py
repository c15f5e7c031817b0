"""Batch assembly is one vectorised gather — and still the old loop's output.

The per-row copy loop that ``CSRMatrix.take_rows`` used to be lives on
here as the oracle: the vectorised gather, the in-memory store's
one-``take_rows`` assembly and the shard store's block-grouped walk
must all reproduce it array for array.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import make_classification
from repro.errors import PartitionError
from repro.linalg import CSRMatrix, row_dots
from repro.partition import TwoPhaseIndex, Workset, WorksetStore
from repro.partition.column import make_assignment
from repro.partition.dispatch import dispatch_block_based, dispatch_naive
from repro.sim.cluster import SimulatedCluster
from repro.sim.presets import CLUSTER1
from repro.storage.serialization import INDEX_BYTES
from repro.store import (
    ColumnShardStore,
    ShardIndex,
    ShardWorksetStore,
    ShuffleWriter,
    shard_filename,
)
from repro.store.format import SIDECAR_FILENAME
from repro.store.reader import ROW_READ_BYTES

WORKERS = 3
BLOCK = 16


# ----------------------------------------------------------------------
# the oracle: the loops this PR removed from src/
# ----------------------------------------------------------------------
def loop_take_rows(matrix: CSRMatrix, row_ids) -> CSRMatrix:
    """``CSRMatrix.take_rows`` as it was: one slice copy per row."""
    row_ids = np.asarray(row_ids, dtype=np.int64)
    lengths = matrix.indptr[row_ids + 1] - matrix.indptr[row_ids]
    indptr = np.zeros(row_ids.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    data = np.empty(int(indptr[-1]), dtype=np.float64)
    for out_i, row_i in enumerate(row_ids):
        src0, src1 = matrix.indptr[row_i], matrix.indptr[row_i + 1]
        dst0, dst1 = indptr[out_i], indptr[out_i + 1]
        indices[dst0:dst1] = matrix.indices[src0:src1]
        data[dst0:dst1] = matrix.data[src0:src1]
    return CSRMatrix(indptr, indices, data, matrix.n_cols)


def loop_assemble_batch(store, draws):
    """One row copy per draw, straight out of the draw's workset."""
    rows = [store.get(int(b)).features.row(int(o)) for b, o in draws]
    labels = [store.get(int(b)).labels[int(o)] for b, o in draws]
    return (
        CSRMatrix.from_rows(rows, n_cols=store.local_dim),
        np.asarray(labels, dtype=np.float64),
    )


def assert_same_arrays(got: CSRMatrix, want: CSRMatrix) -> None:
    """Equal arrays and dtypes; a pattern matrix's values are its 1.0s."""
    assert got.shape == want.shape
    for name, ours, theirs in (
        ("indptr", got.indptr, want.indptr),
        ("indices", got.indices, want.indices),
        ("values", got.values(), want.values()),
    ):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs), name


@st.composite
def csr_matrices(draw):
    """Small CSR matrices, often with zero-nnz rows or no entries at all."""
    n_rows = draw(st.integers(0, 9))
    n_cols = draw(st.integers(1, 7))
    lengths = draw(
        st.lists(st.integers(0, n_cols), min_size=n_rows, max_size=n_rows)
    )
    if draw(st.booleans()) and draw(st.booleans()):
        lengths = [0] * n_rows  # an all-empty matrix
    indices = [
        c for n in lengths
        for c in sorted(draw(st.permutations(range(n_cols)))[:n])
    ]
    values = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False),
            min_size=len(indices), max_size=len(indices),
        )
    )
    return CSRMatrix(np.concatenate([[0], np.cumsum(lengths)]), indices, values, n_cols)


@st.composite
def uneven_blocks(draw):
    """``(features, labels, sizes)``: blocks of 1-5 rows, one of them a
    single row; rows of 0 to ``n_cols`` entries, the last one empty; and
    an odd ``n_rows + 1 + nnz`` and a value other than 1.0 in block 0, so
    that its float64 values sit 4 bytes off an 8-byte boundary in a shard
    file."""
    n_cols = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    sizes.insert(draw(st.integers(0, len(sizes))), 1)
    lengths = draw(
        st.lists(st.integers(0, n_cols), min_size=sum(sizes), max_size=sum(sizes))
    )
    lengths[-1] = 0  # never row 0: there are at least two blocks
    rest = sum(lengths[1:sizes[0]])
    lengths[0] = 1 if (sizes[0] + 1 + 1 + rest) % 2 else 2
    indices = [
        c for n in lengths
        for c in sorted(draw(st.permutations(range(n_cols)))[:n])
    ]
    values = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False),
            min_size=len(indices), max_size=len(indices),
        )
    )
    if all(v == 1.0 for v in values[:sum(lengths[:sizes[0]])]):
        values[0] = -1.0  # all 1.0s would make block 0 a pattern record: no values
    labels = np.asarray(
        draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(lengths),
                      max_size=len(lengths)))
    )
    features = CSRMatrix(np.concatenate([[0], np.cumsum(lengths)]), indices, values, n_cols)
    return features, labels, sizes


def shard_and_memory_stores(directory: Path, features, labels, sizes):
    """One worker's shard store over exactly these blocks, and its in-memory twin."""
    writer = ShuffleWriter(
        directory, n_features=features.n_cols, n_workers=1, block_size=max(sizes)
    )
    memory = WorksetStore(0, features.n_cols)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    for block_id, (row0, row1) in enumerate(zip(bounds, bounds[1:])):
        block = features.slice_rows(row0, row1)
        writer.add_rows(labels[row0:row1], block)
        writer._flush_block()  # cut here (a no-op when block_size already did)
        memory.put(Workset(block_id, block, labels[row0:row1]))
    writer.close()
    shard = ShardWorksetStore(
        0, features.n_cols,
        ShardIndex.load(directory / shard_filename(0)),
        ShardIndex.load(directory / SIDECAR_FILENAME),
    )
    return shard, memory


def mapped_like(matrix: CSRMatrix) -> CSRMatrix:
    """``matrix`` as a shard record maps it: int32 ids, f8 data 4 bytes off."""
    raw = bytearray(4 + matrix.data.nbytes)
    raw[4:] = matrix.data.tobytes()
    data = np.frombuffer(bytes(raw), dtype=np.float64, offset=4)
    assert not data.size or not data.flags.aligned
    return CSRMatrix.over(
        matrix.indptr.astype(np.int32), matrix.indices.astype(np.int32), data,
        matrix.n_cols,
    )


# ----------------------------------------------------------------------
# take_rows
# ----------------------------------------------------------------------
class TestTakeRows:
    @given(csr_matrices(), st.data())
    @settings(max_examples=150)
    def test_equals_the_row_loop(self, matrix, data):
        ids = (
            data.draw(st.lists(st.integers(0, matrix.n_rows - 1), max_size=20))
            if matrix.n_rows else []
        )
        assert_same_arrays(matrix.take_rows(ids), loop_take_rows(matrix, ids))

    @given(csr_matrices(), st.booleans(), st.data())
    @settings(max_examples=150)
    def test_the_unchecked_gather_is_take_rows(self, matrix, mapped, data):
        """What the shard walk builds its pieces with, unchecked, is a valid
        int64 copy equal to the checked gather, from either kind of source."""
        ids = (
            data.draw(st.lists(st.integers(0, matrix.n_rows - 1), max_size=20))
            if matrix.n_rows else []
        )
        ids += ids[:1]  # always a repeat when there is a row
        source = mapped_like(matrix) if mapped else matrix
        got = source._gather_rows(np.asarray(ids, dtype=np.int64))
        assert_same_arrays(got, source.take_rows(ids))
        assert got.indices.dtype == np.int64
        for mine in (got.indptr, got.indices, got.data):
            for theirs in (source.indptr, source.indices, source.data):
                assert not np.shares_memory(mine, theirs)
        CSRMatrix(got.indptr, got.indices, got.data, got.n_cols)

    def test_repeated_empty_and_zero_nnz_rows(self):
        matrix = CSRMatrix([0, 2, 2, 3], [0, 3, 1], [1.0, 2.0, 3.0], 4)
        for ids in ([1, 1, 1], [2, 0, 2, 0, 1], [], np.empty(0, dtype=np.int64)):
            assert_same_arrays(matrix.take_rows(ids), loop_take_rows(matrix, ids))
        empty = CSRMatrix.empty(3, 5)
        assert_same_arrays(empty.take_rows([2, 2, 0]), loop_take_rows(empty, [2, 2, 0]))
        assert CSRMatrix.empty(0, 5).take_rows([]).shape == (0, 5)

    @pytest.mark.parametrize("ids", [[1.7], np.array([0.0, 1.0]), [True, False, True]])
    def test_rejects_float_and_bool_ids(self, ids):
        """Used to truncate 1.7 to row 1 and read a mask as row ids 0/1."""
        matrix = CSRMatrix.from_dense(np.arange(12.0).reshape(3, 4))
        dtype = str(np.asarray(ids).dtype)
        with pytest.raises((TypeError, IndexError), match=dtype):
            matrix.take_rows(ids)
        data = make_classification(10, 6, nnz_per_row=2, seed=0)
        with pytest.raises((TypeError, IndexError), match=dtype):
            data.take(ids)

    def test_accepts_any_integer_dtype(self):
        matrix = CSRMatrix.from_dense(np.arange(12.0).reshape(3, 4))
        for dtype in (np.int32, np.uint8, np.int64):
            ids = np.array([2, 0, 2], dtype=dtype)
            assert_same_arrays(matrix.take_rows(ids), loop_take_rows(matrix, ids))
        with pytest.raises(IndexError):
            matrix.take_rows([-1])
        with pytest.raises(IndexError):
            matrix.take_rows(np.array([3], dtype=np.uint8))


# ----------------------------------------------------------------------
# assemble_batch: in-memory store, shard store, and the dataset itself
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def layout(tmp_path_factory):
    data = make_classification(150, 40, nnz_per_row=5, seed=11)
    assignment = make_assignment("round_robin", data.n_features, WORKERS)
    memory, block_sizes, _ = dispatch_block_based(
        data, assignment, SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        block_size=BLOCK,
    )
    on_disk = ColumnShardStore.from_dataset(
        data, tmp_path_factory.mktemp("assembly") / "store",
        n_workers=WORKERS, block_size=BLOCK,
    )
    shard = [on_disk.worker_store(k) for k in range(WORKERS)]
    yield data, assignment, memory, shard, TwoPhaseIndex(block_sizes, base_seed=3)
    for store in shard:
        store.clear()


class TestAssembleBatch:
    @given(t=st.integers(0, 10_000), batch=st.integers(1, 80))
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_three_ways_agree_bit_for_bit(self, layout, t, batch):
        data, assignment, memory, shard, index = layout
        draws = index.sample(t, batch)
        assert draws.shape == (batch, 2) and draws.dtype == np.int64
        reference = data.take(index.to_global_rows(draws))
        for k in range(WORKERS):
            want, want_labels = loop_assemble_batch(memory[k], draws)
            assert_same_arrays(
                reference.features.select_columns(assignment.columns_of(k)), want
            )
            for store in (memory[k], shard[k]):
                features, labels = store.assemble_batch(draws)
                assert_same_arrays(features, want)
                assert labels.dtype == np.float64
                assert np.array_equal(labels, want_labels)
                assert np.array_equal(labels, reference.labels)

    @given(uneven_blocks(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_row_table_walk_is_the_in_memory_gather(self, shard_data, data):
        """Any block layout, any draws: the shard walk (one whole-batch pass
        over the row table, one read per block map) returns the in-memory
        store's arrays, cold, warm, and cold again after ``clear()``."""
        features, labels, sizes = shard_data
        last = len(sizes) - 1
        single = data.draw(st.integers(0, last), label="single block")
        pairs = st.integers(0, last).flatmap(
            lambda b: st.tuples(st.just(b), st.integers(0, sizes[b] - 1))
        )
        anywhere = data.draw(st.lists(pairs, min_size=1, max_size=12), label="anywhere")
        batches = [
            anywhere + anywhere[:2],  # repeated draws
            data.draw(st.lists(
                st.integers(0, sizes[single] - 1).map(lambda o: (single, o)),
                min_size=1, max_size=6,
            ), label="inside one block"),
            data.draw(st.permutations(
                [(b, data.draw(st.integers(0, n - 1))) for b, n in enumerate(sizes)]
                + anywhere
            ), label="every block"),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            shard, memory = shard_and_memory_stores(Path(tmp), features, labels, sizes)
            assert not shard.get(0).features.data.flags.aligned
            for _ in range(2):
                for draws in batches + batches:  # cold, then warm
                    got, got_labels = shard.assemble_batch(draws)
                    want, want_labels = memory.assemble_batch(draws)
                    assert_same_arrays(got, want)
                    assert got.indices.dtype == np.int64
                    assert got_labels.dtype == np.float64
                    assert np.array_equal(got_labels, want_labels)
                shard.clear()

    def test_the_shard_walk_copies_only_its_rows(self, layout):
        _, _, memory, shard, index = layout
        draws = index.sample(2, 64)
        assert np.unique(draws[:, 0]).size > 4
        shard[2].assemble_batch(draws)  # every block it walks is now tabled
        before = shard[2].cache_stats()
        features, labels = shard[2].assemble_batch(draws)
        after = shard[2].cache_stats()
        assert after["misses"] == before["misses"] and after["evictions"] == 0
        assert after["hits"] - before["hits"] == np.unique(draws[:, 0]).size
        assert features.data is None  # one-hot: an entry is read as its id
        assert after["bytes_read"] - before["bytes_read"] == (
            ROW_READ_BYTES * 64 + INDEX_BYTES * features.nnz
        )
        want, want_labels = memory[2].assemble_batch(draws)
        assert_same_arrays(features, want)
        assert np.array_equal(labels, want_labels)

    def test_pairs_and_arrays_are_the_same_draws(self, layout):
        _, _, memory, shard, index = layout
        draws = index.sample(7, 25)
        as_pairs = [(int(b), int(o)) for b, o in draws]
        for store in (memory[1], shard[1]):
            want, want_labels = store.assemble_batch(draws)
            for form in (as_pairs, iter(as_pairs), draws.astype(np.int32)):
                features, labels = store.assemble_batch(form)
                assert_same_arrays(features, want)
                assert np.array_equal(labels, want_labels)

    def test_one_take_rows_and_no_vstack_in_memory(self, layout, monkeypatch):
        """Structural guard: the in-memory gather is a single pass, and the
        shard walk checks its batch once, on the way out."""
        _, _, memory, shard, index = layout
        calls = {"take_rows": 0, "_gather_rows": 0, "vstack": 0}
        take_rows, gather_rows = CSRMatrix.take_rows, CSRMatrix._gather_rows
        vstack = CSRMatrix.vstack.__func__

        def counted_take_rows(self, row_ids):
            calls["take_rows"] += 1
            return take_rows(self, row_ids)

        def counted_gather_rows(self, row_ids):
            calls["_gather_rows"] += 1
            return gather_rows(self, row_ids)

        def counted_vstack(cls, parts):
            calls["vstack"] += 1
            return vstack(cls, parts)

        monkeypatch.setattr(CSRMatrix, "take_rows", counted_take_rows)
        monkeypatch.setattr(CSRMatrix, "_gather_rows", counted_gather_rows)
        monkeypatch.setattr(CSRMatrix, "vstack", classmethod(counted_vstack))
        draws = index.sample(0, 64)
        touched = np.unique(draws[:, 0]).size
        assert touched > 3
        memory[0].assemble_batch(draws)
        assert calls == {"take_rows": 1, "_gather_rows": 1, "vstack": 0}
        # the out-of-core walk: no row gather per touched block (the row
        # table sizes the rows), one checked stack, one checked reorder
        # whose own gather is the only one
        calls.update(take_rows=0, _gather_rows=0, vstack=0)
        shard[0].assemble_batch(draws)
        assert calls == {"take_rows": 1, "_gather_rows": 1, "vstack": 1}

    def test_a_one_hot_walk_gathers_no_values(self, layout, monkeypatch):
        """Every block of a one-hot shard is a pattern matrix from first
        touch on, and so are the walk's pieces, their stack and the batch."""
        _, _, _, shard, index = layout
        vstack = CSRMatrix.vstack.__func__
        stacks = []

        def spied_vstack(cls, parts):
            stacks.append((list(parts), vstack(cls, parts)))
            return stacks[-1][1]

        monkeypatch.setattr(CSRMatrix, "vstack", classmethod(spied_vstack))
        batch, _ = shard[0].assemble_batch(index.sample(0, 64))
        ((parts, stacked),) = stacks
        assert len(parts) > 1
        for matrix in [batch, stacked] + parts:
            assert matrix.data is None
        assert all(shard[0].get(b).features.data is None for b in shard[0].block_ids())

    @pytest.mark.parametrize(
        "damage, match",
        [
            ("column", r"column indices must lie in \[0, "),
            ("indptr", "indptr must be non-decreasing"),
        ],
    )
    def test_a_bad_piece_is_caught_at_the_stores_exit(
        self, layout, monkeypatch, damage, match
    ):
        """The per-block pieces are not checked; the batch leaving the store is."""
        _, _, _, shard, _ = layout
        store = shard[1]
        draws = [(0, 0), (0, 1), (0, 2), (3, 1), (1, 4)]
        vstack = CSRMatrix.vstack.__func__
        pieces = []

        def damaging_vstack(cls, parts):
            piece = parts[0]  # the first piece of the walk: block 0, three rows
            assert piece.n_rows == 3 and not pieces
            if damage == "column":
                piece.indices[-1] = piece.n_cols
            else:
                piece.indptr[1] = piece.indptr[-1] + 1
            pieces.append(piece)
            return vstack(cls, parts)

        monkeypatch.setattr(CSRMatrix, "vstack", classmethod(damaging_vstack))
        with pytest.raises(ValueError, match=match):
            store.assemble_batch(draws)
        # ... with the error the constructor raises for that piece on its own
        bad = pieces[0]
        with pytest.raises(ValueError, match=match):
            CSRMatrix(bad.indptr, bad.indices, bad.data, bad.n_cols)

    def test_both_dispatchers_fill_the_same_shard(self, layout):
        data, assignment, memory, _, _ = layout
        naive, _, _ = dispatch_naive(
            data, assignment, SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
            block_size=BLOCK,
        )
        for k in range(WORKERS):
            assert_same_arrays(naive[k].shard, memory[k].shard)
            assert_same_arrays(
                memory[k].shard, data.features.select_columns(assignment.columns_of(k))
            )
            assert np.array_equal(memory[k].labels, data.labels)


class TestHostileDraws:
    """Every bad draw is a PartitionError — never a numpy IndexError, never a row."""

    @pytest.fixture(params=["memory", "shard"])
    def store(self, layout, request):
        _, _, memory, shard, _ = layout
        return (memory if request.param == "memory" else shard)[0]

    @pytest.mark.parametrize(
        "draws, match",
        [
            ([(99, 0)], "block"),
            ([(-1, 0)], "block"),
            ([(0, 0), (10, 0)], "block"),
            ([(0, -1)], "offset"),
            ([(0, BLOCK)], "offset"),
            ([(1, 0), (9, 6)], "offset"),           # the last block is short
            (np.zeros((4, 3), dtype=np.int64), r"\(B, 2\)"),
            (np.zeros(4, dtype=np.int64), r"\(B, 2\)"),
            ([(0, 1), (2,)], "pairs|\\(B, 2\\)"),
            (np.zeros((2, 2)), "float64"),
            ([(0.0, 1.5)], "float64"),
            (np.zeros((2, 2), dtype=bool), "bool"),
        ],
    )
    def test_structured_error(self, store, draws, match):
        with pytest.raises(PartitionError, match=match):
            store.assemble_batch(draws)

    @pytest.mark.parametrize("draws", [[], np.empty((0, 2), dtype=np.int64), iter(())])
    def test_empty_draws_give_an_empty_batch(self, store, draws):
        features, labels = store.assemble_batch(draws)
        assert features.shape == (0, store.local_dim)
        assert labels.shape == (0,) and labels.dtype == np.float64

    def test_a_cleared_store_knows_no_block(self, layout):
        _, _, memory, _, _ = layout
        clone = pickle.loads(pickle.dumps(memory[0]))
        clone.clear()
        assert clone.n_rows == 0 and clone.nnz == 0 and clone.shard.shape == (0, clone.local_dim)
        with pytest.raises(PartitionError, match="block"):
            clone.assemble_batch([(0, 0)])

    def test_to_global_rows_takes_the_same_checks(self, layout):
        index = layout[4]
        draws = index.sample(1, 30)
        pairs = [(int(b), int(o)) for b, o in draws]
        assert np.array_equal(index.to_global_rows(draws), index.to_global_rows(pairs))
        assert np.array_equal(
            index.to_global_rows(draws), draws[:, 0] * BLOCK + draws[:, 1]
        )
        for bad, match in (([(10, 0)], "unknown block"), ([(9, 6)], "offset"),
                           (np.zeros((2, 2)), "float64")):
            with pytest.raises(PartitionError, match=match):
                index.to_global_rows(bad)


# ----------------------------------------------------------------------
# worksets are views of one resident shard
# ----------------------------------------------------------------------
class TestResidentShard:
    def test_no_write_gets_through_a_view(self):
        """A valued batch is the caller's own copy; a pattern batch has no
        values array, so there is nothing to write."""
        for binary_features in (False, True):
            self.check_no_write_gets_through(binary_features)

    def check_no_write_gets_through(self, binary_features):
        store, _ = self.filled_store(binary_features)
        arrays = [store.labels, store.shard.indptr, store.shard.indices, store.shard.data]
        for block_id in store.block_ids():
            workset = store.get(block_id)
            features = workset.features
            arrays += [workset.labels, features.indptr, features.indices, features.data]
        if binary_features:
            assert all(array is None for array in arrays[3::4])
            arrays = [array for array in arrays if array is not None]
        for array in arrays:
            assert not array.flags.writeable
            if array.size:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
        features, labels = store.assemble_batch([(0, 0), (1, 1)])
        dots = row_dots(features, np.ones(features.n_cols))
        if binary_features:
            assert features.data is None
            features.values()[:] = 0.0  # fresh 1.0s, not the batch's
            assert np.array_equal(row_dots(features, np.ones(features.n_cols)), dots)
        else:
            features.data[:] = 0.0      # a batch is the caller's own copy
            assert store.shard.data.any()
            assert not row_dots(features, np.ones(features.n_cols)).any() and dots.any()
        labels[:] = 0.0
        assert store.labels.any()

    def test_worksets_share_the_shard_memory(self):
        for binary_features in (False, True):
            store, _ = self.filled_store(binary_features)
            for block_id in store.block_ids():
                workset = store.get(block_id)
                if binary_features:
                    assert workset.features.data is None
                else:
                    assert np.shares_memory(workset.features.data, store.shard.data)
                assert np.shares_memory(workset.features.indices, store.shard.indices)
                assert np.shares_memory(workset.labels, store.labels)
            first = store.get(0)
            assert_same_arrays(first.features, store.shard.slice_rows(0, first.n_rows))

    def test_pickle_ships_the_shard_once(self, layout):
        _, _, memory, _, index = layout
        store = memory[1]
        assert store.shard.data is None  # one-hot: a pattern shard ships no values
        array_bytes = sum(
            a.nbytes for a in (store.shard.indptr, store.shard.indices, store.labels)
        )
        blob = pickle.dumps(store, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) <= 1.1 * array_bytes
        clone = pickle.loads(blob)
        assert clone.block_sizes() == store.block_sizes()
        assert clone.stored_bytes() == store.stored_bytes()
        draws = index.sample(4, 50)
        got, got_labels = clone.assemble_batch(draws)
        want, want_labels = store.assemble_batch(draws)
        assert_same_arrays(got, want)
        assert np.array_equal(got_labels, want_labels)
        workset = clone.get(3)
        assert clone.shard.data is None and workset.features.data is None
        assert np.shares_memory(workset.features.indices, clone.shard.indices)
        assert not workset.features.indices.flags.writeable

    def test_a_shard_backed_store_has_no_resident_shard(self, layout):
        _, _, _, shard, _ = layout
        for read in (lambda: shard[0].shard, lambda: shard[0].labels):
            with pytest.raises(PartitionError, match="resident"):
                read()

    def test_puts_without_reserve_and_out_of_order_ids(self):
        rng = np.random.default_rng(0)
        store = WorksetStore(0, local_dim=5)
        pieces = {}
        for block_id in (7, 2, 4):
            dense = rng.normal(size=(3, 5)) * (rng.random((3, 5)) < 0.5)
            pieces[block_id] = Workset(
                block_id, CSRMatrix.from_dense(dense), rng.normal(size=3)
            )
            store.put(pieces[block_id])
            store.assemble_batch([(block_id, 0)])   # seal between puts
        assert store.block_ids() == [2, 4, 7]
        for block_id, piece in pieces.items():
            assert_same_arrays(store.get(block_id).features, piece.features)
            assert np.array_equal(store.get(block_id).labels, piece.labels)
        draws = [(4, 2), (7, 0), (2, 1), (7, 0)]
        features, labels = store.assemble_batch(draws)
        want, want_labels = loop_assemble_batch(store, draws)
        assert_same_arrays(features, want)
        assert np.array_equal(labels, want_labels)
        assert_same_arrays(
            store.shard, CSRMatrix.vstack([pieces[b].features for b in (7, 2, 4)])
        )

    def test_reserve_cannot_cut_into_stored_rows(self):
        store = WorksetStore(0, local_dim=2)
        store.put(Workset(0, CSRMatrix.from_dense(np.ones((2, 2))), np.ones(2)))
        with pytest.raises(PartitionError, match="shrink"):
            store.reserve(1, 4)
        store.reserve(10, 40)       # room to spare: worksets re-pointed, rows kept
        assert store.n_rows == 2 and store.shard.shape == (2, 2)
        assert np.shares_memory(store.get(0).features.data, store.shard.data)

    @staticmethod
    def filled_store(binary_features: bool):
        data = make_classification(
            120, 30, nnz_per_row=4, binary_features=binary_features, seed=5
        )
        memory, block_sizes, _ = dispatch_block_based(
            data, make_assignment("round_robin", data.n_features, WORKERS),
            SimulatedCluster(CLUSTER1.with_workers(WORKERS)), block_size=BLOCK,
        )
        return memory[1], TwoPhaseIndex(block_sizes, base_seed=2)

    def test_a_one_hot_shard_and_its_batches_hold_no_values(self):
        store, index = self.filled_store(binary_features=True)
        assert store.shard.data is None
        for t in range(2):
            batch, _ = store.assemble_batch(index.sample(t, 40))
            assert batch.data is None and batch.nnz

    def test_a_gaussian_shard_gathers_its_values(self):
        store, index = self.filled_store(binary_features=False)
        draws = index.sample(0, 40)
        batch, _ = store.assemble_batch(draws)
        assert store.shard.data is not None and batch.data is not None
        want = [store.get(int(b)).features.row(int(o)).values for b, o in draws]
        assert np.array_equal(batch.data, np.concatenate(want))

    def test_a_written_batch_is_read_as_written(self):
        """A store of valued 1.0s stays valued (only the dispatch and the
        first touch make pattern matrices), so its batch is the caller's
        own copy: values written into it are the values the kernels read."""
        store = WorksetStore(0, local_dim=2)
        store.put(Workset(0, CSRMatrix.from_dense([[1.0, 1.0], [1.0, 0.0]]), np.ones(2)))
        batch, _ = store.assemble_batch([(0, 0), (0, 1)])
        assert np.array_equal(row_dots(batch, np.ones(2)), [2.0, 1.0])
        batch.data[:] = 2.0
        assert np.array_equal(row_dots(batch, np.ones(2)), [4.0, 2.0])


# ----------------------------------------------------------------------
# the engine trace a 6x faster round fills 6x faster
# ----------------------------------------------------------------------
class TestPackedEngineTrace:
    def test_events_come_back_exactly_as_added(self):
        from repro.engine.trace import EngineTrace, PhaseEvent

        added = [
            PhaseEvent(t, phase, category, 0.1 * t, 0.1 * t + 1e-9, 7.0 + t, 7.0 + t + 1e-9, kind)
            for t in (3, 0, 3)
            for phase, category, kind in (
                ("compute_statistics", "compute", None),
                ("gather", "comm", "statistics_push"),
                ("reduce", "master", None),
            )
        ]
        trace = EngineTrace(system="test")
        for event in added:
            trace.add(event)
        assert trace.events == added and len(trace) == 9
        assert trace.round_events(3) == added[:3] + added[6:]
        assert trace.rounds() == [3, 0]
        assert pickle.loads(pickle.dumps(trace)).events == added
        trace.events.clear()                 # a copy, not a handle
        assert len(trace) == 9

    def test_a_long_run_stays_small(self):
        from repro.engine.trace import EngineTrace, PhaseEvent

        trace = EngineTrace()
        for t in range(2000):
            for phase in ("a", "b", "c", "d", "e"):
                trace.add(PhaseEvent(t, phase, "compute", 0.0, 1.0, float(t), t + 1.0))
        packed = sum(
            column.buffer_info()[1] * column.itemsize
            for column in (trace._rounds, trace._times, trace._labels)
        )
        assert packed <= 64 * len(trace)     # ~42 B an event, was ~230 B of objects
