"""Unit and shape tests for the row-to-column dispatchers (Section IV)."""

import numpy as np
import pytest

from repro.datasets import Dataset, make_classification
from repro.net.message import MessageKind
from repro.partition import (
    TwoPhaseIndex,
    dispatch_block_based,
    dispatch_naive,
    load_row_partitioned,
    make_assignment,
)
from repro.partition.dispatch import block_table
from repro.sim import CLUSTER1, SimulatedCluster
from repro.storage.blocks import split_into_blocks
from repro.store import store_backed_dispatch


@pytest.fixture
def setup(tiny_binary, cluster4):
    asg = make_assignment("round_robin", tiny_binary.n_features, 4)
    return tiny_binary, asg, cluster4


class TestBlockDispatch:
    def test_stores_cover_all_columns(self, setup):
        data, asg, cluster = setup
        stores, _, _ = dispatch_block_based(data, asg, cluster, block_size=64)
        total_nnz = sum(s.nnz for s in stores)
        assert total_nnz == data.nnz

    def test_every_store_has_every_block(self, setup):
        data, asg, cluster = setup
        stores, block_sizes, _ = dispatch_block_based(data, asg, cluster, block_size=64)
        expected_blocks = sorted(block_sizes)
        for store in stores:
            assert store.block_ids() == expected_blocks
            assert store.n_rows == data.n_rows

    def test_logical_roundtrip(self, setup):
        """Sampling the same draws on all stores reassembles original rows."""
        data, asg, cluster = setup
        stores, block_sizes, _ = dispatch_block_based(data, asg, cluster, block_size=64)
        index = TwoPhaseIndex(block_sizes, base_seed=5)
        draws = index.sample(0, 32)
        reference = data.take(index.to_global_rows(draws))
        dense = np.zeros((32, data.n_features))
        for k, store in enumerate(stores):
            features, labels = store.assemble_batch(draws)
            assert np.array_equal(labels, reference.labels)
            dense[:, asg.columns_of(k)] = features.to_dense()
        assert np.array_equal(dense, reference.features.to_dense())

    def test_report_accounting(self, setup):
        data, asg, cluster = setup
        _, _, report = dispatch_block_based(data, asg, cluster, block_size=64)
        assert report.strategy == "ColumnSGD"
        assert report.seconds > 0
        assert report.bytes_shuffled > 0
        n_blocks = -(-data.n_rows // 64)
        assert report.n_objects_shipped == n_blocks * 4
        assert "dispatch" in report.phase_seconds

    def test_advances_cluster_clock(self, setup):
        data, asg, cluster = setup
        before = cluster.clock.now()
        _, _, report = dispatch_block_based(data, asg, cluster, block_size=64)
        assert cluster.clock.now() == pytest.approx(before + report.seconds)

    def test_describe(self, setup):
        data, asg, cluster = setup
        _, _, report = dispatch_block_based(data, asg, cluster, block_size=64)
        assert "ColumnSGD" in report.describe()


class TestNaiveDispatch:
    def test_same_logical_result_as_block(self, setup):
        data, asg, cluster = setup
        block_stores, block_sizes, _ = dispatch_block_based(
            data, asg, cluster, block_size=64
        )
        naive_stores, naive_sizes, _ = dispatch_naive(data, asg, cluster, block_size=64)
        assert block_sizes == naive_sizes
        for bs, ns in zip(block_stores, naive_stores):
            for bid in bs.block_ids():
                assert bs.get(bid).features == ns.get(bid).features

    def test_ships_one_object_per_row_and_dest(self, setup):
        data, asg, cluster = setup
        _, _, report = dispatch_naive(data, asg, cluster, block_size=64)
        assert report.n_objects_shipped == data.n_rows * 4

    def test_naive_slower_than_block(self, setup):
        """The Fig 7 headline: block dispatch beats row-by-row dispatch."""
        data, asg, cluster = setup
        _, _, block_report = dispatch_block_based(data, asg, cluster, block_size=64)
        _, _, naive_report = dispatch_naive(data, asg, cluster, block_size=64)
        assert naive_report.seconds > block_report.seconds
        assert naive_report.bytes_shuffled > block_report.bytes_shuffled


class TestRowLoading:
    def test_mllib_no_shuffle(self, setup):
        data, _, cluster = setup
        partitioner, report = load_row_partitioned(data, cluster, repartition=False)
        assert report.strategy == "MLlib"
        assert report.bytes_shuffled == 0
        shards = [partitioner.shard(w) for w in range(partitioner.n_workers)]
        assert sum(shard.n_rows for shard in shards) == data.n_rows

    def test_repartition_shuffles(self, setup):
        data, _, cluster = setup
        _, report = load_row_partitioned(data, cluster, repartition=True)
        assert report.strategy == "MLlib-Repartition"
        assert report.bytes_shuffled > 0

    def test_fig7_ordering(self, tiny_binary, cluster4):
        """Fig 7 shape: naive > repartition > mllib > block dispatch."""
        data = tiny_binary
        asg = make_assignment("round_robin", data.n_features, 4)
        _, _, block = dispatch_block_based(data, asg, cluster4, block_size=64)
        _, _, naive = dispatch_naive(data, asg, cluster4, block_size=64)
        _, mllib = load_row_partitioned(data, cluster4, repartition=False)
        _, repart = load_row_partitioned(data, cluster4, repartition=True)
        assert naive.seconds > repart.seconds > mllib.seconds
        # block dispatch beats MLlib on CPU+network work (net of the fixed
        # task overhead both pay once)
        overhead = cluster4.cost.task_overhead
        assert block.seconds - overhead < mllib.seconds - overhead


class TestBlockTable:
    """``block_table`` is the whole load-cost input, read from indptr."""

    @pytest.mark.parametrize("K, block_size", [(1, 64), (3, 13), (4, 64), (8, 500)])
    def test_equals_the_nnz_of_each_split_piece(self, K, block_size):
        data = make_classification(301, 40, nnz_per_row=6, seed=7)
        asg = make_assignment("round_robin", data.n_features, K)
        block_rows, nnz_by_dest = block_table(data, asg, block_size)
        blocks = split_into_blocks(data.n_rows, block_size)
        assert block_rows.tolist() == [block.n_rows for block in blocks]
        assert nnz_by_dest.shape == (K, len(blocks))
        for block in blocks:
            pieces = asg.split(block.materialize(data).features)
            assert nnz_by_dest[:, block.block_id].tolist() == [p.nnz for p in pieces]

    def test_never_materializes_rows(self, monkeypatch):
        data = make_classification(60, 20, seed=7)
        asg = make_assignment("round_robin", data.n_features, 3)

        def boom(*args, **kwargs):
            raise AssertionError("block_table materialized rows")

        monkeypatch.setattr(Dataset, "slice", boom)
        block_rows, nnz_by_dest = block_table(data, asg, 13)
        assert block_rows.sum() == data.n_rows
        assert nnz_by_dest.sum() == data.nnz

    def test_empty_dataset_has_no_blocks(self):
        data = make_classification(10, 8, seed=9).slice(0, 0)
        asg = make_assignment("round_robin", data.n_features, 2)
        block_rows, nnz_by_dest = block_table(data, asg, 4)
        assert block_rows.shape == (0,)
        assert nnz_by_dest.shape == (2, 0)


def _load(loader, data, cluster, tmp_path):
    """Run one loader; return its report."""
    asg = make_assignment("round_robin", data.n_features, cluster.n_workers)
    if loader == "block":
        return dispatch_block_based(data, asg, cluster, block_size=64)[2]
    if loader == "naive":
        return dispatch_naive(data, asg, cluster, block_size=64)[2]
    if loader == "store":
        return store_backed_dispatch(data, cluster, tmp_path / "s", block_size=64)[3]
    return load_row_partitioned(data, cluster, repartition=loader == "repartition")[1]


class TestReportedTrafficIsSent:
    """A report's shuffle bytes are the WORKSET bytes the network saw."""

    @pytest.mark.parametrize("K", [1, 3, 4])
    @pytest.mark.parametrize("loader", ["block", "naive", "store", "row", "repartition"])
    def test_bytes_shuffled_equal_workset_bytes(self, loader, K, tmp_path):
        data = make_classification(1001, 50, seed=1)
        cluster = SimulatedCluster(CLUSTER1.with_workers(K))
        report = _load(loader, data, cluster, tmp_path)
        assert report.bytes_shuffled == cluster.network.bytes_of_kind(MessageKind.WORKSET)
        if K == 1:
            assert report.bytes_shuffled == 0
            assert report.phase_seconds.get("network", 0.0) == 0.0
        if loader == "repartition":
            # every row is one shuffle record, whether or not K divides n
            assert report.n_objects_shipped == data.n_rows
            assert report.phase_seconds["shuffle_cpu"] > 0
