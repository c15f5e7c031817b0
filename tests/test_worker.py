"""Unit tests for ColumnWorker."""

import numpy as np
import pytest

from repro.core import ColumnWorker, PartitionState
from repro.errors import WorkerFailedError
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.partition import dispatch_block_based, make_assignment
from repro.sim import CLUSTER1, SimulatedCluster


@pytest.fixture
def worker_setup(tiny_binary):
    cluster = SimulatedCluster(CLUSTER1.with_workers(2))
    asg = make_assignment("round_robin", tiny_binary.n_features, 2)
    stores, block_sizes, _ = dispatch_block_based(tiny_binary, asg, cluster, block_size=64)
    model = LogisticRegression()
    partitions = []
    for p in range(2):
        cols = asg.columns_of(p)
        partitions.append(
            PartitionState(p, stores[p], cols, np.zeros(cols.size), SGD(0.5))
        )
    return tiny_binary, model, partitions, block_sizes


class TestColumnWorker:
    def test_single_partition_statistics(self, worker_setup):
        data, model, partitions, _ = worker_setup
        worker = ColumnWorker(0, model, [partitions[0]])
        draws = [(0, 1), (0, 2), (1, 0)]
        stats, nnz = worker.compute_statistics(draws)
        assert stats.shape == (3, 1)
        assert nnz >= 0
        assert np.all(stats == 0.0)  # zero model -> zero dots

    def test_multi_partition_statistics_sum(self, worker_setup):
        data, model, partitions, _ = worker_setup
        rng = np.random.default_rng(0)
        for p in partitions:
            p.params[...] = rng.normal(size=p.params.shape)
        solo = [ColumnWorker(k, model, [partitions[k]]) for k in range(2)]
        combined = ColumnWorker(0, model, partitions)
        draws = [(0, 5), (1, 3)]
        expected = sum(w.compute_statistics(draws)[0] for w in solo)
        got, _ = combined.compute_statistics(draws)
        assert np.allclose(got, expected)

    def test_update_requires_cached_batch(self, worker_setup):
        _, model, partitions, _ = worker_setup
        worker = ColumnWorker(0, model, [partitions[0]])
        with pytest.raises(WorkerFailedError):
            worker.update_model(np.zeros((2, 1)))

    def test_update_changes_params(self, worker_setup):
        data, model, partitions, _ = worker_setup
        worker = ColumnWorker(0, model, [partitions[0]])
        draws = [(0, i) for i in range(8)]
        stats, _ = worker.compute_statistics(draws)
        _, labels = partitions[0].store.assemble_batch(draws)
        before = partitions[0].params.copy()
        worker.update_model(model.coefficients(stats, labels))
        assert not np.array_equal(before, partitions[0].params)

    def test_only_partitions_filter(self, worker_setup):
        _, model, partitions, _ = worker_setup
        worker = ColumnWorker(0, model, partitions)
        draws = [(0, i) for i in range(4)]
        stats, _ = worker.compute_statistics(draws)
        _, labels = partitions[0].store.assemble_batch(draws)
        before1 = partitions[1].params.copy()
        worker.update_model(model.coefficients(stats, labels), only_partitions={0})
        assert np.array_equal(before1, partitions[1].params)

    def test_cached_batch_nnz(self, worker_setup):
        _, model, partitions, _ = worker_setup
        worker = ColumnWorker(0, model, partitions)
        assert worker.cached_batch_nnz() == 0
        _, nnz = worker.compute_statistics([(0, 0), (0, 1)])
        assert worker.cached_batch_nnz() == nnz

    def test_fail_and_recover(self, worker_setup):
        _, model, partitions, _ = worker_setup
        worker = ColumnWorker(0, model, [partitions[0]])
        worker.fail()
        assert worker.failed
        with pytest.raises(WorkerFailedError):
            worker.compute_statistics([(0, 0)])
        worker.recover([partitions[0]])
        assert not worker.failed
        worker.compute_statistics([(0, 0)])

    def test_bookkeeping(self, worker_setup):
        _, model, partitions, _ = worker_setup
        worker = ColumnWorker(0, model, partitions)
        assert worker.stored_bytes() > 0
        assert worker.model_elements() == sum(p.params.size for p in partitions)
        assert worker.partition_ids() == [0, 1]
