"""Unit tests for Workset and WorksetStore."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.linalg import CSRMatrix
from repro.partition import Workset, WorksetStore


def make_workset(block_id, n_rows=4, n_cols=6, seed=0):
    rng = np.random.default_rng(seed + block_id)
    dense = rng.normal(size=(n_rows, n_cols))
    dense[rng.random(dense.shape) < 0.5] = 0.0
    return Workset(block_id, CSRMatrix.from_dense(dense), rng.choice([-1.0, 1.0], n_rows))


class TestWorkset:
    def test_label_length_checked(self):
        with pytest.raises(PartitionError):
            Workset(0, CSRMatrix.empty(3, 2), np.zeros(2))

    def test_n_rows(self):
        assert make_workset(0).n_rows == 4


class TestWorksetStore:
    @pytest.fixture
    def store(self):
        store = WorksetStore(worker_id=1, local_dim=6)
        for b in range(3):
            store.put(make_workset(b))
        return store

    def test_put_rejects_wrong_dim(self):
        store = WorksetStore(0, local_dim=4)
        with pytest.raises(PartitionError, match="columns"):
            store.put(make_workset(0, n_cols=6))

    def test_put_rejects_duplicates(self, store):
        with pytest.raises(PartitionError, match="duplicate"):
            store.put(make_workset(1))

    def test_get_missing(self, store):
        with pytest.raises(PartitionError, match="no workset"):
            store.get(99)

    def test_block_bookkeeping(self, store):
        assert store.block_ids() == [0, 1, 2]
        assert store.block_sizes() == {0: 4, 1: 4, 2: 4}
        assert store.n_rows == 12
        assert store.nnz > 0
        assert store.stored_bytes() > 0

    def test_assemble_batch_order(self, store):
        draws = [(2, 1), (0, 3), (2, 0), (0, 3)]
        features, labels = store.assemble_batch(draws)
        assert features.shape == (4, 6)
        expected = [
            store.get(2).labels[1],
            store.get(0).labels[3],
            store.get(2).labels[0],
            store.get(0).labels[3],
        ]
        assert labels.tolist() == expected
        assert np.array_equal(
            features.to_dense()[0], store.get(2).features.to_dense()[1]
        )

    def test_assemble_empty(self, store):
        features, labels = store.assemble_batch([])
        assert features.shape == (0, 6)
        assert labels.size == 0

    def test_assemble_bad_offset(self, store):
        with pytest.raises(PartitionError, match="offset"):
            store.assemble_batch([(0, 10)])

    def test_clear(self, store):
        store.clear()
        assert store.n_rows == 0
        assert store.block_ids() == []
