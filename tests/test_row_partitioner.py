"""Unit tests for the RowSGD row partitioner."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition import RowPartitioner


def shard_sizes(part):
    return [part.shard(w).n_rows for w in range(part.n_workers)]


class TestRowPartitioner:
    def test_shards_cover_all_rows(self, tiny_binary):
        part = RowPartitioner(tiny_binary, 4)
        assert sum(shard_sizes(part)) == tiny_binary.n_rows

    def test_shards_balanced(self, tiny_binary):
        sizes = shard_sizes(RowPartitioner(tiny_binary, 7))
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_by_default(self, tiny_binary):
        part = RowPartitioner(tiny_binary, 3)
        first = part.shard(0)
        assert np.array_equal(first.labels, tiny_binary.labels[: first.n_rows])

    def test_shuffled_changes_layout(self, tiny_binary):
        plain = RowPartitioner(tiny_binary, 3, shuffled=False)
        shuffled = RowPartitioner(tiny_binary, 3, shuffled=True, seed=1)
        assert not np.array_equal(plain.shard(0).labels, shuffled.shard(0).labels)

    def test_batch_share_sums_to_batch(self, tiny_binary):
        part = RowPartitioner(tiny_binary, 7)
        for batch in (1, 7, 100, 1001):
            shares = [part.sample_local_batch(0, batch, w).n_rows for w in range(7)]
            assert sum(shares) == batch

    def test_sample_deterministic(self, tiny_binary):
        part = RowPartitioner(tiny_binary, 4, seed=3)
        a = part.sample_local_batch(5, 40, 2)
        b = part.sample_local_batch(5, 40, 2)
        assert np.array_equal(a.labels, b.labels)

    def test_sample_sizes(self, tiny_binary):
        part = RowPartitioner(tiny_binary, 4)
        batches = [part.sample_local_batch(0, 10, w) for w in range(4)]
        assert sum(b.n_rows for b in batches) == 10

    def test_sample_rows_from_own_shard(self, tiny_binary):
        part = RowPartitioner(tiny_binary, 2)
        shard_labels = set(part.shard(1).labels.tolist())
        batch = part.sample_local_batch(0, 50, 1)
        assert set(batch.labels.tolist()) <= shard_labels

    def test_workers_use_different_streams(self, tiny_binary):
        part = RowPartitioner(tiny_binary, 2, seed=0)
        a = part.sample_local_batch(0, 20, 0)
        b = part.sample_local_batch(0, 20, 1)
        assert not np.array_equal(a.features.to_dense(), b.features.to_dense())

    def test_too_many_workers(self, tiny_binary):
        with pytest.raises(PartitionError):
            RowPartitioner(tiny_binary, tiny_binary.n_rows + 1)
