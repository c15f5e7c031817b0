"""Row partitioning for the RowSGD baselines.

MLlib & friends shard training data by rows: worker k owns a horizontal
slice and samples its share of each mini-batch locally.  Contiguous
partitioning models HDFS locality (no shuffle); ``shuffled=True`` models
a global repartition for load balance (MLlib-Repartition in Fig 7).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datasets.dataset import Dataset
from repro.errors import PartitionError
from repro.utils.rng import iteration_seed, rng_from_seed
from repro.utils.validation import check_positive


class RowPartitioner:
    """Split a dataset into K horizontal shards and sample batches.

    Sampling follows the RowSGD pattern: in iteration ``t`` each worker
    draws ``ceil(B/K)``-ish rows from *its own shard* (the paper's
    ``B/K`` points per worker), deterministically from (seed, t, worker).
    """

    def __init__(self, dataset: Dataset, n_workers: int, shuffled: bool = False, seed: int = 0):
        check_positive(n_workers, "n_workers")
        if n_workers > dataset.n_rows:
            raise PartitionError(
                "cannot spread {} rows over {} workers".format(dataset.n_rows, n_workers)
            )
        self.n_workers = int(n_workers)
        self.base_seed = int(seed)
        source = dataset.shuffled(rng_from_seed(seed)) if shuffled else dataset
        bounds = np.linspace(0, source.n_rows, self.n_workers + 1).astype(np.int64)
        self._shards: List[Dataset] = [
            source.slice(int(bounds[k]), int(bounds[k + 1])) for k in range(self.n_workers)
        ]

    def shard(self, worker: int) -> Dataset:
        """Worker ``worker``'s horizontal slice."""
        return self._shards[worker]

    def sample_local_batch(self, iteration: int, batch_size: int, worker: int) -> Dataset:
        """Worker-local mini-batch for iteration ``iteration``.

        Deterministic in (base seed, iteration, worker); sampling is with
        replacement, matching the column side's index semantics.
        """
        return sample_shard_batch(
            self._shards[worker],
            base_seed=self.base_seed,
            iteration=iteration,
            batch_size=batch_size,
            worker=worker,
            n_workers=self.n_workers,
        )


def sample_shard_batch(
    shard: Dataset,
    *,
    base_seed: int,
    iteration: int,
    batch_size: int,
    worker: int,
    n_workers: int,
) -> Dataset:
    """Draw worker ``worker``'s share of a batch from its own shard.

    The standalone form of :meth:`RowPartitioner.sample_local_batch`: a
    worker holding only its shard (e.g. a local-backend worker process)
    reproduces the partitioner's draws exactly from
    ``(base_seed, iteration, worker)`` — the single source of truth for
    RowSGD batch routing on every backend.
    """
    check_positive(batch_size, "batch_size")
    check_positive(n_workers, "n_workers")
    base, extra = divmod(batch_size, n_workers)
    share = base + (1 if worker < extra else 0)
    if share == 0:
        return shard.take(np.empty(0, dtype=np.int64))
    rng = rng_from_seed(iteration_seed(base_seed + 7919 * (worker + 1), iteration))
    rows = rng.integers(0, shard.n_rows, size=share)
    return shard.take(rows)
