"""ColumnSGD worker: collocated data shard(s) + model partition(s).

A worker owns one :class:`PartitionState` per logical partition it
stores — exactly one without backup computation, S+1 with it.  The
worker implements the paper's programming interface (Fig 12):
``init_model`` happens at construction, ``compute_statistics`` is
Algorithm 3's Step 1, ``update_model`` is Step 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import WorkerFailedError
from repro.linalg import CSRMatrix
from repro.models.base import StatisticsModel
from repro.optim.base import Optimizer
from repro.partition.workset import WorksetStore


@dataclass
class PartitionState:
    """One logical (data shard, model partition) pair.

    ``columns`` maps local index -> global feature id; ``params`` has
    shape ``(len(columns),) + model.param_shape(m)[1:]``.
    """

    partition_id: int
    store: WorksetStore
    columns: np.ndarray
    params: np.ndarray
    optimizer: Optimizer

    @property
    def local_dim(self) -> int:
        """Features owned by this partition."""
        return int(self.columns.size)


class ColumnWorker:
    """One logical worker.

    The worker caches the assembled local batch between the statistics
    and update phases (Algorithm 3 reuses ``XB``), and reports the
    non-zeros it touched so the simulator can charge compute time.  The
    cached batch matrix also carries what the kernels derive from it
    once — row segments, and the compaction onto the columns it touches
    — so the update phase neither recomputes them nor does anything
    sized like the partition: the model returns a
    :class:`~repro.linalg.RowGradient` and the optimizer applies it to
    those rows in place.
    """

    def __init__(self, worker_id: int, model: StatisticsModel, partitions: List[PartitionState]):
        self.worker_id = int(worker_id)
        self.model = model
        self.partitions: Dict[int, PartitionState] = {
            p.partition_id: p for p in partitions
        }
        self._cached_batches: Dict[int, Tuple[CSRMatrix, np.ndarray]] = {}
        self.failed = False

    # ------------------------------------------------------------------
    def partition_ids(self) -> List[int]:
        """Logical partitions stored here, sorted."""
        return sorted(self.partitions)

    def _check_alive(self) -> None:
        if self.failed:
            raise WorkerFailedError(self.worker_id)

    # ------------------------------------------------------------------
    # Algorithm 3, Step 1
    # ------------------------------------------------------------------
    def compute_statistics(self, draws, rows=None, labels=None) -> Tuple[np.ndarray, int]:
        """Partial statistics over *all* stored partitions for the batch.

        ``draws`` is the ``(B, 2)`` array of ``TwoPhaseIndex.sample`` (or
        an iterable of ``(block_id, offset)`` pairs); ``rows`` and
        ``labels``, when the host found them, go to every store's
        :meth:`~repro.partition.workset.WorksetStore.assemble_batch`.
        Returns ``(statistics, nnz_touched)``.  The statistics are the
        sum over this worker's partitions — with backup computation that
        is the whole group's contribution, so the master needs one
        response per group.
        """
        self._check_alive()
        self._cached_batches.clear()
        stats = None
        nnz = 0
        for pid in self.partition_ids():
            partition = self.partitions[pid]
            features, batch_labels = partition.store.assemble_batch(draws, rows, labels)
            self._cached_batches[pid] = (features, batch_labels)
            part_stats = self.model.compute_statistics(features, partition.params)
            nnz += features.nnz
            stats = part_stats if stats is None else stats + part_stats
        if stats is None:
            raise WorkerFailedError(self.worker_id)
        return stats, nnz

    # ------------------------------------------------------------------
    # Algorithm 3, Step 3
    # ------------------------------------------------------------------
    def update_model(self, coefficients, only_partitions: Optional[set] = None) -> None:
        """Compute local gradients from the batch's coefficients (the
        model's ``coefficients`` of the complete statistics) and update.

        ``only_partitions`` restricts the update (the round body uses it
        so each replicated partition is numerically updated exactly once,
        while time is still charged for every replica).
        """
        self._check_alive()
        for pid in self.partition_ids():
            if only_partitions is not None and pid not in only_partitions:
                continue
            partition = self.partitions[pid]
            if pid not in self._cached_batches:
                raise WorkerFailedError(self.worker_id)
            features, labels = self._cached_batches[pid]
            gradient = self.model.gradient_from_statistics(
                features, labels, coefficients, partition.params
            )
            partition.optimizer.step(partition.params, gradient)

    # ------------------------------------------------------------------
    # bookkeeping used by the driver's cost model
    # ------------------------------------------------------------------
    def cached_batch_nnz(self) -> int:
        """Non-zeros in the currently cached mini-batch, all partitions."""
        return sum(features.nnz for features, _ in self._cached_batches.values())

    def stored_bytes(self) -> int:
        """Data-shard footprint in bytes."""
        return sum(p.store.stored_bytes() for p in self.partitions.values())

    def model_elements(self) -> int:
        """Model parameters stored here (all replicas)."""
        return sum(p.params.size for p in self.partitions.values())

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the worker: data and cached state become unavailable."""
        self.failed = True
        self._cached_batches.clear()

    def recover(self, partitions: List[PartitionState]) -> None:
        """Restart with reloaded partitions (fresh optimizer state)."""
        self.partitions = {p.partition_id: p for p in partitions}
        self._cached_batches.clear()
        self.failed = False
