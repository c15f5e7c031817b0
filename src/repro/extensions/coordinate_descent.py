"""Distributed coordinate descent on column partitions (Hydra-style).

The paper's related work contrasts ColumnSGD with coordinate-descent
systems (Hydra, CoCoA) that access data column-wise *natively*.  This
module implements that family for ridge regression so the repository can
run the comparison:

    minimise  (1/2N) ||X w - y||^2  +  (lam/2) ||w||^2

Each worker owns a column shard (the same worksets ColumnSGD loads) and
keeps a full residual copy ``r = X w - y``.  Per round, every worker
exactly minimises a sample of *its own* coordinates against its local
residual, then the master sums the residual deltas and broadcasts the
total — communication is ``O(N)`` per round versus ColumnSGD's
``O(B)``, which is precisely the trade the paper's discussion points at.

Because the residual is linear in ``w``, the synchronized residual stays
*exactly* ``X w - y`` regardless of cross-worker staleness inside a
round (tests assert this); staleness only affects update quality.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.trainer import Trainer
from repro.datasets.dataset import Dataset
from repro.engine import (
    BarrierSync,
    CommPhase,
    ComputePhase,
    MasterPhase,
    RoundSpec,
)
from repro.linalg import CSRMatrix
from repro.net.message import MessageKind
from repro.partition.column import make_assignment
from repro.partition.dispatch import dispatch_block_based
from repro.sim.cluster import SimulatedCluster
from repro.storage.serialization import dense_vector_bytes
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_non_negative, check_positive


class _ColumnShard:
    """One worker's shard in column-major form (CD needs column access)."""

    def __init__(self, features: CSRMatrix):
        self.n_rows = features.n_rows
        self.local_dim = features.n_cols
        order = np.argsort(features.indices, kind="stable")
        rows_of_entries = np.repeat(np.arange(features.n_rows), features.row_nnz())
        cols_sorted = features.indices[order]
        self._rows = rows_of_entries[order]
        self._vals = features.values()[order]
        counts = np.bincount(cols_sorted, minlength=self.local_dim)
        self._colptr = np.zeros(self.local_dim + 1, dtype=np.int64)
        np.cumsum(counts, out=self._colptr[1:])
        self.col_sq_norms = np.zeros(self.local_dim)
        np.add.at(self.col_sq_norms, cols_sorted, self._vals ** 2)
        self.nnz = int(self._vals.size)

    def column(self, j: int):
        """(row ids, values) of local column ``j``."""
        lo, hi = self._colptr[j], self._colptr[j + 1]
        return self._rows[lo:hi], self._vals[lo:hi]


class RidgeCDTrainer(Trainer):
    """Distributed ridge regression via parallel coordinate descent.

    Parameters
    ----------
    lam:
        L2 regularisation strength (0 = plain least squares).

    Each worker updates 1/4 of its local coordinates per round, with
    undamped steps: fine for sparse data where cross-worker columns
    rarely collide.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        lam: float = 0.0,
        iterations: int = 100,
        eval_every: int = 10,
        seed: int = 0,
    ):
        check_non_negative(lam, "lam")
        check_positive(iterations, "iterations")
        self.cluster = cluster
        self.lam = float(lam)
        self.iterations = int(iterations)
        self.eval_every = int(eval_every)
        self.seed = int(seed)

        self._dataset: Optional[Dataset] = None
        self._assignment = None
        self._shards: List[_ColumnShard] = []
        self._weights: List[np.ndarray] = []
        self._residual: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None
        self._rngs = None

    # ------------------------------------------------------------------
    def load(self, dataset: Dataset):
        """Column-partition the data; initialise w = 0, r = -y."""
        K = self.cluster.n_workers
        self._dataset = dataset
        self._assignment = make_assignment("round_robin", dataset.n_features, K)
        stores, _, report = dispatch_block_based(
            dataset, self._assignment, self.cluster
        )
        # Blocks are dispatched in row order, so each store's resident
        # shard already is the worker's column slice of the whole dataset.
        self._labels = stores[0].labels
        self._shards = [_ColumnShard(store.shard) for store in stores]
        self._weights = [np.zeros(shard.local_dim) for shard in self._shards]
        self._residual = -self._labels
        self._rngs = [
            rng_from_seed(self.seed * 1000003 + k + 1) for k in range(K)
        ]
        return report

    def _result_header(self) -> Dict[str, object]:
        # no mini-batch: a round works on coordinates, not on rows
        return dict(
            system="RidgeCD",
            model="ridge_cd",
            dataset=self._dataset.name,
            batch_size=0,
        )

    # ------------------------------------------------------------------
    def round_spec(self) -> RoundSpec:
        """One CD round: local exact coordinate minimisations, then the
        O(N) residual-delta gather/sum/broadcast."""
        return RoundSpec(
            system="RidgeCD",
            sync=BarrierSync(),
            phases=(
                ComputePhase("local_cd", run="_phase_local_cd", synchronized=True),
                CommPhase(
                    "push",
                    kind=MessageKind.STATISTICS_PUSH,
                    pattern="gather",
                    sizes="_residual_sizes",
                ),
                MasterPhase("reduce", run="_phase_reduce"),
                CommPhase(
                    "broadcast",
                    kind=MessageKind.STATISTICS_BCAST,
                    pattern="broadcast",
                    sizes="_residual_size",
                ),
            ),
        )

    def _phase_local_cd(self, ctx):
        n = self._dataset.n_rows
        cost = self.cluster.cost
        total_delta = np.zeros(n)
        per_worker = {}
        for k, shard in enumerate(self._shards):
            want = max(1, shard.local_dim // 4)
            want = min(want, shard.local_dim)
            coords = self._rngs[k].choice(shard.local_dim, size=want, replace=False)
            local_residual = self._residual.copy()
            local_delta = np.zeros(n)
            nnz_touched = 0
            for j in coords:
                rows, vals = shard.column(int(j))
                nnz_touched += rows.size
                curvature = shard.col_sq_norms[j] / n + self.lam
                if curvature == 0.0:
                    continue
                gradient = float(np.dot(vals, local_residual[rows])) / n
                gradient += self.lam * self._weights[k][j]
                delta = -gradient / curvature
                self._weights[k][j] += delta
                local_residual[rows] += delta * vals
                local_delta[rows] += delta * vals
            total_delta += local_delta
            per_worker[k] = cost.task_overhead + cost.sparse_work(
                nnz_touched, passes=2
            )
        ctx.scratch["total_delta"] = total_delta
        return per_worker

    def _residual_size(self, ctx) -> int:
        return dense_vector_bytes(self._dataset.n_rows)

    def _residual_sizes(self, ctx) -> List[int]:
        return [self._residual_size(ctx)] * self.cluster.n_workers

    def _phase_reduce(self, ctx) -> float:
        # master sums residual deltas and broadcasts the total: O(N)
        self._residual += ctx.scratch["total_delta"]
        return self.cluster.cost.dense_work(
            self.cluster.n_workers * self._dataset.n_rows
        )

    # ------------------------------------------------------------------
    def current_params(self) -> np.ndarray:
        """Full weight vector assembled from the partitions."""
        full = np.zeros(self._dataset.n_features)
        for k in range(self.cluster.n_workers):
            full[self._assignment.columns_of(k)] = self._weights[k]
        return full

    def residual(self) -> np.ndarray:
        """The synchronized residual ``X w - y``."""
        return self._residual.copy()

    def evaluate_loss(self, dataset: Optional[Dataset] = None) -> float:
        """Objective value (mean squared residual / 2 + ridge penalty)."""
        if dataset is None:
            r = self._residual
            w = self.current_params()
            return float(0.5 * np.mean(r ** 2) + 0.5 * self.lam * np.dot(w, w))
        from repro.linalg.ops import row_dots

        w = self.current_params()
        r = row_dots(dataset.features, w) - dataset.labels
        return float(0.5 * np.mean(r ** 2) + 0.5 * self.lam * np.dot(w, w))
