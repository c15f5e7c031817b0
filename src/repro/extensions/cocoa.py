"""CoCoA-style distributed dual coordinate ascent (SDCA local solvers).

The last of the paper's Section VI optimizer families: CoCoA (Jaggi et
al., NIPS 2014) *row*-partitions the data, gives each worker a dual
variable per local example, runs a local SDCA solver between syncs, and
combines the resulting primal updates — "accelerates local computation
in a primal-dual setting, and then combines partial results".  Its
communication is ``O(m)`` model deltas per round, the opposite trade
from ColumnSGD's ``O(B)`` statistics.

Implemented here for L2-regularised least squares (ridge), whose SDCA
coordinate step is closed-form.  Primal/dual relationship::

    w = (1/(lam * n)) X^T alpha
    primal P(w) = 1/(2n) ||X w - y||^2 + lam/2 ||w||^2
    dual   D(a) = -1/(2n) sum_i (a_i^2 / 2 ... )   (not materialised;
                  convergence is asserted against the closed-form optimum)

Per local step on example i (squared loss)::

    delta_i = (y_i - x_i.w - a_i) / (1 + ||x_i||^2 / (lam * n))
    a_i    += delta_i
    w      += delta_i * x_i / (lam * n)      (locally, between syncs)

Per round each worker performs ``local_steps`` such updates on its own
shard, accumulates its primal delta, and the master averages the K
deltas (the safe ``1/K`` combiner of the CoCoA paper) and broadcasts.
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
from repro.errors import TrainingError
from repro.linalg.ops import row_dots
from repro.net.message import MessageKind
from repro.partition.row import RowPartitioner
from repro.sim.cluster import SimulatedCluster
from repro.storage.serialization import dense_vector_bytes
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive


class CoCoATrainer(Trainer):
    """Distributed ridge regression via CoCoA with SDCA local solvers.

    Parameters
    ----------
    lam:
        Ridge strength; must be > 0 (the dual needs strong convexity).
    local_steps:
        SDCA coordinate updates per worker per round; more local work
        means fewer (expensive, O(m)) synchronisations.

    The K local updates are combined with CoCoA+'s sigma' = K subproblem
    scaling: each local quadratic term is inflated K-fold, making the
    summed updates provably safe however strongly the row shards couple
    through shared features.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        lam: float = 0.1,
        local_steps: int = 50,
        iterations: int = 50,
        eval_every: int = 5,
        seed: int = 0,
    ):
        check_positive(lam, "lam")
        check_positive(local_steps, "local_steps")
        check_positive(iterations, "iterations")
        self.cluster = cluster
        self.lam = float(lam)
        self.local_steps = int(local_steps)
        self.iterations = int(iterations)
        self.eval_every = int(eval_every)
        self.seed = int(seed)

        self._dataset: Optional[Dataset] = None
        self._partitioner: Optional[RowPartitioner] = None
        self._w: Optional[np.ndarray] = None
        self._alphas: List[np.ndarray] = []
        self._shard_sq_norms: List[np.ndarray] = []
        self._rngs = None

    # ------------------------------------------------------------------
    def load(self, dataset: Dataset):
        """Row-partition the data; w = 0, all duals = 0."""
        K = self.cluster.n_workers
        self._dataset = dataset
        self._partitioner = RowPartitioner(dataset, K, seed=self.seed)
        self._w = np.zeros(dataset.n_features)
        self._alphas = []
        self._shard_sq_norms = []
        for k in range(K):
            shard = self._partitioner.shard(k)
            self._alphas.append(np.zeros(shard.n_rows))
            norms = np.zeros(shard.n_rows)
            rows_of = np.repeat(
                np.arange(shard.n_rows), shard.features.row_nnz()
            )
            np.add.at(norms, rows_of, shard.features.values() ** 2)
            self._shard_sq_norms.append(norms)
        self._rngs = [rng_from_seed(self.seed * 31 + k) for k in range(K)]
        return None

    def _system_name(self) -> str:
        return "CoCoA+"

    def _result_header(self) -> Dict[str, object]:
        # the per-round work knob stands in for a batch size
        return dict(
            system=self._system_name(),
            model="ridge_sdca",
            dataset=self._dataset.name,
            batch_size=self.local_steps,
        )

    # ------------------------------------------------------------------
    def round_spec(self) -> RoundSpec:
        """One CoCoA round: local SDCA passes, then the O(m) combine —
        workers push primal deltas, the master averages and broadcasts."""
        return RoundSpec(
            system=self._system_name(),
            sync=BarrierSync(),
            phases=(
                ComputePhase(
                    "local_sdca", run="_phase_local_sdca", synchronized=True
                ),
                CommPhase(
                    "push",
                    kind=MessageKind.GRADIENT_PUSH,
                    pattern="gather",
                    sizes="_model_delta_sizes",
                ),
                MasterPhase("combine", run="_phase_combine"),
                CommPhase(
                    "broadcast",
                    kind=MessageKind.MODEL_PULL,
                    pattern="broadcast",
                    sizes="_model_delta_size",
                ),
            ),
        )

    def _phase_local_sdca(self, ctx):
        K = self.cluster.n_workers
        n = self._dataset.n_rows
        lam_n = self.lam * n
        cost = self.cluster.cost
        # CoCoA+'s safe subproblem scaling: inflate each local quadratic
        # term sigma-fold so the K summed updates cannot overshoot.
        sigma = float(K)

        # CoCoA workers keep dense local model replicas by design; the
        # O(d) maintenance is charged in _phase_combine's dense_work
        # (K * w.size), not in the per-row SDCA kernel charged below.
        total_delta_w = np.zeros_like(self._w)
        per_worker = {}
        for k in range(K):
            shard = self._partitioner.shard(k)
            alphas = self._alphas[k]
            sq_norms = self._shard_sq_norms[k]
            local_w = self._w.copy()
            delta_w = np.zeros_like(self._w)  # dense replica, charged in _phase_combine
            picks = self._rngs[k].integers(0, shard.n_rows, size=self.local_steps)
            nnz_touched = 0
            for i in picks:
                row = shard.features.row(int(i))
                nnz_touched += row.nnz
                margin = row.dot(local_w)
                delta = (shard.labels[i] - margin - alphas[i]) / (
                    1.0 + sigma * sq_norms[i] / lam_n
                )
                alphas[i] += delta
                step = delta / lam_n
                # The local view advances sigma-fold (anticipating the
                # other K-1 workers' coupled moves); the global delta is
                # the unscaled step so w == X^T alpha / (lam n) holds.
                for idx, val in zip(row.indices, row.values):
                    local_w[idx] += sigma * step * val
                    delta_w[idx] += step * val
            total_delta_w += delta_w
            per_worker[k] = cost.task_overhead + cost.sparse_work(
                nnz_touched, passes=2
            )

        self._w += total_delta_w
        return per_worker

    def _model_delta_size(self, ctx) -> int:
        return dense_vector_bytes(self._w.size)

    def _model_delta_sizes(self, ctx) -> List[int]:
        return [self._model_delta_size(ctx)] * self.cluster.n_workers

    def _phase_combine(self, ctx) -> float:
        return self.cluster.cost.dense_work(self.cluster.n_workers * self._w.size)

    # ------------------------------------------------------------------
    def current_params(self) -> np.ndarray:
        """The shared primal model."""
        if self._w is None:
            raise TrainingError("call load() first")
        return self._w.copy()

    def evaluate_loss(self, dataset: Optional[Dataset] = None) -> float:
        """Primal objective P(w)."""
        data = dataset if dataset is not None else self._dataset
        residual = row_dots(data.features, self._w) - data.labels
        return float(
            0.5 * np.mean(residual ** 2) + 0.5 * self.lam * np.dot(self._w, self._w)
        )
