"""MLlib* baseline: model averaging with AllReduce (Zhang et al., 2019).

Each worker keeps a local model copy; per iteration it takes a local
mini-batch, steps its own optimizer, and then all copies are averaged
with a ring AllReduce.  Statistically this is *not* mini-batch SGD — the
averaging reduces variance, which is why the paper observes MLlib*
sometimes converging to a lower loss (their Fig 8 discussion) — so this
trainer overrides the whole :meth:`round_spec` rather than just the
communication phases.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.base import BaselineTrainer
from repro.datasets.dataset import Dataset
from repro.engine import BarrierSync, CommPhase, ComputePhase, MasterPhase, RoundSpec
from repro.net.message import MessageKind
from repro.storage.serialization import SPARSE_PAIR_BYTES, VALUE_BYTES, dense_vector_bytes


class MLlibStarTrainer(BaselineTrainer):
    """Model-averaging RowSGD with AllReduce synchronisation.

    ``local_steps`` mini-batch updates run on each worker between
    averaging rounds (MLlib* batches work locally to trade statistical
    efficiency for hardware efficiency; with 1 local step and plain SGD
    the method degenerates to exact mini-batch SGD).
    """

    def __init__(self, *args, local_steps: int = 4, **kwargs):
        super().__init__(*args, **kwargs)
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        self.local_steps = int(local_steps)

    def _system_name(self) -> str:
        return "MLlib*"

    def load(self, dataset: Dataset):
        report = super().load(dataset)
        self._local_params: List[np.ndarray] = [
            np.array(self._params, copy=True) for _ in range(self.cluster.n_workers)
        ]
        self._local_optimizers = [
            self.optimizer.spawn() for _ in range(self.cluster.n_workers)
        ]
        return report

    def round_spec(self) -> RoundSpec:
        # Ring AllReduce: 2(K-1) hops, each carrying a 1/K model chunk.
        return RoundSpec(
            system=self._system_name(),
            sync=BarrierSync(),
            phases=(
                ComputePhase(
                    "local_steps", run="_phase_local_steps", synchronized=True
                ),
                CommPhase(
                    "allreduce",
                    kind=MessageKind.MODEL_AVG,
                    pattern="allreduce",
                    sizes="_model_avg_size",
                ),
                MasterPhase("apply_average", run="_phase_apply_average"),
            ),
        )

    def _phase_local_steps(self, ctx) -> Dict[int, float]:
        width = self.model.statistics_width
        per_worker: Dict[int, float] = {}
        for w in range(self.cluster.n_workers):
            busy = 0.0
            for s in range(self.local_steps):
                local = self._partitioner.sample_local_batch(
                    ctx.t * self.local_steps + s, self.config.batch_size, w
                )
                if local.n_rows:
                    stats = self.model.compute_statistics(
                        local.features, self._local_params[w]
                    )
                    gradient = self.model.gradient_from_statistics(
                        local.features, local.labels,
                        self.model.coefficients(stats, local.labels), self._local_params[w],
                    )
                    self._local_optimizers[w].step(self._local_params[w], gradient)
                busy += self.cluster.cost.sparse_work(local.nnz, passes=2 * width)
            per_worker[w] = (self._task_overhead() + busy) * ctx.slowdowns[w]

        # Model averaging via ring AllReduce (the comm phase charges the
        # wire time; the numerics happen here, once, on the driver).
        averaged = np.mean(self._local_params, axis=0)
        for w in range(self.cluster.n_workers):
            self._local_params[w][...] = averaged
        self._params[...] = averaged
        return per_worker

    def _model_avg_size(self, ctx) -> int:
        return dense_vector_bytes(self.model_elements)

    def _phase_apply_average(self, ctx) -> float:
        return self.cluster.cost.dense_work(self.model_elements)

    def _charge_setup_memory(self) -> None:
        model_bytes = self.model_elements * VALUE_BYTES
        shard_bytes = self._dataset.nnz * SPARSE_PAIR_BYTES // self.cluster.n_workers
        # no heavyweight master; each worker holds its local copy + buffers
        for w in range(self.cluster.n_workers):
            self.cluster.charge_memory(w, shard_bytes + 3 * model_bytes, "shard+copies")
