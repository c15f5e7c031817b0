"""Spark MLlib baseline: single master, dense model traffic.

Every iteration the master ships the full dense model to each of the K
workers and aggregates K dense gradients back through its single NIC —
the ``2 K m`` communication of Table I that makes per-iteration time
linear in model size (Table IV's 55.8 s on kdd12).
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.base import BaselineTrainer
from repro.baselines.localexec import RowMasterProgram, RowWorkerProgram
from repro.engine import CommPhase
from repro.net.message import MessageKind
from repro.runtime.deadline import TimeoutPolicy
from repro.runtime.local import LocalRuntime
from repro.storage.serialization import SPARSE_PAIR_BYTES, VALUE_BYTES, dense_vector_bytes


class MLlibTrainer(BaselineTrainer):
    """MLlib-style RowSGD (Algorithm 2 with a single master)."""

    master_program = RowMasterProgram

    def _system_name(self) -> str:
        return "MLlib"

    def _make_local_runtime(self):
        """One :class:`RowWorkerProgram` per process, over its workers'
        horizontal shards."""
        config, K = self.config, self.cluster.n_workers
        runtime = LocalRuntime(
            K,
            processes=config.local_processes,
            timeout=TimeoutPolicy(floor_s=config.local_timeout_s),
        )

        def host_program(workers):
            return RowWorkerProgram(
                model=self.model,
                shards={w: self._partitioner.shard(w) for w in workers},
                n_workers=K,
                base_seed=config.seed,
                batch_size=config.batch_size,
            )

        return runtime, host_program

    def _comm_phases(self) -> Tuple[CommPhase, ...]:
        # Table I, MLlib row: 2 K m dense traffic through the master.
        return (
            CommPhase(
                "pull",
                kind=MessageKind.MODEL_PULL,
                pattern="broadcast",
                sizes="_model_pull_size",
            ),
            CommPhase(
                "push",
                kind=MessageKind.GRADIENT_PUSH,
                pattern="gather",
                sizes="_gradient_push_sizes",
            ),
        )

    def _model_pull_size(self, ctx) -> int:
        return dense_vector_bytes(self.model_elements)

    def _gradient_push_sizes(self, ctx) -> list:
        model_bytes = dense_vector_bytes(self.model_elements)
        return [model_bytes] * self.cluster.n_workers

    def _center_update_seconds(self) -> float:
        # aggregate K gradients + apply the update, all dense on the master
        return self.cluster.cost.dense_work(2 * self.model_elements)

    def _charge_setup_memory(self) -> None:
        model_bytes = self.model_elements * VALUE_BYTES
        # Table I master memory: the model plus the aggregation buffer.
        self.cluster.charge_memory(self.cluster.MASTER, 2 * model_bytes, "model+buffer")
        shard_bytes = self._dataset.nnz * SPARSE_PAIR_BYTES // self.cluster.n_workers
        for w in range(self.cluster.n_workers):
            # shard + pulled model + computed gradient
            self.cluster.charge_memory(w, shard_bytes + 2 * model_bytes, "shard+model")
