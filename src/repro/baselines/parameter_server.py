"""Petuum-style parameter server: sharded model, full pulls.

The model lives in S = K server shards (servers colocated with
workers, as the paper configures).  Workers pull *all* dimensions every
iteration — "MLlib and Petuum have to pull all dimensions, which is
apparently inefficient" — but pushes are sparse.  Total bytes match
MLlib; they are merely spread over S NICs, which is the paper's point
about PS architectures.
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.base import BaselineTrainer
from repro.core.analysis import SERVER_SCAN_SECONDS_PER_ELEMENT
from repro.engine import CommPhase
from repro.net.message import MessageKind
from repro.storage.serialization import SPARSE_PAIR_BYTES, VALUE_BYTES, dense_vector_bytes


class ParameterServerTrainer(BaselineTrainer):
    """Petuum-style PS RowSGD (full pull, sparse push)."""

    @property
    def n_servers(self) -> int:
        """One server shard colocated with every worker."""
        return self.cluster.n_workers

    def _system_name(self) -> str:
        return "Petuum"

    def _task_overhead(self) -> float:
        # PS runtimes keep workers hot; no Spark task launch per iteration.
        from repro.sim.cost import PS_TASK_OVERHEAD

        return PS_TASK_OVERHEAD

    def _comm_phases(self) -> Tuple[CommPhase, ...]:
        # Table I, Petuum row: K full-model pulls + K sparse pushes.
        return (
            CommPhase(
                "pull",
                kind=MessageKind.MODEL_PULL,
                pattern="broadcast",
                sizes="_model_pull_size",
                servers="n_servers",
            ),
            CommPhase(
                "push",
                kind=MessageKind.GRADIENT_PUSH,
                pattern="gather",
                sizes="_gradient_push_sizes",
                servers="n_servers",
            ),
        )

    def _model_pull_size(self, ctx) -> int:
        return dense_vector_bytes(self.model_elements)

    def _gradient_push_sizes(self, ctx) -> list:
        """Sparse gradient push bytes per worker (its share of the
        round's batch nnz)."""
        K = self.cluster.n_workers
        ppf = self.model.params_per_feature()
        return [int(ctx.scratch["batch_nnz"] / K * ppf * SPARSE_PAIR_BYTES)] * K

    def _center_update_seconds(self) -> float:
        # per-iteration dense maintenance of each server's shard
        return SERVER_SCAN_SECONDS_PER_ELEMENT * self.model_elements / self.n_servers

    def _charge_setup_memory(self) -> None:
        model_bytes = self.model_elements * VALUE_BYTES
        # PS init materialises the full dense model at the driver before
        # sharding (plus a serialization buffer) — the OOM mechanism of
        # Table V's FM F=50 run.
        self.cluster.charge_memory(self.cluster.MASTER, 2 * model_bytes, "dense model init")
        shard_bytes = self._dataset.nnz * SPARSE_PAIR_BYTES // self.cluster.n_workers
        server_shard = 2 * model_bytes // self.n_servers
        for w in range(self.cluster.n_workers):
            self.cluster.charge_memory(
                w, shard_bytes + 2 * model_bytes + server_shard, "shard+model+server"
            )
