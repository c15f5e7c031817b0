"""MXNet-style parameter server: sparse pulls.

Like Petuum but workers pull only the coordinates their local batch
touches, so the pull volume scales with ``B/K * nnz_per_row`` instead of
``m``.  The per-iteration server-side dense scan remains — that is why
MXNet's per-iteration time still grows with model size in Table IV, and
why ColumnSGD overtakes it once models get large while losing to it on
small-model avazu.
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.parameter_server import ParameterServerTrainer
from repro.engine import CommPhase
from repro.net.message import MessageKind
from repro.storage.serialization import SPARSE_PAIR_BYTES, VALUE_BYTES


class SparsePSTrainer(ParameterServerTrainer):
    """MXNet-style PS RowSGD (sparse pull + sparse push)."""

    def _system_name(self) -> str:
        return "MXNet"

    def _comm_phases(self) -> Tuple[CommPhase, ...]:
        # Table I, MXNet row: both directions scale with the batch's nnz.
        return (
            CommPhase(
                "pull",
                kind=MessageKind.MODEL_PULL,
                pattern="gather",
                sizes="_gradient_push_sizes",
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

    def _charge_setup_memory(self) -> None:
        model_bytes = self.model_elements * VALUE_BYTES
        # Same dense init at the driver as Petuum (KVStore init path);
        # workers only buffer the sparse rows they pull.
        self.cluster.charge_memory(self.cluster.MASTER, 2 * model_bytes, "dense model init")
        shard_bytes = self._dataset.nnz * SPARSE_PAIR_BYTES // self.cluster.n_workers
        ppf = self.model.params_per_feature()
        batch_buffer = int(
            2
            * (self.config.batch_size / self.cluster.n_workers)
            * max(self._dataset.nnz / max(self._dataset.n_rows, 1), 1.0)
            * ppf
            * SPARSE_PAIR_BYTES
        )
        server_shard = 2 * model_bytes // self.n_servers
        for w in range(self.cluster.n_workers):
            self.cluster.charge_memory(
                w, shard_bytes + batch_buffer + server_shard, "shard+buffers+server"
            )
