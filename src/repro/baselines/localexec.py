"""RowSGD (MLlib) on the local multiprocess backend: the two ends of the pipe.

Algorithm 2 with one real process per logical worker, sequenced — like
every round in this repo — by :class:`~repro.engine.RoundEngine`
running the trainer's ``RoundSpec`` against a
:class:`~repro.runtime.LocalRuntime`.  One ``gradient`` exchange per
round carries both comm phases: the master ships the full dense model
(codec-encoded, ``MODEL_PULL``), each worker samples its shard-local
batch deterministically (the same ``(seed, iteration, worker)`` routing
as :func:`~repro.partition.row.sample_shard_batch`), computes its *sum*
gradient, and pushes it back (``GRADIENT_PUSH``).  The master sums
contributions in worker order and steps the optimizer —
floating-point-identical to the simulated trainer, which runs the same
code in-process.

Fault tolerance is the easy case of the pipeline in
``repro.core.localexec``: RowSGD workers are *stateless* with respect
to the model (it lives at the master; a shard is just data the master
still holds), so the runtime's death-surviving exchange needs no
restore step — recovering a SIGKILLed process is respawn + nothing,
a ``mode='reload'`` :class:`~repro.engine.trace.RecoveryEvent` — and
the gradient op is a pure function of ``(model payload, t, w)`` so the
re-issued exchange is numerically exact.  Stalled workers are absorbed
by the deadline/retry transport; workers silent past every deadline
raise :class:`~repro.errors.WorkerUnresponsiveError` (MLlib's plain BSP
barrier has no stale-statistics substitute).

Only the MLlib baseline is ported (``MLlibTrainer`` hosts the two
programs below): it is the paper's Table-IV comparison point, and its
model lives at the master so evaluation needs no parameter sync.  The
other baselines (parameter servers, SSP, model averaging) remain
simulator-only and say so loudly —
:meth:`repro.core.trainer.Trainer._make_local_runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.base import shard_gradient
from repro.datasets.dataset import Dataset
from repro.errors import TrainingError
from repro.models.base import StatisticsModel
from repro.partition.row import sample_shard_batch
from repro.runtime.local import LocalRuntime
from repro.storage.serialization import (
    DenseVectorPayload,
    decode_payload,
    encode_payload,
)


@dataclass
class RowWorkerProgram:
    """The RowSGD workers of one host: their horizontal shards and
    deterministic sampling.  They share nothing a host could compute
    once, so the host step is empty."""

    model: StatisticsModel
    shards: Dict[int, Dataset]
    n_workers: int
    base_seed: int
    batch_size: int

    def host_step(self, op: str, args: dict, payload: Optional[bytes]) -> None:
        return None

    def handle(self, worker: int, op: str, args: dict, payload: Optional[bytes], shared):
        if op == "gradient":
            params = decode_payload(payload).values.reshape(args["shape"])
            local = sample_shard_batch(
                self.shards[worker],
                base_seed=self.base_seed,
                iteration=int(args["t"]),
                batch_size=self.batch_size,
                worker=worker,
                n_workers=self.n_workers,
            )
            # shipped dense: RowSGD's O(m) message
            contribution = (
                shard_gradient(self.model, local, params).to_dense()
                if local.n_rows else np.zeros_like(params)
            )
            encoded = encode_payload(DenseVectorPayload(contribution))
            return {
                "n_rows": int(local.n_rows),
                "nnz": int(local.nnz),
                "shape": list(contribution.shape),
            }, encoded
        raise ValueError("unknown op {!r}".format(op))


@dataclass
class RowMasterProgram:
    """The master's side of a local MLlib round.

    Its methods carry the executor names ``MLlibTrainer.round_spec()``
    declares, so the engine runs that spec with this object in the
    trainer's place.
    """

    trainer: object
    runtime: LocalRuntime

    def _phase_compute_gradients(self, ctx) -> Dict[int, float]:
        """Ship the model, collect every shard's sum gradient."""
        params = self.trainer._params
        model_payload = encode_payload(DenseVectorPayload(params))
        exchange = self.runtime.exchange(
            "gradient",
            iteration=ctx.t,
            args={"t": ctx.t, "shape": list(params.shape)},
            payload=model_payload,
        )
        ctx.scratch["model_payload"] = model_payload
        ctx.scratch["replies"] = exchange.replies
        # the command and the reply ride the same round-trip, so the even
        # pull/push split is a rendering convention
        ctx.comm_seconds["pull"] = ctx.comm_seconds["push"] = (
            exchange.comm_seconds() / 2.0
        )
        ctx.resends += exchange.retries
        return {w: reply.seconds for w, reply in exchange.replies.items()}

    def _model_pull_size(self, ctx) -> int:
        return len(ctx.scratch["model_payload"])

    def _gradient_push_sizes(self, ctx) -> List[int]:
        replies = ctx.scratch["replies"]
        return [len(replies[w].payload) for w in sorted(replies)]

    def _phase_center_update(self, ctx) -> float:
        """Sum the contributions in worker order, then step."""
        trainer, replies = self.trainer, ctx.scratch["replies"]
        params = trainer._params

        def center_update() -> None:
            grad_sum = np.zeros_like(params)
            batch_rows = 0
            for w in sorted(replies):
                reply = replies[w]
                grad_sum += decode_payload(reply.payload).values.reshape(
                    params.shape
                )
                batch_rows += reply.result["n_rows"]
            if batch_rows == 0:
                raise TrainingError("empty global batch")
            trainer.optimizer.step(params, grad_sum / batch_rows)

        _, seconds = self.runtime.measure(center_update)
        return seconds
