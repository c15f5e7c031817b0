"""ColumnSGD on the local multiprocess backend: the two ends of the pipe.

A local round is sequenced by :class:`~repro.engine.RoundEngine` — the
sequential ``RoundSpec`` the simulator also runs, executed against a
:class:`~repro.runtime.LocalRuntime` — so this module holds only what
is backend-specific: :class:`ColumnWorkerProgram`, the handler table
hosted in each worker process; :class:`ColumnMasterProgram`, the
master-side bodies of the phases the spec names; and
:func:`make_local_runtime`, which builds the two for a driver (the
attach is the base trainer's: :meth:`repro.core.trainer.Trainer._train`).

The numerics are the same code the simulator runs —
:class:`~repro.core.worker.ColumnWorker` in the worker processes,
:class:`~repro.core.master.ColumnMaster` at the master — and every
process holds its own copy of the shared
:class:`~repro.partition.indexing.TwoPhaseIndex`, so iteration ``t``'s
draws are identical everywhere without any batch-index traffic (the
paper's deterministic-index trick, now exercised across real process
boundaries).  With ``wire_precision='fp64'`` the codec is raw-byte
lossless and a fixed-seed run reproduces the simulator's trajectory
exactly; ``fp32`` rounds through float32 on encode, matching the
simulated wire's semantics value for value.

Faults are real (``docs/faults.md``): the driver's
:class:`~repro.faults.FaultSchedule` SIGKILLs, stalls, drops and
garbles; the runtime detects death and silence and its
:meth:`~repro.runtime.LocalRuntime.exchange` respawns and re-issues.
This side adds the restore step — the partition's record in the job's
:class:`~repro.core.recovery.CheckpointStore`, else zero-init (rollback,
no replay, like the simulated ``RecoveryManager``) — and the fate of
silent-but-alive workers (``sync_on_exhausted='stale'`` substitutes the
master's cached contribution for the round; anything else escalates).

Bytes are accounted at the *actual* encoded lengths, which equal the
simulator's size model by construction — so a
:class:`~repro.net.protocol.ProtocolChecker` on the local runtime
audits real bytes against the engine-derived Table-I expectations
(retransmissions under the engine's RETRY envelope, checkpoint/restore
traffic as unchecked CHECKPOINT chatter, like the sim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.recovery import restore_partition, snapshot_partition
from repro.core.results import TrainingResult
from repro.core.worker import ColumnWorker
from repro.errors import ConfigurationError
from repro.net.message import Message, MessageKind
from repro.partition.indexing import TwoPhaseIndex
from repro.runtime.deadline import TimeoutPolicy
from repro.runtime.local import LocalRuntime
from repro.storage.serialization import (
    OBJECT_OVERHEAD_BYTES,
    DenseVectorPayload,
    decode_payload,
    encode_payload,
)


@dataclass
class ColumnWorkerProgram:
    """One logical worker's program, hosted in a worker process.

    Ships the worker's partition state plus its own copy of the batch
    index; every op is deterministic in ``(seed, iteration)`` so no
    coordination messages are needed beyond the statistics exchange.
    """

    worker: ColumnWorker
    index: TwoPhaseIndex
    batch_size: int
    wire_precision: str

    def handle(self, op: str, args: dict, payload: Optional[bytes]):
        if op == "compute":
            draws = self.index.sample(int(args["t"]), self.batch_size)
            stats, nnz = self.worker.compute_statistics(draws)
            encoded = encode_payload(
                DenseVectorPayload(stats, precision=self.wire_precision)
            )
            return {"nnz": int(nnz), "shape": list(stats.shape)}, encoded
        if op == "update":
            reduced = decode_payload(payload).values.reshape(args["shape"])
            self.worker.update_model(reduced, int(args["t"]))
            return {}, None
        if op == "checkpoint":
            # one snapshot record per owned partition, back to back; the
            # master slices them apart by the reply's lengths and spills
            records = {
                pid: snapshot_partition(state)
                for pid, state in self.worker.partitions.items()
            }
            return {
                "lengths": {pid: len(record) for pid, record in records.items()}
            }, b"".join(records.values())
        if op == "restore":
            # Post-respawn state reload: roll each freshly forked — and
            # therefore stale — partition back to its record, or
            # zero-init it when the master had none (length -1).
            offset = 0
            for pid, length in args["lengths"].items():
                record = None
                if length >= 0:
                    record = payload[offset : offset + length]
                    offset += length
                restore_partition(self.worker.partitions[pid], record)
            return {}, None
        if op == "draws":
            draws = self.index.sample(int(args["t"]), self.batch_size)
            return {"draws": [tuple(map(int, d)) for d in draws]}, None
        if op == "store_stats":
            # Shard read counters of each owned partition (zeros for
            # in-memory stores).  Out-of-band like "params": the store
            # readers live in *this* process, so the master can only
            # learn their first-touch/hit/bytes tallies through a reply.
            return {
                "stats": {
                    pid: state.store.cache_stats()
                    for pid, state in self.worker.partitions.items()
                }
            }, None
        if op == "params":
            # Out-of-band state fetch for evaluation/final assembly —
            # not message-accounted, matching the simulator's convention
            # that evaluation is free of protocol traffic.
            return {
                "params": {
                    pid: np.array(state.params, copy=True)
                    for pid, state in self.worker.partitions.items()
                }
            }, None
        raise ValueError("unknown op {!r}".format(op))


@dataclass
class ColumnMasterProgram:
    """The master's side of a local round.

    Its methods carry the executor names of the driver's sequential
    ``RoundSpec``, so the engine runs that spec with this object in the
    trainer's place: a compute phase is one
    :meth:`~repro.runtime.LocalRuntime.exchange` with the worker
    processes (per-worker times are the replies' measured handler
    seconds, and the exchange's transport remainder is the seconds of
    the comm phase it carried), the master phase runs under
    ``runtime.measure``, and comm sizes are real encoded lengths.
    """

    driver: object
    runtime: LocalRuntime

    def _strike(self, t: int, events) -> float:
        """Real faults: SIGKILL now, arm stalls/drops/garbles for the
        round's exchanges.  The runtime detects and recovers inside
        those exchanges, whose measured seconds carry the cost."""
        self.runtime.inject_faults(events)
        return 0.0

    def _checkpoint(self, t: int) -> float:
        """Pull every partition's snapshot record and spill it; returns
        the exchange's seconds.  A worker found dead here is recovered
        by the round's first exchange; its partitions keep the previous
        snapshot."""
        runtime, store = self.runtime, self.driver.recovery_manager.checkpoints
        exchange = runtime.run_all("checkpoint", iteration=t, raise_on_fault=False)
        for w, reply in exchange.replies.items():
            runtime.network.send(
                Message(
                    MessageKind.CHECKPOINT,
                    w,
                    Message.MASTER,
                    OBJECT_OVERHEAD_BYTES + len(reply.payload),
                )
            )
            offset = 0
            for pid, length in reply.result["lengths"].items():
                store.write(t, pid, reply.payload[offset : offset + length])
                offset += length
        return exchange.seconds

    def _restore(self, worker: int) -> Tuple[str, dict, bytes]:
        """Restore step for a respawned worker: per partition its
        snapshot record, else zero-init (backup replicas need
        ``backup > 0``, which this backend does not host)."""
        store = self.driver.recovery_manager.checkpoints
        records = {
            pid: store.read(pid) if store.has_snapshot(pid) else None
            for pid in self.driver.groups.partitions_of_worker(worker)
        }
        mode = "zero-init" if None in records.values() else "checkpoint"
        lengths = {
            pid: -1 if record is None else len(record)
            for pid, record in records.items()
        }
        return mode, {"lengths": lengths}, b"".join(
            record for record in records.values() if record is not None
        )

    def _phase_compute_statistics(self, ctx) -> Dict[int, float]:
        """Step 1.  Who is chosen or stale is what the transport
        delivered: a worker silent past every retry leaves its group
        stale for the round when the sync policy allows, else escalates."""
        config = self.driver.config
        exchange = self.runtime.exchange(
            "compute",
            iteration=ctx.t,
            args={"t": ctx.t},
            restore=self._restore,
            tolerate_silent=(
                config.sync_policy != "backup" and config.sync_on_exhausted == "stale"
            ),
        )
        replies = exchange.replies
        ctx.stale_groups = {
            w // self.driver.groups.group_size for w in exchange.failures
        }
        ctx.scratch["payloads"] = {w: replies[w].payload for w in sorted(replies)}
        ctx.scratch["shape"] = replies[min(replies)].result["shape"]
        ctx.comm_seconds["gather"] = exchange.comm_seconds()
        ctx.resends += exchange.retries
        return {w: reply.seconds for w, reply in replies.items()}

    def _statistics_push_sizes(self, ctx) -> List[int]:
        """One push per worker that arrived, at its encoded length."""
        return [len(payload) for payload in ctx.scratch["payloads"].values()]

    def _phase_reduce(self, ctx) -> float:
        """Decode the arrived statistics, reduce, encode the broadcast."""
        payloads, shape = ctx.scratch["payloads"], ctx.scratch["shape"]

        def reduce_step() -> bytes:
            stats_by_worker = {
                w: (
                    decode_payload(payloads[w]).values.reshape(shape)
                    if w in payloads
                    else None
                )
                for w in range(self.runtime.n_workers)
            }
            reduced = self.driver.master.reduce(
                stats_by_worker, stale_groups=ctx.stale_groups or None
            )
            return encode_payload(
                DenseVectorPayload(
                    reduced, precision=self.driver.config.wire_precision
                )
            )

        ctx.scratch["reduced"], seconds = self.runtime.measure(reduce_step)
        return seconds

    def _statistics_size(self, ctx) -> int:
        return len(ctx.scratch["reduced"])

    def _phase_update_model(self, ctx) -> Dict[int, float]:
        """Step 3.  A silent updater already has the frame queued and
        applies it in pipe order before its next op — no numeric
        divergence, so the round proceeds (its RetryEvents are on the
        trace)."""
        exchange = self.runtime.exchange(
            "update",
            iteration=ctx.t,
            args={"t": ctx.t, "shape": ctx.scratch["shape"]},
            payload=ctx.scratch["reduced"],
            restore=self._restore,
            tolerate_silent=True,
        )
        ctx.comm_seconds["broadcast"] = exchange.comm_seconds()
        ctx.resends += exchange.retries
        return {w: reply.seconds for w, reply in exchange.replies.items()}


def make_local_runtime(driver) -> Tuple[LocalRuntime, Dict[int, ColumnWorkerProgram]]:
    """Build (but do not start) the runtime + programs for a driver."""
    config = driver.config
    if driver._index is None:
        raise ConfigurationError("call load() before starting the local backend")
    timeout = TimeoutPolicy(
        alpha=config.sync_alpha,
        floor_s=config.local_timeout_s,
        max_retries=(
            config.sync_max_retries if config.sync_policy == "retry" else 0
        ),
        backoff=config.sync_backoff,
    )
    runtime = LocalRuntime(
        driver.cluster.n_workers,
        processes=config.local_processes,
        timeout=timeout,
    )
    programs = {
        w: ColumnWorkerProgram(
            worker=driver._workers[w],
            index=driver._index,
            batch_size=config.batch_size,
            wire_precision=config.wire_precision,
        )
        for w in range(driver.cluster.n_workers)
    }
    return runtime, programs


def run_local_columnsgd(
    driver,
    iterations: int,
    result: TrainingResult,
    runtime: Optional[LocalRuntime] = None,
) -> TrainingResult:
    """Run ``iterations`` rounds of ``driver`` into ``result`` (which
    already carries the run metadata) on worker processes: a caller's
    started ``runtime`` — benches and tests pass their own — is left
    running, else one is created, started and closed around the run."""
    return driver._train(iterations, result, runtime=runtime)


def sync_params(runtime: LocalRuntime, driver) -> None:
    """Pull model partitions out of the worker processes into the driver.

    The worker processes own the live parameters; evaluation and final
    assembly happen at the master, so this copies them back (an
    out-of-band fetch, like the simulator's free evaluation).
    """
    exchange = runtime.run_all("params")
    for reply in exchange.replies.values():
        for pid, params in reply.result["params"].items():
            driver._partitions[pid].params[...] = params


def collect_store_stats(runtime: LocalRuntime) -> Dict[int, Dict[int, Dict[str, int]]]:
    """Pull per-partition shard cache counters out of the workers.

    Returns ``worker id -> partition id -> counters``; in-memory stores
    report zeros, shard-backed ones the real hit/miss/bytes tallies
    charged in their own process.
    """
    exchange = runtime.run_all("store_stats")
    return {
        w: reply.result["stats"] for w, reply in exchange.replies.items()
    }
