"""ColumnSGD's round, written once: the host program and the master's bodies.

:class:`ColumnHostProgram` runs the logical workers of one host: the
simulated cluster hosts all K in-process
(:meth:`~repro.sim.SimulatedCluster.host`), the local backend a share
in each worker process (:func:`make_local_runtime`).  :class:`ColumnMasterProgram`
carries the executor names of the driver's ``RoundSpec`` — Algorithm 3's
computeStatistics, reduceStatistics and updateModel — written against
the substrate's ``exchange`` / ``measure``, which the simulator answers
with modelled seconds and :class:`~repro.runtime.LocalRuntime` with
measured ones.

Every host samples round ``t``'s batch from the shared
:class:`~repro.partition.indexing.TwoPhaseIndex` (no batch-index
traffic), and statistics cross the wire through the codec on both
backends (``fp32`` rounds on encode; a comm phase accounts the encoded
lengths, equal to the Table-I byte model), so a fixed-seed run is the
same model on either.  S-backup lives in the bodies: the sync policy
picks the first finisher per group, the master reduces one contribution
per group, and the update exchange names each partition's one updater.
Every failure an exchange reports is an ``inf`` finish; a worker silent
past every deadline (local, ``timeout`` / ``retry`` policies) leaves
its group stale for the round.  Real faults (``docs/faults.md``) are the
runtime's; this side adds the checkpoint spill and the restore step
(:func:`~repro.core.recovery.plan_restore`), the same on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.recovery import (
    apply_restore,
    pack_records,
    plan_restore,
    snapshot_partition,
    unpack_records,
)
from repro.core.results import TrainingResult
from repro.core.worker import ColumnWorker
from repro.engine.policy import SYNC_RETRIES
from repro.errors import ConfigurationError, PartitionError, WorkerFailedError
from repro.models.base import StatisticsModel
from repro.net.message import Message, MessageKind
from repro.partition.indexing import TwoPhaseIndex, rows_of_draws
from repro.runtime.deadline import TimeoutPolicy
from repro.runtime.local import LocalRuntime
from repro.storage.serialization import (
    OBJECT_OVERHEAD_BYTES,
    DenseVectorPayload,
    decode_payload,
    encode_payload,
)


@dataclass
class ColumnHostProgram:
    """The ColumnSGD workers of one host, on either backend.

    Per request frame the substrate runs :meth:`host_step` once — what
    the paper makes the same on every worker: the draws, their rows and
    labels, the broadcast's coefficients — then :meth:`handle` per
    targeted worker with its result: that shard's features, kernels,
    optimizer step and reply.  Every op is deterministic in ``(seed,
    iteration)``; the round's ops reply with the work they did (``nnz``
    stored entries, ``passes`` over each), which the simulator charges.
    """

    workers: Dict[int, ColumnWorker]
    model: StatisticsModel
    index: TwoPhaseIndex
    batch_size: int
    wire_precision: str

    def __post_init__(self):
        stores = [p.store for w in self.workers.values() for p in w.partitions.values()]
        #: the block layout every hosted store shares, checked as each joins
        self.layout = stores[0].block_layout()
        for store in stores[1:]:
            if not all(map(np.array_equal, self.layout, store.block_layout())):
                raise PartitionError(
                    "worker {}'s store has another block layout than its host's".format(
                        store.worker_id
                    )
                )
        #: the store the host reads a batch's labels through
        self.labels_from = stores[0]
        #: this round's ``(draws, rows, labels)``, from ``compute`` to
        #: ``update`` (the workers keep their features as long)
        self.batch: Optional[tuple] = None

    def host_step(self, op: str, args: dict, payload: Optional[bytes]):
        """The frame's shared steps; what every worker's :meth:`handle`
        receives as ``shared``.  A host that holds no batch (a respawned
        process sent ``update`` alone) shares nothing, and each updater
        fails on its missing batch."""
        if op == "compute":
            draws = self.index.sample(args["t"], self.batch_size)
            rows = rows_of_draws(draws, *self.layout)
            self.batch = (draws, rows, self.labels_from.batch_labels(draws, rows))
            return self.batch
        if op == "update" and self.batch is not None:
            reduced = decode_payload(payload, copy=False).values.reshape(args["shape"])
            return self.model.coefficients(reduced, self.batch[2])
        return None

    def handle(self, w: int, op: str, args: dict, payload: Optional[bytes], shared):
        worker = self.workers[w]
        if op == "compute":
            stats, nnz = worker.compute_statistics(*shared)
            encoded = encode_payload(
                DenseVectorPayload(stats, precision=self.wire_precision)
            )
            return {
                "nnz": int(nnz),
                "passes": self.model.statistics_width,
                "shape": list(stats.shape),
            }, encoded
        if op == "update":
            worker.update_model(
                shared,
                only_partitions={p for p, u in args["updater_of"].items() if u == w},
            )
            # every replica this worker maintains is charged, though each
            # partition was numerically updated once, by its updater
            return {
                "nnz": worker.cached_batch_nnz(),
                "passes": self.model.statistics_width,
            }, None
        if op == "checkpoint":
            # one snapshot record per owned partition, packed; no compute
            # work to charge, and nothing from a failed worker
            if worker.failed:
                raise WorkerFailedError(worker.worker_id)
            lengths, blob = pack_records(
                {
                    pid: snapshot_partition(state)
                    for pid, state in worker.partitions.items()
                }
            )
            return {"nnz": 0, "passes": 0, "lengths": lengths}, blob
        if op == "restore":
            # Post-respawn state reload: the forked — and therefore
            # stale — partitions take what the master shipped.
            apply_restore(worker.partitions, args["lengths"], payload)
            return {}, None
        if op == "store_stats":
            # Shard read counters of each owned partition (zeros for
            # in-memory stores).  Out-of-band like "params": the store
            # readers live in *this* process, so the master can only
            # learn their first-touch/hit/bytes tallies through a reply.
            return {
                "stats": {
                    pid: state.store.cache_stats()
                    for pid, state in worker.partitions.items()
                }
            }, None
        if op == "params":
            # Out-of-band state fetch for evaluation/final assembly —
            # not message-accounted, matching the simulator's convention
            # that evaluation is free of protocol traffic.
            return {
                "params": {
                    pid: np.array(state.params, copy=True)
                    for pid, state in worker.partitions.items()
                }
            }, None
        raise ValueError("unknown op {!r}".format(op))


@dataclass
class ColumnMasterProgram:
    """The master's side of a round, run by the engine in the trainer's
    place.  ``runtime`` is the substrate hosting the host programs:
    the :class:`~repro.sim.SimulatedCluster` or a
    :class:`~repro.runtime.LocalRuntime`.
    """

    driver: object
    runtime: object

    def spill_checkpoint(self, t: int, struck) -> float:
        """Write every partition's snapshot record to the job's
        checkpoint store; returns the seconds.

        Each partition is written once, from its first replica that
        answered and is not in ``struck`` (round ``t``'s WORKER victims,
        dead on ``local``, recovered at the strike on ``sim``), as one
        CHECKPOINT message per record.  A partition with no such replica
        keeps its previous record.  Seconds are the exchange's measured
        ones, or modelled: the slowest writer's bytes to stable storage.
        """
        runtime, manager = self.runtime, self.driver.recovery_manager
        exchange = runtime.run_all("checkpoint", iteration=t, raise_on_fault=False)
        writes: Dict[int, Tuple[int, bytes]] = {}  # partition -> (writer, record)
        for w in sorted(exchange.replies.keys() - struck):
            reply = exchange.replies[w]
            for p, record in unpack_records(reply.result["lengths"], reply.payload).items():
                writes.setdefault(p, (w, record))
        per_worker: Dict[int, int] = {}
        for p, (w, record) in sorted(writes.items()):
            manager.checkpoints.write(t, p, record)
            size = OBJECT_OVERHEAD_BYTES + len(record)
            runtime.network.send(Message(MessageKind.CHECKPOINT, w, Message.MASTER, size))
            per_worker[w] = per_worker.get(w, 0) + size
        if exchange.seconds is not None:
            return exchange.seconds
        return manager.storage_seconds(max(per_worker.values(), default=0))

    def _restore(self, worker: int) -> Tuple[str, dict, bytes]:
        """Restore step for a respawned worker (:func:`plan_restore`;
        backup replicas need ``backup > 0``, which the local backend does
        not host)."""
        mode, lengths, blob, _ = plan_restore(
            self.driver.recovery_manager.checkpoints,
            self.runtime.network,
            worker,
            self.driver.groups.partitions_of_worker(worker),
        )
        return mode, {"lengths": lengths}, blob

    @staticmethod
    def _carried(ctx, phase: str, exchange) -> None:
        """``phase``'s frames rode ``exchange``: a measured one's transport
        remainder replaces the phase's modelled seconds."""
        if exchange.seconds is not None:
            ctx.comm_seconds[phase] = exchange.comm_seconds()
        ctx.resends += exchange.retries

    def _phase_compute_statistics(self, ctx) -> Dict[int, float]:
        """Step 1 on every worker; a failed worker finishes at ``inf``
        and a silent one leaves its group stale for the round."""
        config = self.driver.config
        exchange = self.runtime.exchange(
            "compute",
            iteration=ctx.t,
            args={"t": ctx.t},
            restore=self._restore,
            tolerate_silent=config.sync_policy != "backup",
        )
        replies = exchange.replies
        ctx.stale_groups = {
            self.driver.groups.group_of(w) for w in exchange.silent_workers()
        }
        ctx.scratch["replies"] = replies
        self._carried(ctx, "gather", exchange)
        return {
            w: replies[w].seconds if w in replies else float("inf")
            for w in range(self.runtime.n_workers)
        }

    def _statistics_push_sizes(self, ctx) -> List[int]:
        """One push per worker the sync policy chose, at its encoded length."""
        replies = ctx.scratch["replies"]
        return [len(replies[w].payload) for w in sorted(ctx.chosen)]

    def _phase_reduce(self, ctx) -> float:
        """Decode the statistics of each group's earliest replier
        (``BackupGroups.cover``), sum one contribution per group
        (reduceStatistics), pass the sum through the model's
        ``master_step`` and encode what it returns as the broadcast.
        Only a model whose step asks for them reads the batch's labels:
        the dataset's, at the rows every worker draws."""
        driver, replies = self.driver, ctx.scratch["replies"]
        live, _ = driver.groups.cover({w: reply.seconds for w, reply in replies.items()})
        ctx.scratch["live"] = live
        index, B, width = driver._index, driver.config.batch_size, driver.model.statistics_width

        def reduce_step() -> Tuple[List[int], bytes]:
            stats_by_group = {
                g: decode_payload(replies[w].payload, copy=False).values.reshape(
                    replies[w].result["shape"]
                )
                for g, w in live.items()
            }
            reduced = driver.model.master_step(
                driver.master.reduce(stats_by_group, ctx.stale_groups),
                lambda: driver._dataset.labels[index.to_global_rows(index.sample(ctx.t, B))],
                driver.optimizer,
            )
            return list(reduced.shape), encode_payload(
                DenseVectorPayload(reduced, precision=driver.config.wire_precision)
            )

        (ctx.scratch["shape"], ctx.scratch["reduced"]), seconds = self.runtime.measure(
            reduce_step, len(ctx.chosen) * B * width
        )
        return seconds

    def _statistics_size(self, ctx) -> int:
        return len(ctx.scratch["reduced"])

    def _phase_update_model(self, ctx) -> Dict[int, float]:
        """Step 3 on every worker; killed replicas are not charged.

        A silent updater already has the frame queued and applies it in
        pipe order before its next op — no numeric divergence, so the
        round proceeds (its RetryEvents are on the trace)."""
        exchange = self.runtime.exchange(
            "update",
            iteration=ctx.t,
            args={
                "shape": ctx.scratch["shape"],
                "updater_of": self._updaters(ctx),
            },
            payload=ctx.scratch["reduced"],
            restore=self._restore,
            tolerate_silent=True,
        )
        self._carried(ctx, "broadcast", exchange)
        return {
            w: reply.seconds
            for w, reply in exchange.replies.items()
            if w not in ctx.killed
        }

    def _updaters(self, ctx) -> Dict[int, int]:
        """Partition -> the one worker that updates it: its group's
        member whose statistics were reduced.  Replicas share partition
        state and the batch, so the model does not depend on which; a
        stale group never reported this round, so its partitions skip the
        update and catch up when it rejoins."""
        groups = self.driver.groups
        return {
            p: w
            for g, w in ctx.scratch["live"].items()
            if g not in ctx.stale_groups
            for p in groups.partitions_of_worker(w)
        }


def host_program(driver, workers) -> ColumnHostProgram:
    """The :class:`ColumnHostProgram` of a loaded driver's ``workers``."""
    config = driver.config
    return ColumnHostProgram(
        workers={w: driver._workers[w] for w in workers},
        model=driver.model,
        index=driver._index,
        batch_size=config.batch_size,
        wire_precision=config.wire_precision,
    )


def make_local_runtime(driver) -> Tuple[LocalRuntime, Callable[[List[int]], ColumnHostProgram]]:
    """Build (but do not start) the runtime + the host programs of a driver."""
    config = driver.config
    if driver._index is None:
        raise ConfigurationError("call load() before starting the local backend")
    timeout = TimeoutPolicy(
        alpha=config.sync_alpha,
        floor_s=config.local_timeout_s,
        max_retries=SYNC_RETRIES if config.sync_policy == "retry" else 0,
    )
    runtime = LocalRuntime(
        driver.cluster.n_workers,
        processes=config.local_processes,
        timeout=timeout,
    )
    return runtime, partial(host_program, driver)


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
