"""Heartbeat failure detection, checkpointing, and recovery execution.

The paper's Section X recovers a lost worker by reloading its shard and
restoring (or zero-initialising) its model partition.  Checkpoint,
restore and master-restart reload are written once, for both backends,
under one rule: **a record that moves between stable storage and a
worker is one** :data:`~repro.net.message.MessageKind.CHECKPOINT`
**message of** ``OBJECT_OVERHEAD_BYTES + len(record)`` **from the
sender, a zero-init moves nothing, and a worker struck at the top of
round t writes nothing in round t.**  CHECKPOINT traffic is unchecked
by the protocol's Table-I envelopes, like control chatter.

* **checkpointing** — every ``checkpoint_every`` iterations the master
  program's spill
  (:meth:`~repro.core.localexec.ColumnMasterProgram.spill_checkpoint`)
  writes each partition's :func:`snapshot_partition` record to the
  job's :class:`CheckpointStore`.
* **restoring** — :func:`plan_restore` picks what restores a worker's
  partitions (its latest record, else zero-init) and ships it, for a
  respawned process, :meth:`RecoveryManager.recover_worker` and
  :meth:`RecoveryManager.recover_master` alike; :func:`apply_restore`
  applies it.
* **detection** (simulator) — every live worker sends one
  :data:`~repro.net.message.MessageKind.HEARTBEAT` probe per iteration
  and a failure is observed after :data:`HEARTBEAT_TIMEOUT_BEATS`
  silent intervals, so every recovery pays ``heartbeat_interval_s x
  HEARTBEAT_TIMEOUT_BEATS`` seconds of detection (zero when disabled).
* **recovery modes** — per lost model partition, in preference order:
  ``'replica'`` (a backup-group peer still holds the shared
  :class:`~repro.core.worker.PartitionState` — free), ``'checkpoint'``,
  ``'zero-init'`` (the Section X fallback: zeros + optimizer reset).
* **master restart** (simulator) — with ``master_restart=True`` a
  MASTER failure restores every partition as of the last checkpoint and
  replays the missed iterations (deterministic sampling makes the
  replay exact) instead of raising
  :class:`~repro.errors.MasterFailedError`.

The default :class:`RecoveryPolicy` is pay-for-use: no heartbeats, no
checkpoints.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.backup import BackupGroups
from repro.core.worker import ColumnWorker, PartitionState
from repro.engine.trace import RecoveryEvent
from repro.errors import ConfigurationError, DataError, MasterFailedError
from repro.net.message import Message, MessageKind
from repro.sim.cluster import DISK_BANDWIDTH_BYTES_PER_S
from repro.storage.serialization import (
    OBJECT_OVERHEAD_BYTES,
    DenseVectorPayload,
    IntVectorPayload,
    decode_payload,
    dense_vector_bytes,
    encode_payload,
    int_vector_bytes,
    payload_length,
)
from repro.utils.validation import check_non_negative

#: Silent heartbeat probes before the master suspects a worker.
HEARTBEAT_TIMEOUT_BEATS = 3


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the failure detector and checkpoint/recovery pipeline."""

    checkpoint_every: int = 0       #: snapshot cadence in iterations (0 = never)
    heartbeat_interval_s: float = 0.0  #: probe period in sim-seconds (0 = disabled)
    master_restart: bool = False       #: restart-from-checkpoint on MASTER failure

    def __post_init__(self):
        check_non_negative(self.checkpoint_every, "checkpoint_every")
        check_non_negative(self.heartbeat_interval_s, "heartbeat_interval_s")
        if self.master_restart and not self.checkpoint_every:
            raise ConfigurationError(
                "master_restart requires checkpoint_every > 0 — with no "
                "checkpoint there is nothing to restart from"
            )

    @property
    def detection_delay_s(self) -> float:
        """Seconds between a crash and the master observing it."""
        return self.heartbeat_interval_s * HEARTBEAT_TIMEOUT_BEATS


def snapshot_partition(state: PartitionState) -> bytes:
    """One partition's snapshot record: params + optimizer state.

    With :func:`restore_partition`, the only place the snapshot format
    is known.  A record is wire-codec payloads back to back, always
    fp64 so a restore is lossless — one ``IntVectorPayload`` layout
    ``[n_arrays, (ndim, *shape) per array]``, then one
    ``DenseVectorPayload`` per array: the params first, the optimizer's
    :meth:`~repro.optim.base.Optimizer.state_arrays` after.  Nothing in
    it is executable, and every byte is covered by the layout's size
    arithmetic.
    """
    arrays = [state.params] + list(state.optimizer.state_arrays())
    layout = [len(arrays)]
    for array in arrays:
        layout += [array.ndim, *array.shape]
    return b"".join(
        [encode_payload(IntVectorPayload(np.asarray(layout, dtype=np.int64)))]
        + [
            encode_payload(DenseVectorPayload(np.asarray(a, dtype=np.float64)))
            for a in arrays
        ]
    )


def restore_partition(state: PartitionState, record: Optional[bytes]) -> str:
    """Roll ``state`` back to ``record`` (``'checkpoint'``), or with no
    record to the Section X fallback — zeros + optimizer reset, relying
    on SGD's robustness (``'zero-init'``).  Returns the recovery mode.
    """
    if record is None:
        state.params[...] = 0.0
        state.optimizer.reset()
        return "zero-init"
    params, *slots = _record_arrays(record)
    if params.shape != state.params.shape:
        raise DataError(
            "snapshot holds params of shape {} for a partition of shape "
            "{}".format(params.shape, state.params.shape)
        )
    state.params[...] = params
    state.optimizer.load_state_arrays(slots)
    return "checkpoint"


def _record_arrays(record: bytes) -> List[np.ndarray]:
    """Decode a snapshot record, or raise :class:`~repro.errors.DataError`
    unless its length is exactly what its own layout header implies (the
    ``store/format.py::check_sizes`` idea): a truncated write, a flipped
    magic or length byte and trailing garbage are all rejected."""
    try:
        layout = decode_payload(record[:payload_length(record)])
        if not isinstance(layout, IntVectorPayload) or layout.values.size < 1:
            raise ValueError("no layout header")
        fields = [int(v) for v in layout.values]
        shapes, at = [], 1
        for _ in range(fields[0]):
            ndim = fields[at]
            shape = tuple(fields[at + 1 : at + 1 + ndim])
            if ndim < 0 or len(shape) != ndim or min(shape, default=0) < 0:
                raise ValueError("bad array layout")
            shapes.append(shape)
            at += 1 + ndim
        if fields[0] < 1 or at != len(fields):
            raise ValueError("layout header does not describe its own length")
        offset = int_vector_bytes(len(fields))
        arrays = []
        for shape in shapes:
            size = int(np.prod(shape, dtype=np.int64))
            chunk = record[offset : offset + dense_vector_bytes(size)]
            payload = decode_payload(chunk)
            if (
                len(chunk) != dense_vector_bytes(size)
                or not isinstance(payload, DenseVectorPayload)
                or payload.precision != "fp64"
                or payload.values.size != size
            ):
                raise ValueError("array record does not match the layout")
            arrays.append(payload.values.reshape(shape))
            offset += len(chunk)
        if offset != len(record):
            raise ValueError(
                "{} byte(s) where the layout says {}".format(len(record), offset)
            )
    except (ValueError, IndexError) as exc:
        raise DataError("corrupt snapshot record: {}".format(exc)) from exc
    return arrays


def pack_records(records: Dict[int, Optional[bytes]]) -> Tuple[Dict[int, int], bytes]:
    """``(lengths, blob)``: the records back to back, and each
    partition's record length (-1 where it has none)."""
    lengths = {pid: -1 if r is None else len(r) for pid, r in records.items()}
    return lengths, b"".join(r for r in records.values() if r is not None)


def unpack_records(lengths: Dict[int, int], blob: bytes) -> Dict[int, Optional[bytes]]:
    """The inverse of :func:`pack_records`."""
    records: Dict[int, Optional[bytes]] = {}
    offset = 0
    for pid, length in lengths.items():
        records[pid] = None if length < 0 else blob[offset : offset + length]
        offset += max(length, 0)
    return records


def plan_restore(
    store, network, worker: int, partition_ids
) -> Tuple[str, Dict[int, int], bytes, int]:
    """The restore of ``worker``'s partitions, shipped from ``store``.

    Each partition gets its latest record, else zero-init.  Every record
    is one CHECKPOINT message of ``OBJECT_OVERHEAD_BYTES + len(record)``
    from stable storage (the master) to ``worker`` on ``network``; a
    zero-init ships nothing.  Returns ``(mode, lengths, blob, shipped)``:
    ``'zero-init'`` if any partition has no record, else
    ``'checkpoint'``; the packed records (:func:`pack_records`), which
    :func:`apply_restore` applies; and the bytes shipped.
    """
    lengths, blob = pack_records(
        {pid: store.read(pid) if store.has_snapshot(pid) else None for pid in partition_ids}
    )
    sizes = [OBJECT_OVERHEAD_BYTES + n for n in lengths.values() if n >= 0]
    for size in sizes:
        network.send(Message(MessageKind.CHECKPOINT, Message.MASTER, worker, size))
    mode = "zero-init" if -1 in lengths.values() else "checkpoint"
    return mode, lengths, blob, sum(sizes)


def apply_restore(partitions: Dict[int, PartitionState], lengths: Dict[int, int],
                  blob: bytes) -> None:
    """Roll each partition a shipped restore names back to its record,
    or zero-init it (:func:`plan_restore`'s ``lengths`` and ``blob``)."""
    for pid, record in unpack_records(lengths, blob).items():
        restore_partition(partitions[pid], record)


class CheckpointStore:
    """Per-partition snapshot records on stable storage.

    Holds the latest record (:func:`snapshot_partition` bytes) per
    model partition: in memory, or — given a ``directory`` — one file
    per partition, the record and its ``zlib.crc32`` as a 4-byte
    little-endian trailer, written through a temp file and
    ``os.replace`` so a crash mid-write cannot corrupt the last good
    snapshot.  The simulated backend keeps records in memory and
    *charges* for stable storage; the local backend really spills them.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._records: Dict[int, bytes] = {}
        self._written: Set[int] = set()
        self.last_iteration: Optional[int] = None
        self.writes = 0
        self.bytes_written = 0

    def _path(self, partition_id: int) -> str:
        return os.path.join(self.directory, "p{:05d}.ckpt".format(partition_id))

    def write(self, iteration: int, partition_id: int, record: bytes) -> None:
        """Persist one partition's record, replacing the previous one."""
        check_non_negative(iteration, "iteration")
        if self.directory is None:
            self._records[partition_id] = bytes(record)
        else:
            path = self._path(partition_id)
            with open(path + ".tmp", "wb") as fh:
                fh.write(record)
                fh.write(zlib.crc32(record).to_bytes(4, "little"))
            os.replace(path + ".tmp", path)
        self._written.add(partition_id)
        self.last_iteration = int(iteration)
        self.writes += 1
        self.bytes_written += len(record)

    def has_snapshot(self, partition_id: int) -> bool:
        return partition_id in self._written

    def read(self, partition_id: int) -> bytes:
        """The partition's latest record; one read back from a file is
        verified against its CRC32 trailer, then its own header
        arithmetic (:class:`~repro.errors.DataError` otherwise)."""
        if not self.has_snapshot(partition_id):
            raise ConfigurationError(
                "no snapshot for partition {}".format(partition_id)
            )
        if self.directory is None:
            return self._records[partition_id]
        with open(self._path(partition_id), "rb") as fh:
            content = fh.read()
        record = content[:-4]
        if len(content) < 4 or zlib.crc32(record) != int.from_bytes(content[-4:], "little"):
            raise DataError("corrupt snapshot file: its CRC32 trailer does not match")
        _record_arrays(record)
        return record


class RecoveryManager:
    """Execute the :class:`RecoveryPolicy` for one ColumnSGD job.

    Owns the heartbeat cadence, the job's one :class:`CheckpointStore`
    (``checkpoints``), the simulator's *charges* for stable storage, and
    the three simulated recovery paths; every episode is recorded as a
    :class:`~repro.engine.trace.RecoveryEvent` on
    ``cluster.engine_trace`` so :mod:`repro.experiments.gantt` can
    render it.
    """

    def __init__(
        self,
        cluster,
        groups: BackupGroups,
        policy: RecoveryPolicy,
        workers: List[ColumnWorker],
        partitions: List[PartitionState],
    ):
        self.cluster = cluster
        self.groups = groups
        self.policy = policy
        self.workers = workers
        self.partitions = partitions
        self.checkpoints = CheckpointStore()

    # ------------------------------------------------------------------
    def _record(self, event: RecoveryEvent) -> None:
        trace = getattr(self.cluster, "engine_trace", None)
        if trace is not None:
            trace.add_recovery(event)

    def checkpoint_due(self, t: int) -> bool:
        """Whether round ``t`` snapshots the model."""
        every = self.policy.checkpoint_every
        return bool(every) and t % every == 0

    def heartbeats(self) -> None:
        """Per-iteration probes from every live worker.  They ride the
        existing RPC fabric and are an unchecked kind no scheduled loss
        ever hits, so they cost bytes, never seconds."""
        if self.policy.heartbeat_interval_s <= 0:
            return
        network = self.cluster.network
        for worker in self.workers:
            if worker.failed:
                continue
            network.send(
                Message(
                    MessageKind.HEARTBEAT,
                    worker.worker_id,
                    Message.MASTER,
                    OBJECT_OVERHEAD_BYTES,
                )
            )

    def storage_seconds(self, num_bytes: int) -> float:
        """Charge for moving ``num_bytes`` between a worker and stable
        storage: ``bytes/disk + bytes/net``."""
        return (
            num_bytes / DISK_BANDWIDTH_BYTES_PER_S
            + num_bytes / self.cluster.network.bandwidth
        )

    # ------------------------------------------------------------------
    def restart_task(self, t: int) -> float:
        """TASK failure: Spark relaunches the task on cached state."""
        seconds = self.policy.detection_delay_s + self.cluster.cost.task_overhead
        self._record(
            RecoveryEvent(
                round=t,
                kind="task",
                mode="restart",
                worker=None,
                detect_s=self.policy.detection_delay_s,
                reload_s=self.cluster.cost.task_overhead,
            )
        )
        return seconds

    def recover_worker(self, worker_id: int, iteration: int = -1) -> float:
        """WORKER crash: reload the shard, then restore the model
        partition by the best available mode (replica / checkpoint /
        zero-init).  Returns the recovery seconds."""
        worker = self.workers[worker_id]
        worker.fail()
        owned = self.groups.partitions_of_worker(worker_id)
        reload_bytes = sum(
            self.partitions[p].store.stored_bytes() for p in owned
        )
        seconds = (
            self.policy.detection_delay_s
            + self.cluster.cost.task_overhead
            + reload_bytes / DISK_BANDWIDTH_BYTES_PER_S
            + reload_bytes / self.cluster.network.bandwidth
        )
        partitions = {p: self.partitions[p] for p in owned}
        mode = "replica"
        # with backup > 0 group peers share the PartitionState — nothing
        # lost, nothing to restore
        if self.groups.backup == 0:
            mode, lengths, blob, shipped = plan_restore(
                self.checkpoints, self.cluster.network, worker_id, owned
            )
            apply_restore(partitions, lengths, blob)
            seconds += self.storage_seconds(shipped)
        worker.recover(list(partitions.values()))
        self._record(
            RecoveryEvent(
                round=iteration,
                kind="worker",
                mode=mode,
                worker=worker_id,
                detect_s=self.policy.detection_delay_s,
                reload_s=seconds - self.policy.detection_delay_s,
            )
        )
        return seconds

    def recover_master(self, iteration: int, engine) -> float:
        """MASTER crash: restart the driver, restore every partition as
        of the last checkpoint (:func:`plan_restore`), and have
        ``engine`` replay the missed iterations
        (``RoundEngine.run_round(tau, replay=True)``: the job's own round
        spec, charged what a round costs).

        The replay is numerically exact — deterministic per-iteration
        sampling means re-running iterations ``c..t-1`` from checkpoint
        ``c`` reproduces the pre-crash trajectory — so a recovered job
        converges like a fault-free one.  Raises
        :class:`~repro.errors.MasterFailedError` when no checkpoint
        exists to restart from.
        """
        c = self.checkpoints.last_iteration
        if c is None:
            raise MasterFailedError(
                "master failed at iteration {} with no checkpoint to "
                "restart from".format(iteration)
            )
        detect = self.policy.detection_delay_s
        restart = self.cluster.cost.task_overhead

        # reload: every worker pulls its partitions' records in parallel;
        # a partition with none restarts from zeros, as a worker does
        shipped = []
        for w in range(len(self.workers)):
            owned = self.groups.partitions_of_worker(w)
            _, lengths, blob, size = plan_restore(
                self.checkpoints, self.cluster.network, w, owned
            )
            apply_restore({p: self.partitions[p] for p in owned}, lengths, blob)
            shipped.append(size)
        reload_s = restart + max(self.storage_seconds(b) for b in shipped)

        replay_s = 0.0
        for tau in range(c, iteration):
            replay_s += engine.run_round(tau, replay=True).duration

        self._record(
            RecoveryEvent(
                round=iteration,
                kind="master",
                mode="restart",
                worker=None,
                detect_s=detect,
                reload_s=reload_s,
                replay_s=replay_s,
            )
        )
        return detect + reload_s + replay_s
