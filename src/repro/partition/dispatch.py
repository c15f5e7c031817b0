"""Row-to-column data transformation (Section IV-A).

Three loaders are modelled, matching Fig 7's contenders:

* :func:`dispatch_block_based` — Algorithm 4: the master streams block
  ids to idle workers; each worker reads its block, splits it into K
  column *worksets* in one pass (:meth:`ColumnAssignment.split`, a
  stable partition of the block's entries by owner), CSR-compresses
  them and ships one object per (block, destination).  Serialization
  overhead is paid per block-sized object, so the network pipe stays
  full.
* :func:`dispatch_naive` — "Naive-ColumnSGD": each row is split and
  shipped as K tiny objects, paying the per-object serialization
  overhead K times per row.
* :func:`load_row_partitioned` — what MLlib does: workers parse their
  local row blocks; optionally a global repartition shuffles all rows
  (MLlib-Repartition).

The two column dispatchers produce the *identical logical result* (same
worksets, same block layout) — only their simulated cost differs, which
is exactly the paper's point.  Every loader returns a
:class:`LoadReport` with simulated seconds and traffic so Fig 7 and
Fig 11(a) can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.dataset import Dataset
from repro.net.message import Message, MessageKind
from repro.partition.column import ColumnAssignment
from repro.partition.row import RowPartitioner
from repro.partition.workset import Workset, WorksetStore
from repro.sim.cluster import SimulatedCluster
from repro.storage.hdfs import SimulatedHDFS
from repro.storage.serialization import (
    INDEX_BYTES,
    LABEL_BYTES,
    OBJECT_OVERHEAD_BYTES,
    SHUFFLE_RECORD_OVERHEAD_BYTES,
    VALUE_BYTES,
    sparse_row_bytes,
)
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LoadCostModel:
    """CPU constants of the loading path (seconds).

    ``parse_seconds_per_nnz`` is text->number parsing (LIBSVM lines are
    slow to parse); ``serialize_seconds_per_object`` is the per-object
    cost of Java-style serialization that the block design amortises;
    splitting and deserializing are cheap array passes.
    """

    parse_seconds_per_nnz: float = 150e-9
    split_seconds_per_nnz: float = 25e-9
    serialize_seconds_per_object: float = 3e-6
    deserialize_seconds_per_object: float = 1e-6
    deserialize_seconds_per_nnz: float = 10e-9
    row_object_create_seconds: float = 3e-6  # building one row object in memory


@dataclass
class LoadReport:
    """Outcome of one loading strategy."""

    strategy: str
    seconds: float
    bytes_shuffled: int
    n_objects_shipped: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line summary for reports."""
        return "{}: {:.3f}s, {:.2f} MB shuffled, {} objects".format(
            self.strategy, self.seconds, self.bytes_shuffled / 1e6, self.n_objects_shipped
        )


def _balance(per_worker: List[float]) -> float:
    """BSP phase duration: the slowest worker."""
    return max(per_worker) if per_worker else 0.0


def _build_stores(
    dataset: Dataset,
    assignment: ColumnAssignment,
    hdfs: SimulatedHDFS,
) -> Tuple[List[WorksetStore], Dict[int, int], List[List[Workset]]]:
    """Materialise every workset once; shared by both dispatchers.

    Returns the per-destination stores, the block-size layout for the
    two-phase index, and ``worksets_by_block[block_id][dest]`` so cost
    models can read sizes without recomputing projections.

    Each store's resident shard is sized exactly up front — one
    bincount of column owners per block — and each block is then cut K
    ways in one :meth:`ColumnAssignment.split` pass whose pieces are
    copied straight into place and dropped; the worksets handed back
    are views of the shards.
    """
    K = assignment.n_workers
    stores = [WorksetStore(k, assignment.local_dim(k)) for k in range(K)]
    indptr, indices = dataset.features.indptr, dataset.features.indices
    nnz_of = np.zeros(K, dtype=np.int64)
    for block in hdfs.blocks:
        owners = assignment.worker_of(indices[indptr[block.start]:indptr[block.stop]])
        nnz_of += np.bincount(owners, minlength=K)
    for dest in range(K):
        stores[dest].reserve(dataset.n_rows, int(nnz_of[dest]))
    block_sizes: Dict[int, int] = {}
    worksets_by_block: List[List[Workset]] = []
    for block in hdfs.blocks:
        rows = block.materialize(dataset)
        block_sizes[block.block_id] = rows.n_rows
        per_dest = []
        for dest, shard in enumerate(assignment.split(rows.features)):
            stores[dest].put(Workset(block.block_id, shard, rows.labels))
            per_dest.append(stores[dest].get(block.block_id))
        worksets_by_block.append(per_dest)
    return stores, block_sizes, worksets_by_block


def dispatch_block_based(
    dataset: Dataset,
    assignment: ColumnAssignment,
    cluster: SimulatedCluster,
    block_size: int = 2048,
    costs: LoadCostModel = None,
) -> Tuple[List[WorksetStore], Dict[int, int], LoadReport]:
    """Algorithm 4: block-based column dispatching.

    Returns ``(stores, block_sizes, report)`` where ``stores[k]`` is
    worker k's workset store, ``block_sizes`` feeds the two-phase index,
    and ``report`` carries the simulated loading time.
    """
    check_positive(block_size, "block_size")
    costs = costs or LoadCostModel()
    K = cluster.n_workers
    hdfs = SimulatedHDFS(
        dataset,
        block_size=block_size,
        n_locations=K,
        read_bandwidth=cluster.spec.disk_bandwidth_bytes_per_s,
    )
    stores, block_sizes, worksets_by_block = _build_stores(dataset, assignment, hdfs)

    dispatch_busy = [0.0] * K   # read + split + serialize per dispatcher
    receive_busy = [0.0] * K    # deserialize per destination
    send_bytes = [0] * K
    recv_bytes = [0] * K
    n_objects = 0

    # The master hands blocks to idle workers; with homogeneous workers
    # that degenerates to round-robin by block id.
    for i, block in enumerate(hdfs.blocks):
        dispatcher = i % K
        block_nnz = sum(ws.features.nnz for ws in worksets_by_block[i])
        dispatch_busy[dispatcher] += hdfs.read_time(block.block_id)
        dispatch_busy[dispatcher] += block_nnz * costs.split_seconds_per_nnz
        for dest, workset in enumerate(worksets_by_block[i]):
            size = workset.serialized_bytes()
            n_objects += 1
            dispatch_busy[dispatcher] += costs.serialize_seconds_per_object
            receive_busy[dest] += (
                costs.deserialize_seconds_per_object
                + workset.features.nnz * costs.deserialize_seconds_per_nnz
            )
            if dest != dispatcher:
                # The dispatcher's own workset is a local shuffle fetch:
                # it is serialized and deserialized, but never crosses
                # the network.
                send_bytes[dispatcher] += size
                recv_bytes[dest] += size
                cluster.network.send(Message(MessageKind.WORKSET, dispatcher, dest, size))

    bandwidth = cluster.network.bandwidth
    phases = {
        "dispatch": _balance(dispatch_busy),
        "network": max(
            _balance([b / bandwidth for b in send_bytes]),
            _balance([b / bandwidth for b in recv_bytes]),
        ),
        "receive": _balance(receive_busy),
    }
    seconds = cluster.cost.task_overhead + sum(phases.values())
    cluster.clock.advance(seconds)
    report = LoadReport(
        strategy="ColumnSGD",
        seconds=seconds,
        bytes_shuffled=sum(send_bytes),
        n_objects_shipped=n_objects,
        phase_seconds=phases,
    )
    return stores, block_sizes, report


def dispatch_naive(
    dataset: Dataset,
    assignment: ColumnAssignment,
    cluster: SimulatedCluster,
    block_size: int = 2048,
    costs: LoadCostModel = None,
) -> Tuple[List[WorksetStore], Dict[int, int], LoadReport]:
    """Naive-ColumnSGD: split and ship every row as K standalone objects.

    Identical stores/block layout as the block-based dispatcher (training
    is unaffected); only the simulated cost differs — K per-object
    serializations and K object headers *per row*.
    """
    check_positive(block_size, "block_size")
    costs = costs or LoadCostModel()
    K = cluster.n_workers
    hdfs = SimulatedHDFS(
        dataset,
        block_size=block_size,
        n_locations=K,
        read_bandwidth=cluster.spec.disk_bandwidth_bytes_per_s,
    )
    stores, block_sizes, worksets_by_block = _build_stores(dataset, assignment, hdfs)

    dispatch_busy = [0.0] * K
    receive_busy = [0.0] * K
    send_bytes = [0] * K
    recv_bytes = [0] * K
    n_objects = 0

    for i, block in enumerate(hdfs.blocks):
        dispatcher = i % K
        rows = block.n_rows
        block_nnz = sum(ws.features.nnz for ws in worksets_by_block[i])
        dispatch_busy[dispatcher] += hdfs.read_time(block.block_id)
        dispatch_busy[dispatcher] += block_nnz * costs.parse_seconds_per_nnz
        for dest, workset in enumerate(worksets_by_block[i]):
            # Row-by-row: every (row, dest) pair is its own serialized
            # object, so headers and serialize calls scale with rows * K.
            piece_bytes = (
                rows * (OBJECT_OVERHEAD_BYTES + LABEL_BYTES)
                + workset.features.nnz * (INDEX_BYTES + VALUE_BYTES)
            )
            n_objects += rows
            dispatch_busy[dispatcher] += rows * costs.serialize_seconds_per_object
            receive_busy[dest] += rows * costs.deserialize_seconds_per_object
            if dest != dispatcher:
                # As in block dispatch, the local pieces never hit the wire.
                send_bytes[dispatcher] += piece_bytes
                recv_bytes[dest] += piece_bytes
                cluster.network.send(
                    Message(MessageKind.WORKSET, dispatcher, dest, piece_bytes)
                )

    bandwidth = cluster.network.bandwidth
    phases = {
        "dispatch": _balance(dispatch_busy),
        "network": max(
            _balance([b / bandwidth for b in send_bytes]),
            _balance([b / bandwidth for b in recv_bytes]),
        ),
        "receive": _balance(receive_busy),
    }
    seconds = cluster.cost.task_overhead + sum(phases.values())
    cluster.clock.advance(seconds)
    report = LoadReport(
        strategy="Naive-ColumnSGD",
        seconds=seconds,
        bytes_shuffled=sum(send_bytes),
        n_objects_shipped=n_objects,
        phase_seconds=phases,
    )
    return stores, block_sizes, report


def load_row_partitioned(
    dataset: Dataset,
    cluster: SimulatedCluster,
    repartition: bool = False,
    block_size: int = 2048,
    costs: LoadCostModel = None,
    seed: int = 0,
) -> Tuple[RowPartitioner, LoadReport]:
    """MLlib-style loading: parse local row blocks, optionally repartition.

    Without repartition, workers parse the blocks already local to them
    (HDFS locality) and no shuffle happens.  With repartition, every row
    crosses the network once as a per-row shuffle record, modelling
    MLlib-Repartition in Fig 7.
    """
    costs = costs or LoadCostModel()
    K = cluster.n_workers
    hdfs = SimulatedHDFS(
        dataset,
        block_size=block_size,
        n_locations=K,
        read_bandwidth=cluster.spec.disk_bandwidth_bytes_per_s,
    )
    parse_busy = [0.0] * K
    nnz_by_block = []
    for block in hdfs.blocks:
        owner = hdfs.location(block.block_id)
        rows = block.materialize(dataset)
        nnz_by_block.append(rows.nnz)
        parse_busy[owner] += hdfs.read_time(block.block_id)
        parse_busy[owner] += rows.nnz * costs.parse_seconds_per_nnz
        parse_busy[owner] += rows.n_rows * costs.row_object_create_seconds
    phases = {"parse": _balance(parse_busy)}
    bytes_shuffled = 0
    n_objects = 0

    if repartition:
        # Global shuffle: each row crosses the network once as a shuffle
        # record (a compact per-record header, not a full Java object).
        shuffle_busy = [0.0] * K
        recv_busy = [0.0] * K
        send_bytes = [0] * K
        avg_nnz = dataset.nnz / max(dataset.n_rows, 1)
        record_bytes = (
            sparse_row_bytes(int(avg_nnz))
            - OBJECT_OVERHEAD_BYTES
            + SHUFFLE_RECORD_OVERHEAD_BYTES
        )
        rows_per_worker = dataset.n_rows / K
        for w in range(K):
            send_bytes[w] = int(rows_per_worker * record_bytes)
            shuffle_busy[w] = rows_per_worker * costs.serialize_seconds_per_object / 3
            recv_busy[w] = rows_per_worker * costs.deserialize_seconds_per_object
            if K > 1:
                cluster.network.send(
                    Message(MessageKind.WORKSET, w, (w + 1) % K, send_bytes[w])
                )
            n_objects += int(rows_per_worker)
        bytes_shuffled = sum(send_bytes)
        phases["shuffle_cpu"] = _balance(shuffle_busy) + _balance(recv_busy)
        phases["network"] = _balance([b / cluster.network.bandwidth for b in send_bytes])

    seconds = cluster.cost.task_overhead + sum(phases.values())
    cluster.clock.advance(seconds)
    partitioner = RowPartitioner(dataset, K, shuffled=repartition, seed=seed)
    report = LoadReport(
        strategy="MLlib-Repartition" if repartition else "MLlib",
        seconds=seconds,
        bytes_shuffled=bytes_shuffled,
        n_objects_shipped=n_objects,
        phase_seconds=phases,
    )
    return partitioner, report
