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
is exactly the paper's point.  That cost is a function of one table —
the rows of each block and the non-zeros each destination stores from
it (:func:`block_table`) — and :func:`charge_column_load` is the one
place that turns the table into seconds and traffic; the column-shard
store charges its loads through it from its footers.  Every loader
returns a :class:`LoadReport` with simulated seconds and traffic so
Fig 7 and Fig 11(a) can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.dataset import Dataset
from repro.errors import ConfigurationError
from repro.net.message import Message, MessageKind
from repro.partition.column import ColumnAssignment
from repro.partition.row import RowPartitioner
from repro.partition.workset import Workset, WorksetStore
from repro.sim.cluster import DISK_BANDWIDTH_BYTES_PER_S, SimulatedCluster
from repro.storage.blocks import split_into_blocks
from repro.storage.serialization import (
    LABEL_BYTES,
    OBJECT_OVERHEAD_BYTES,
    SHUFFLE_RECORD_OVERHEAD_BYTES,
    SPARSE_PAIR_BYTES,
    csr_matrix_bytes,
    sparse_row_bytes,
    workset_bytes,
)


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


#: The calibrated constants every loader charges.
LOAD_COSTS = LoadCostModel()


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


def _report(
    cluster: SimulatedCluster,
    strategy: str,
    phases: Dict[str, float],
    bytes_shuffled: int,
    n_objects: int,
) -> LoadReport:
    """Charge the task overhead plus every phase, advance the clock."""
    seconds = cluster.cost.task_overhead + sum(phases.values())
    cluster.clock.advance(seconds)
    return LoadReport(strategy, seconds, bytes_shuffled, n_objects, phases)


def block_table(
    dataset: Dataset, assignment: ColumnAssignment, block_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(block_rows, nnz_by_dest)`` of a load: the whole cost input.

    ``block_rows`` is ``(n_blocks,)`` rows per block and ``nnz_by_dest``
    is ``(K, n_blocks)`` non-zeros each destination stores from each
    block — one bincount of column owners per block, read from
    ``indptr`` / ``indices`` without materialising any rows.
    """
    K = assignment.n_workers
    blocks = split_into_blocks(dataset.n_rows, block_size)
    indptr, indices = dataset.features.indptr, dataset.features.indices
    block_rows = np.array([block.n_rows for block in blocks], dtype=np.int64)
    nnz_by_dest = np.zeros((K, len(blocks)), dtype=np.int64)
    for block in blocks:
        owners = assignment.worker_of(indices[indptr[block.start]:indptr[block.stop]])
        nnz_by_dest[:, block.block_id] = np.bincount(owners, minlength=K)
    return block_rows, nnz_by_dest


def charge_column_load(
    cluster: SimulatedCluster,
    block_rows: np.ndarray,
    nnz_by_dest: np.ndarray,
    naive: bool = False,
) -> LoadReport:
    """Charge the cluster one row-to-column load of a block table.

    Block dispatch (Algorithm 4) ships one CSR workset per (block,
    destination); the naive dispatcher ships every (row, destination)
    pair as its own object and parses instead of splitting.  The two
    differ only in the per-nnz constant and each piece's bytes, objects
    and (de)serialize seconds; reads, WORKSET messages, the phase
    balance and the clock are the same accounting.
    """
    K = cluster.n_workers
    if nnz_by_dest.shape[0] != K:
        raise ConfigurationError(
            "load was split for {} worker(s) but the cluster has {}".format(
                nnz_by_dest.shape[0], K
            )
        )
    costs = LOAD_COSTS
    read_bandwidth = DISK_BANDWIDTH_BYTES_PER_S
    per_nnz = costs.parse_seconds_per_nnz if naive else costs.split_seconds_per_nnz
    dispatch_busy = [0.0] * K   # read + split + serialize per dispatcher
    receive_busy = [0.0] * K    # deserialize per destination
    send_bytes = [0] * K
    recv_bytes = [0] * K
    n_objects = 0

    # The master hands blocks to idle workers; with homogeneous workers
    # that degenerates to round-robin by block id.
    for i, (rows, piece_nnz) in enumerate(zip(block_rows.tolist(), nnz_by_dest.T.tolist())):
        dispatcher = i % K
        block_nnz = sum(piece_nnz)
        dispatch_busy[dispatcher] += (
            csr_matrix_bytes(rows, block_nnz, with_labels=True) / read_bandwidth
        )
        dispatch_busy[dispatcher] += block_nnz * per_nnz
        for dest, nnz in enumerate(piece_nnz):
            if naive:
                # Row-by-row: headers and serialize calls scale with rows * K.
                size = (
                    rows * (OBJECT_OVERHEAD_BYTES + LABEL_BYTES)
                    + nnz * SPARSE_PAIR_BYTES
                )
                objects = rows
                deserialize = rows * costs.deserialize_seconds_per_object
            else:
                size = workset_bytes(rows, nnz)
                objects = 1
                deserialize = (
                    costs.deserialize_seconds_per_object
                    + nnz * costs.deserialize_seconds_per_nnz
                )
            n_objects += objects
            dispatch_busy[dispatcher] += objects * costs.serialize_seconds_per_object
            receive_busy[dest] += deserialize
            if dest != dispatcher:
                # The dispatcher's own piece is a local shuffle fetch: it
                # is serialized and deserialized, but never crosses the
                # network.
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
    strategy = "Naive-ColumnSGD" if naive else "ColumnSGD"
    return _report(cluster, strategy, phases, sum(send_bytes), n_objects)


def _build_stores(
    dataset: Dataset,
    assignment: ColumnAssignment,
    block_size: int,
) -> Tuple[List[WorksetStore], Dict[int, int], np.ndarray, np.ndarray]:
    """Materialise every workset once; shared by both dispatchers.

    Returns the per-destination stores, the block-size layout for the
    two-phase index, and the :func:`block_table` the load is charged
    from.  Each store's resident shard is sized exactly up front from
    the table, and each block is then cut K ways in one
    :meth:`ColumnAssignment.split` pass whose pieces are copied straight
    into place — a piece whose values are all 1.0 as a pattern matrix
    (:meth:`CSRMatrix.pattern_view`), so a one-hot store holds no values.
    """
    block_rows, nnz_by_dest = block_table(dataset, assignment, block_size)
    stores = [
        WorksetStore(k, assignment.local_dim(k)) for k in range(assignment.n_workers)
    ]
    for dest, store in enumerate(stores):
        store.reserve(dataset.n_rows, int(nnz_by_dest[dest].sum()))
    for block in split_into_blocks(dataset.n_rows, block_size):
        rows = block.materialize(dataset)
        for dest, shard in enumerate(assignment.split(rows.features)):
            stores[dest].put(Workset(block.block_id, shard.pattern_view(), rows.labels))
    return stores, dict(enumerate(block_rows.tolist())), block_rows, nnz_by_dest


def dispatch_block_based(
    dataset: Dataset,
    assignment: ColumnAssignment,
    cluster: SimulatedCluster,
    block_size: int = 2048,
) -> Tuple[List[WorksetStore], Dict[int, int], LoadReport]:
    """Algorithm 4: block-based column dispatching.

    Returns ``(stores, block_sizes, report)`` where ``stores[k]`` is
    worker k's workset store, ``block_sizes`` feeds the two-phase index,
    and ``report`` carries the simulated loading time.
    """
    stores, block_sizes, block_rows, nnz_by_dest = _build_stores(
        dataset, assignment, block_size
    )
    return stores, block_sizes, charge_column_load(cluster, block_rows, nnz_by_dest)


def dispatch_naive(
    dataset: Dataset,
    assignment: ColumnAssignment,
    cluster: SimulatedCluster,
    block_size: int = 2048,
) -> Tuple[List[WorksetStore], Dict[int, int], LoadReport]:
    """Naive-ColumnSGD: split and ship every row as K standalone objects.

    Identical stores/block layout as the block-based dispatcher (training
    is unaffected); only the simulated cost differs — K per-object
    serializations and K object headers *per row*.
    """
    stores, block_sizes, block_rows, nnz_by_dest = _build_stores(
        dataset, assignment, block_size
    )
    report = charge_column_load(cluster, block_rows, nnz_by_dest, naive=True)
    return stores, block_sizes, report


def load_row_partitioned(
    dataset: Dataset,
    cluster: SimulatedCluster,
    repartition: bool = False,
    block_size: int = 2048,
    seed: int = 0,
) -> Tuple[RowPartitioner, LoadReport]:
    """MLlib-style loading: parse local row blocks, optionally repartition.

    Without repartition, workers parse the blocks already local to them
    (blocks sit round-robin on the workers) and no shuffle happens.
    With repartition, every row is one shuffle record that crosses the
    network once, modelling MLlib-Repartition in Fig 7; a single worker
    still pays the record CPU but sends nothing.
    """
    costs = LOAD_COSTS
    K = cluster.n_workers
    read_bandwidth = DISK_BANDWIDTH_BYTES_PER_S
    indptr = dataset.features.indptr
    parse_busy = [0.0] * K
    for block in split_into_blocks(dataset.n_rows, block_size):
        owner = block.block_id % K
        nnz = int(indptr[block.stop] - indptr[block.start])
        parse_busy[owner] += csr_matrix_bytes(block.n_rows, nnz, with_labels=True) / read_bandwidth
        parse_busy[owner] += nnz * costs.parse_seconds_per_nnz
        parse_busy[owner] += block.n_rows * costs.row_object_create_seconds
    phases = {"parse": _balance(parse_busy)}
    bytes_shuffled = 0
    n_objects = 0

    if repartition:
        # Global shuffle: each row crosses the network once as a shuffle
        # record (a compact per-record header, not a full Java object).
        rows_per_worker = dataset.n_rows / K
        phases["shuffle_cpu"] = (
            rows_per_worker * costs.serialize_seconds_per_object / 3
            + rows_per_worker * costs.deserialize_seconds_per_object
        )
        n_objects = dataset.n_rows
        if K > 1:
            avg_nnz = dataset.nnz / max(dataset.n_rows, 1)
            record_bytes = (
                sparse_row_bytes(int(avg_nnz))
                - OBJECT_OVERHEAD_BYTES
                + SHUFFLE_RECORD_OVERHEAD_BYTES
            )
            sent = int(rows_per_worker * record_bytes)
            for w in range(K):
                cluster.network.send(Message(MessageKind.WORKSET, w, (w + 1) % K, sent))
            bytes_shuffled = K * sent
            phases["network"] = sent / cluster.network.bandwidth

    partitioner = RowPartitioner(dataset, K, shuffled=repartition, seed=seed)
    strategy = "MLlib-Repartition" if repartition else "MLlib"
    return partitioner, _report(cluster, strategy, phases, bytes_shuffled, n_objects)
