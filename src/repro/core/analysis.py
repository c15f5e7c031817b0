"""Analytic cost model — Table I and paper-scale time prediction.

Two layers:

* :func:`rowsgd_overheads` / :func:`columnsgd_overheads` implement
  Table I verbatim: memory and communication *element counts* per node
  as functions of (m, B, K, rho, data size S).  Tests validate the
  communication entries against the simulator's measured bytes.
* :func:`predict_iteration_time` turns the same structure into seconds
  for each of the five evaluated systems using a
  :class:`~repro.net.network.NetworkModel` and
  :class:`~repro.sim.cost.ComputeCostModel`.  Running it at the paper's
  true dataset scales regenerates Table IV / Table V / Fig 10 without
  materialising billion-dimension data.

Calibrated constants (documented in EXPERIMENTS.md):

* Spark-scheduled systems pay one task-launch overhead per BSP stage;
  ColumnSGD runs *two* stages per iteration (computeStatistics +
  updateModel), MLlib runs one.
* Parameter servers keep a dense shard per server and touch it once per
  iteration (lazy-update/bookkeeping scan) at
  ``SERVER_SCAN_SECONDS_PER_ELEMENT`` — this is what makes MXNet's
  per-iteration time grow with model size in Table IV even though its
  pulls are sparse.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.network import NetworkModel
from repro.sim.cost import PS_TASK_OVERHEAD, ComputeCostModel
from repro.storage.serialization import SPARSE_PAIR_BYTES, VALUE_BYTES
from repro.utils.validation import check_in, check_positive, check_probability

#: Dense per-element maintenance cost on each parameter server, per
#: iteration (seconds).  Calibrated against Table IV's MXNet column.
SERVER_SCAN_SECONDS_PER_ELEMENT = 30e-9


@dataclass(frozen=True)
class OverheadEstimate:
    """Table I entries for one system, in *elements* (not bytes)."""

    system: str
    master_memory: float
    worker_memory: float
    master_communication: float
    worker_communication: float

    def as_row(self):
        """Row for a Table I style report."""
        return (
            self.system,
            "{:.3g}".format(self.master_memory),
            "{:.3g}".format(self.worker_memory),
            "{:.3g}".format(self.master_communication),
            "{:.3g}".format(self.worker_communication),
        )


def _phi(rho: float, exponent: float) -> float:
    """Expected non-zero fraction of a batch: ``1 - rho**exponent``."""
    return 1.0 - rho ** exponent


def rowsgd_overheads(
    m: int, batch_size: int, n_workers: int, sparsity: float, data_elements: float
) -> OverheadEstimate:
    """Table I, RowSGD column.

    ``data_elements`` is the stored size S of the training data
    (labels + non-zeros), in elements.
    """
    check_positive(m, "m")
    check_positive(batch_size, "batch_size")
    check_positive(n_workers, "n_workers")
    check_probability(sparsity, "sparsity")
    phi1 = _phi(sparsity, batch_size / n_workers)
    phi2 = _phi(sparsity, batch_size)
    return OverheadEstimate(
        system="RowSGD",
        master_memory=m + m * phi2,
        worker_memory=data_elements / n_workers + 2 * m * phi1,
        master_communication=2 * n_workers * m * phi1,
        worker_communication=2 * m * phi1,
    )


def columnsgd_overheads(
    m: int, batch_size: int, n_workers: int, sparsity: float, data_elements: float
) -> OverheadEstimate:
    """Table I, ColumnSGD column."""
    check_positive(m, "m")
    check_positive(batch_size, "batch_size")
    check_positive(n_workers, "n_workers")
    check_probability(sparsity, "sparsity")
    return OverheadEstimate(
        system="ColumnSGD",
        master_memory=batch_size,
        worker_memory=data_elements / n_workers + 2 * batch_size + m / n_workers,
        master_communication=2 * n_workers * batch_size,
        worker_communication=2 * batch_size,
    )


_SYSTEMS = ("mllib", "mllib*", "petuum", "mxnet", "columnsgd")


def predict_iteration_time(
    system: str,
    m: int,
    batch_size: int,
    n_workers: int,
    avg_nnz_per_row: float,
    network: NetworkModel = None,
    statistics_width: int = 1,
    params_per_feature: int = 1,
) -> float:
    """Predicted per-iteration seconds for one system at given scale.

    Communication structure per system:

    * ``mllib`` — single master ships the full dense model to K workers
      and aggregates K dense gradients: ``2 K m'`` bytes through one NIC
      (``m' = m * params_per_feature``), plus a dense master update.
    * ``mllib*`` — model averaging over a ring AllReduce of the dense
      model: ``2 (K-1)/K * m'`` bytes per link.
    * ``petuum`` — PS with full pulls: ``K m'`` pull bytes spread over K
      colocated server NICs, sparse gradient pushes, dense server scan.
    * ``mxnet`` — PS with sparse pulls: only the batch's non-zero
      coordinates move, but the dense server scan remains.
    * ``columnsgd`` — two statistics transfers of ``B * width`` values
      through the master NIC; two Spark stages of task overhead.
    """
    check_in(system.lower(), _SYSTEMS, "system")
    check_positive(m, "m")
    check_positive(batch_size, "batch_size")
    check_positive(n_workers, "n_workers")
    check_positive(avg_nnz_per_row, "avg_nnz_per_row")
    network = network if network is not None else NetworkModel()
    cost = ComputeCostModel()
    key = system.lower()
    K = servers = n_workers
    model_elements = m * params_per_feature
    model_bytes = model_elements * VALUE_BYTES
    batch_nnz = batch_size * avg_nnz_per_row
    # gradient math touches every stored non-zero once per statistic/pass
    compute = cost.sparse_work(batch_nnz / K, passes=2 * statistics_width)

    if key == "columnsgd":
        stats_bytes = batch_size * statistics_width * VALUE_BYTES
        comm = 2 * (network.latency + K * stats_bytes / network.bandwidth)
        return 2 * cost.task_overhead + compute + comm

    if key == "mllib":
        comm = 2 * (network.latency + K * model_bytes / network.bandwidth)
        master_update = cost.dense_work(2 * model_elements)
        return cost.task_overhead + compute + comm + master_update

    if key == "mllib*":
        steps = 2 * (K - 1)
        comm = steps * network.latency + steps * model_bytes / (K * network.bandwidth)
        local_update = cost.dense_work(model_elements)
        return cost.task_overhead + compute + comm + local_update

    scan = SERVER_SCAN_SECONDS_PER_ELEMENT * model_elements / servers
    if key == "petuum":
        # full dense pull; sparse push of the batch gradient
        pull = network.latency + K * model_bytes / (servers * network.bandwidth)
        push_bytes = batch_nnz / K * params_per_feature * SPARSE_PAIR_BYTES
        push = network.latency + K * push_bytes / (servers * network.bandwidth)
        return PS_TASK_OVERHEAD + compute + pull + push + scan

    # mxnet: sparse pull and push of only the needed coordinates
    sparse_bytes = batch_nnz / K * params_per_feature * SPARSE_PAIR_BYTES
    pull = network.latency + K * sparse_bytes / (servers * network.bandwidth)
    push = network.latency + K * sparse_bytes / (servers * network.bandwidth)
    return PS_TASK_OVERHEAD + compute + pull + push + scan
