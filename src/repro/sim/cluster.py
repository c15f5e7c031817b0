"""Cluster specification and the simulated-cluster bundle.

A :class:`ClusterSpec` captures the paper's hardware tables; a
:class:`SimulatedCluster` instantiates the clock, network, compute model
and per-node memory ledgers that every trainer runs against.  ``CLUSTER1``
and ``CLUSTER2`` are the two testbeds of Section V-A.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.errors import OutOfMemoryError, WorkerFailedError
from repro.net.exchange import Exchange, WorkerDied, WorkerReply
from repro.net.network import NetworkModel, gbps
from repro.net.topology import StarTopology
from repro.sim.clock import SimClock
from repro.sim.cost import ComputeCostModel
from repro.utils.validation import check_non_negative, check_positive

T = TypeVar("T")

#: Sequential read/write bandwidth of every node's local disk.
DISK_BANDWIDTH_BYTES_PER_S = 400e6


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware description of one testbed."""

    name: str
    n_workers: int
    cores_per_worker: int
    memory_bytes_per_node: float
    bandwidth_bytes_per_s: float
    latency_s: float = 0.5e-3

    def __post_init__(self):
        check_positive(self.n_workers, "n_workers")
        check_positive(self.cores_per_worker, "cores_per_worker")
        check_positive(self.memory_bytes_per_node, "memory_bytes_per_node")
        check_positive(self.bandwidth_bytes_per_s, "bandwidth_bytes_per_s")
        check_non_negative(self.latency_s, "latency_s")

    def with_workers(self, n_workers: int) -> "ClusterSpec":
        """Same hardware, different node count (scalability sweeps)."""
        return replace(self, n_workers=n_workers)


#: Section V-A, Cluster 1: 8 machines, 2 CPUs, 32 GB, 1 Gbps.
CLUSTER1 = ClusterSpec(
    name="cluster1",
    n_workers=8,
    cores_per_worker=2,
    memory_bytes_per_node=32e9,
    bandwidth_bytes_per_s=gbps(1.0),
)

#: Section V-A, Cluster 2: 40 machines, 8 CPUs, 50 GB, 10 Gbps.
CLUSTER2 = ClusterSpec(
    name="cluster2",
    n_workers=40,
    cores_per_worker=8,
    memory_bytes_per_node=50e9,
    bandwidth_bytes_per_s=gbps(10.0),
)


class SimulatedCluster:
    """One master + K workers with shared clock, network, and cost model.

    This is the ``sim`` backend's execution substrate: the engine reads
    ``n_workers`` / ``clock`` / ``network`` and sends every comm phase
    through ``topology`` (``docs/runtime.md``).  The program given to
    :meth:`host` runs every worker in-process under :meth:`exchange`,
    with :class:`~repro.runtime.LocalRuntime`'s signature and modelled
    seconds.

    Node ids: workers are ``0..K-1``; the master is
    :attr:`~repro.net.message.Message.MASTER` (-1).  Memory is tracked as a
    high-water ledger per node; exceeding a node's capacity raises
    :class:`~repro.errors.OutOfMemoryError` — that is how Table V's MXNet
    OOM reproduces.
    """

    MASTER = -1

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.clock = SimClock()
        self.network = NetworkModel(
            bandwidth=spec.bandwidth_bytes_per_s, latency=spec.latency_s
        )
        self.topology = StarTopology(self.network, spec.n_workers)
        self.cost = ComputeCostModel()
        #: per-phase trace of the most recent engine-driven run; set by
        #: :class:`repro.engine.RoundEngine` (kept as a plain attribute so
        #: the sim layer does not import the engine layer)
        self.engine_trace = None
        #: per-worker straggler multipliers of the round being executed
        #: (set by the engine; ``None`` when the trainer has no model)
        self.slowdowns: Optional[Dict[int, float]] = None
        self._program = None
        self._memory: Dict[int, float] = {self.MASTER: 0.0}
        self._memory.update({w: 0.0 for w in range(spec.n_workers)})

    @property
    def n_workers(self) -> int:
        """Number of workers K."""
        return self.spec.n_workers

    # ------------------------------------------------------------------
    # in-process worker programs
    # ------------------------------------------------------------------
    def host(self, program) -> None:
        """Host one program for all K workers, as the one host (replacing any)."""
        self._program = program

    def exchange(self, op: str, *, iteration: int, args: Optional[dict] = None,
                 payload: Optional[bytes] = None, restore=None,
                 tolerate_silent: bool = False) -> Exchange:
        """Run ``op``'s host step once, then every worker's, in worker order.

        A reply's seconds are ``(task overhead + nnz x passes)`` from
        the work it declares, times the worker's slowdown this round.  A
        failed worker (:class:`~repro.errors.WorkerFailedError`) is a
        ``WorkerDied``.  Nothing is silent or respawned here, so
        ``restore`` and ``tolerate_silent`` are unused, and ``seconds``
        is ``None``: the comm phases keep their modelled time.
        """
        cost, slowdowns = self.cost, self.slowdowns
        args = args or {}
        replies: Dict[int, WorkerReply] = {}
        failures: Dict[int, object] = {}
        shared = self._program.host_step(op, args, payload)
        for w in range(self.n_workers):
            try:
                result, reply_payload = self._program.handle(w, op, args, payload, shared)
            except WorkerFailedError:
                failures[w] = WorkerDied(worker=w, op=op)
                continue
            task = cost.task_overhead + cost.sparse_work(
                result["nnz"], passes=result["passes"]
            )
            if slowdowns is not None:
                task = task * slowdowns[w]
            replies[w] = WorkerReply(w, result, reply_payload, task)
        return Exchange(replies, None, failures)

    def run_all(self, op: str, *, iteration: int, raise_on_fault: bool) -> Exchange:
        """:meth:`exchange` under :class:`~repro.runtime.LocalRuntime`'s
        name for one that recovers no one (the checkpoint spill);
        failures are never raised, so ``raise_on_fault`` is unused."""
        return self.exchange(op, iteration=iteration)

    def measure(self, fn: Callable[[], T], elements: int = 0) -> Tuple[T, float]:
        """Run ``fn`` at the master; its seconds are the modelled cost of
        touching ``elements`` dense values once."""
        return fn(), self.cost.dense_work(elements)

    # ------------------------------------------------------------------
    # memory ledger
    # ------------------------------------------------------------------
    def charge_memory(self, node: int, num_bytes: float, what: str = "allocation") -> None:
        """Allocate ``num_bytes`` on ``node``; raise on exceeding capacity."""
        if node not in self._memory:
            raise ValueError("unknown node id {}".format(node))
        if num_bytes < 0:
            raise ValueError("cannot charge negative memory")
        new_level = self._memory[node] + num_bytes
        if new_level > self.spec.memory_bytes_per_node:
            label = "master" if node == self.MASTER else "worker {}".format(node)
            raise OutOfMemoryError(
                "{} ({})".format(label, what),
                required_bytes=int(new_level),
                capacity_bytes=int(self.spec.memory_bytes_per_node),
            )
        self._memory[node] = new_level

    def memory_in_use(self, node: int) -> float:
        """Currently charged bytes on ``node``."""
        return self._memory[node]

    def reset(self) -> None:
        """Fresh clock, counters, ledgers and engine trace for a new run."""
        self.clock.reset()
        self.network.reset_counters()
        self.engine_trace = None
        for node in self._memory:
            self._memory[node] = 0.0
