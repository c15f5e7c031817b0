"""Execution backends (see ``docs/runtime.md``).

A training round runs on a *substrate*: anything with ``n_workers``, a
``clock`` (:class:`~repro.sim.clock.SimClock`), a ``network``
(:class:`~repro.net.network.NetworkModel` counters) and a ``topology``
(:class:`~repro.net.topology.StarTopology` over that network).  Two
backends supply one:

* ``sim`` — the :class:`~repro.sim.cluster.SimulatedCluster` itself,
  whose seconds come from the cost model;
* ``local`` — :class:`LocalRuntime`: real ``multiprocessing`` workers
  exchanging codec-encoded payloads, timed wall-clock, deadline-bounded
  transport (:class:`TimeoutPolicy`), and real fault injection (a
  :class:`repro.faults.FaultSchedule`: SIGKILL, stragglers,
  dropped/garbled replies) with respawn recovery (see
  ``docs/faults.md``).
"""

from repro.runtime.deadline import TimeoutPolicy
from repro.runtime.local import (
    Exchange,
    LocalRuntime,
    WorkerDied,
    WorkerReply,
    WorkerTimeout,
)

#: Names of the built-in backends, as accepted by trainer configs.
BACKENDS = ("sim", "local")

__all__ = [
    "BACKENDS",
    "Exchange",
    "LocalRuntime",
    "TimeoutPolicy",
    "WorkerDied",
    "WorkerReply",
    "WorkerTimeout",
]
