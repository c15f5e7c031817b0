"""The execution-substrate contract every backend implements.

A :class:`Runtime` bundles the four things a training round needs from
the machine it runs on, behind one small surface:

* a **clock** — monotone seconds (simulated for :class:`~repro.runtime.sim.SimRuntime`,
  measured for :class:`~repro.runtime.local.LocalRuntime`);
* typed **transport** — gather / broadcast / sharded variants /
  allreduce, each accounting per-:class:`~repro.net.message.MessageKind`
  traffic on a :class:`~repro.net.network.NetworkModel` counter set and
  returning the seconds the exchange took;
* a **barrier** — the BSP synchronization point between phases;
* **RNG-stream routing** — the deterministic per-iteration seed shared
  by every participant, so the same job seed draws the same batches on
  any backend (:func:`~repro.utils.rng.iteration_seed` is the single
  source of truth).

:class:`~repro.engine.RoundEngine` and the shared training loop talk to
this surface only; whether the seconds came from Table-I cost formulas
or from ``perf_counter`` around a real ``multiprocessing`` pipe is the
backend's business.  See ``docs/runtime.md`` for the backend matrix.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.net.message import MessageKind
from repro.utils.rng import iteration_seed
from repro.utils.validation import check_non_negative

#: Names of the built-in backends, as accepted by trainer configs.
BACKENDS = ("sim", "local")


class WallClock:
    """Accumulator of *measured* seconds with the SimClock surface.

    The local backend measures each exchange with a monotonic counter
    and advances this accumulator by the measured duration, so code
    that reads ``runtime.clock.now()`` sees elapsed training seconds on
    either backend — simulated on ``sim``, wall on ``local``.  Keeping
    the measurement at the call sites (rather than reading the host
    clock here) leaves this class free of wall-clock imports.
    """

    def __init__(self, start: float = 0.0):
        check_non_negative(start, "start")
        self._now = float(start)

    def now(self) -> float:
        """Accumulated measured seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Add a measured duration; returns the new total."""
        if seconds < 0:
            raise ValueError(
                "cannot advance clock by negative time {}".format(seconds)
            )
        self._now += float(seconds)
        return self._now

    def reset(self, to: float = 0.0) -> None:
        """Rewind for a fresh run."""
        check_non_negative(to, "to")
        self._now = float(to)

    def __repr__(self) -> str:
        return "WallClock(t={:.6f}s)".format(self._now)


class Runtime(abc.ABC):
    """Abstract execution substrate: clock + transport + barrier + RNG.

    Implementations expose ``clock`` and ``network`` as attributes or
    properties; transport methods return the seconds the exchange took
    (simulated or measured) and record every logical transfer on
    ``network`` so byte accounting works identically across backends.
    """

    #: short backend identifier ("sim", "local")
    name: str = "abstract"
    #: the trace of the :class:`~repro.engine.RoundEngine` driving this
    #: runtime, where a backend records its retry/recovery episodes
    engine_trace = None

    @property
    @abc.abstractmethod
    def n_workers(self) -> int:
        """Number of logical workers this runtime drives."""

    @property
    @abc.abstractmethod
    def clock(self):
        """The runtime's clock (``now``/``advance``/``reset``)."""

    @property
    @abc.abstractmethod
    def network(self):
        """Per-kind traffic counters (:class:`~repro.net.network.NetworkModel`)."""

    # ------------------------------------------------------------------
    # typed transport
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gather(self, kind: MessageKind, sizes: Sequence[int]) -> float:
        """Workers -> master; ``sizes[i]`` is sender i's payload bytes."""

    @abc.abstractmethod
    def broadcast(self, kind: MessageKind, size: int) -> float:
        """Master -> every worker, ``size`` bytes each."""

    @abc.abstractmethod
    def sharded_gather(
        self, kind: MessageKind, sizes: Sequence[int], n_servers: int
    ) -> float:
        """Workers -> S parameter servers (bytes split across servers)."""

    @abc.abstractmethod
    def sharded_broadcast(
        self, kind: MessageKind, size: int, n_servers: int
    ) -> float:
        """S servers -> every worker."""

    @abc.abstractmethod
    def allreduce(self, kind: MessageKind, size: int) -> float:
        """Ring allreduce of ``size`` bytes across the workers."""

    # ------------------------------------------------------------------
    # synchronization and determinism
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Block until every worker reached the same point (no-op when
        the backend is already lock-step, as the simulator is)."""

    def round_seed(self, base_seed: int, iteration: int) -> int:
        """The per-iteration seed every participant derives identically.

        Routed through :func:`~repro.utils.rng.iteration_seed` on every
        backend — this is the contract the cross-backend determinism
        tests pin down.
        """
        return iteration_seed(base_seed, iteration)

    def close(self) -> None:
        """Release backend resources (worker processes, pipes)."""

    # ------------------------------------------------------------------
    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return "{}(name={!r}, n_workers={})".format(
            type(self).__name__, self.name, self.n_workers
        )
