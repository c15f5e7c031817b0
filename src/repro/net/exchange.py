"""What one master <-> workers exchange returns, on either substrate:
:meth:`repro.sim.SimulatedCluster.exchange` (in-process, modelled
seconds) or :meth:`repro.runtime.LocalRuntime.exchange` (pipes,
measured)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional


class WorkerReply(NamedTuple):
    """One logical worker's answer to an op (a tuple: several are made
    every round)."""

    worker: int
    result: dict
    payload: Optional[bytes]
    #: seconds the worker spent inside the op handler (modelled on the
    #: simulator, measured in the worker's process on the local backend)
    seconds: float


@dataclass(frozen=True)
class WorkerDied:
    """The worker was gone mid-exchange (a SIGKILLed process, or a
    simulated worker that failed)."""

    worker: int
    op: str

    def __str__(self) -> str:
        return "worker {} process died during op {!r}".format(self.worker, self.op)


@dataclass(frozen=True)
class WorkerTimeout:
    """``worker`` stayed silent past every retry deadline."""

    worker: int
    op: str
    deadline_s: float
    attempts: int

    def __str__(self) -> str:
        return "worker {} silent on op {!r} after {} attempt(s) ({:.3f}s deadline)".format(
            self.worker, self.op, self.attempts, self.deadline_s
        )


@dataclass(frozen=True)
class Exchange:
    """One full master <-> workers exchange.

    ``seconds`` is the wall-clock duration of the whole exchange
    (issue every command, workers handle them, collect every reply) as
    measured at the master, or ``None`` on a substrate that models time
    — there the comm phases the exchange carried keep their modelled
    seconds.  Per-worker handler times are on the replies.
    ``failures`` maps workers that produced no reply to their
    structured outcome (:class:`WorkerDied` / :class:`WorkerTimeout`);
    ``retries`` counts deadline-expiry and garble resends, each already
    accounted as RETRY traffic.
    """

    replies: Dict[int, WorkerReply]
    seconds: Optional[float]
    failures: Dict[int, object] = field(default_factory=dict)
    retries: int = 0

    def dead_workers(self) -> List[int]:
        """Workers that died during the exchange."""
        return sorted(
            w for w, f in self.failures.items() if isinstance(f, WorkerDied)
        )

    def silent_workers(self) -> List[int]:
        """Workers that timed out (alive but past every deadline)."""
        return sorted(
            w for w, f in self.failures.items() if isinstance(f, WorkerTimeout)
        )

    def comm_seconds(self) -> float:
        """Exchange time not explained by the slowest handler.

        The master issues commands and drains replies while workers
        run, so ``total - max(handler)`` is the (non-negative) transport
        + scheduling share of a measured exchange.
        """
        slowest = max((r.seconds for r in self.replies.values()), default=0.0)
        return max(0.0, self.seconds - slowest)
