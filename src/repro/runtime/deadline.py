"""Deadline-bounded waiting — the runtime's blocking primitives.

Every wait in :mod:`repro.runtime` must be bounded: a hung or SIGKILLed
worker process must surface as a structured outcome, never as a parent
that blocks forever on ``conn.recv()``.  This module wraps each raw
``recv``/``poll``/``join``/``wait`` with an explicit timeout, and the
runtime layer reads, waits and joins only through it;
``tests/test_local_transport.py`` and the kill/stall cases of
``tests/test_local_faults.py`` fail, inside a hard bound, on a wait
that is not.

The *length* of the bound comes from :class:`TimeoutPolicy`, the local
backend's port of the simulator's :class:`~repro.engine.policy.TimeoutSync`
rule: the deadline for an exchange is ``alpha x median`` of recently
*measured* exchange durations (the sim uses the median of modeled
per-worker finish times), floored at ``floor_s`` so cold starts and
first exchanges are not suspected spuriously.  Each retry doubles the
deadline (:data:`~repro.engine.policy.BACKOFF`), exactly like the sim's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from statistics import median
from typing import List, Optional, Sequence, Tuple

from repro.engine.policy import BACKOFF, check_deadline_factors
from repro.utils.validation import check_non_negative, check_positive

#: Measured exchange durations retained for the alpha x median rule.
HISTORY_WINDOW = 32
#: Slice a worker process polls its command pipe in while idle.
COMMAND_POLL_S = 1.0


@dataclass
class TimeoutPolicy:
    """The alpha x median deadline rule over measured exchange times.

    ``deadline_s()`` returns ``max(floor_s, alpha * median(history))``
    where the history holds the last :data:`HISTORY_WINDOW` measured
    exchange durations (fed via :meth:`observe`).  ``max_retries``
    mirrors the simulator's ``TimeoutSync``: attempt ``k`` waits
    ``deadline_s() * BACKOFF**k`` before resending.
    """

    alpha: float = 3.0
    floor_s: float = 30.0
    max_retries: int = 2
    history: List[float] = field(default_factory=list, init=False)

    def __post_init__(self):
        check_positive(self.alpha, "alpha")
        check_positive(self.floor_s, "floor_s")
        check_non_negative(self.max_retries, "max_retries")
        check_deadline_factors(self.alpha)

    def observe(self, seconds: float) -> None:
        """Record one successful exchange's measured duration."""
        check_non_negative(seconds, "seconds")
        self.history.append(float(seconds))
        del self.history[:-HISTORY_WINDOW]

    def deadline_s(self, attempt: int = 0) -> float:
        """Deadline for retry ``attempt`` (0 = the initial wait)."""
        check_non_negative(attempt, "attempt")
        base = self.floor_s
        if self.history:
            base = max(self.floor_s, self.alpha * median(self.history))
        return base * BACKOFF ** attempt


# ----------------------------------------------------------------------
# blocking primitives (nothing else in repro.runtime calls
# recv / poll / join / wait directly)
# ----------------------------------------------------------------------
def wait_ready(conns: Sequence[object], timeout_s: float) -> List[object]:
    """Bounded ``multiprocessing.connection.wait``.

    Returns the connections with a frame (or EOF) available; an empty
    list means the deadline expired with nothing to read.  A connection
    whose peer was SIGKILLed becomes ready (its pipe hits EOF), so dead
    processes are *detected* here rather than hung on.
    """
    check_non_negative(timeout_s, "timeout_s")
    if not conns:
        return []
    return list(_mp_connection.wait(list(conns), timeout=timeout_s))


def recv_ready(conn) -> Tuple[bool, object]:
    """Receive from a connection :func:`wait_ready` reported ready.

    Returns ``(True, frame)``, or ``(False, None)`` when the readiness
    was EOF — the peer process is gone.  Never blocks: readiness was
    established by the bounded wait.
    """
    try:
        return True, conn.recv()
    except (EOFError, OSError, ConnectionResetError):
        return False, None


def recv_command(conn) -> Tuple[bool, Optional[object]]:
    """Child-side command wait: poll in bounded slices until a frame.

    Worker processes idle here between exchanges.  Polling in
    :data:`COMMAND_POLL_S` slices (instead of a bare ``recv``) keeps
    every wait in the runtime bounded and lets an orphaned child notice the master's
    EOF and exit: returns ``(True, frame)`` on data, ``(False, None)``
    when the master side of the pipe is gone.
    """
    while True:
        try:
            if conn.poll(COMMAND_POLL_S):
                return True, conn.recv()
        except (EOFError, OSError, ConnectionResetError):
            return False, None


def join_within(proc, timeout_s: float) -> bool:
    """Bounded process join; True when the process exited in time."""
    check_non_negative(timeout_s, "timeout_s")
    proc.join(timeout_s)
    return not proc.is_alive()
