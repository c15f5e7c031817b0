"""Pluggable execution substrates (see ``docs/runtime.md``).

The :class:`Runtime` contract covers the four things a training round
needs from the machine it runs on — clock, typed transport, barrier,
and RNG-stream routing.  Two backends implement it:

* :class:`SimRuntime` — the discrete-event simulator (bit-identical
  adapter over ``repro.sim`` + ``repro.net``);
* :class:`LocalRuntime` — real ``multiprocessing`` workers exchanging
  codec-encoded payloads, timed wall-clock, deadline-bounded transport
  (:class:`TimeoutPolicy`), and real fault injection (a
  :class:`repro.faults.FaultSchedule`: SIGKILL, stragglers,
  dropped/garbled replies) with respawn recovery (see
  ``docs/faults.md``).
"""

from repro.runtime.base import BACKENDS, Runtime, WallClock
from repro.runtime.deadline import TimeoutPolicy
from repro.runtime.local import (
    Exchange,
    LocalRuntime,
    WorkerDied,
    WorkerReply,
    WorkerTimeout,
)
from repro.runtime.sim import SimRuntime

__all__ = [
    "BACKENDS",
    "Exchange",
    "LocalRuntime",
    "Runtime",
    "SimRuntime",
    "TimeoutPolicy",
    "WallClock",
    "WorkerDied",
    "WorkerReply",
    "WorkerTimeout",
]
