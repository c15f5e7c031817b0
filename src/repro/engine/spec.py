"""Declarative round specifications.

A :class:`RoundSpec` is a trainer's complete statement of what one
training round *is*: an ordered tuple of typed phases — compute on the
workers, communication through the simulated network, bookkeeping on the
master — that run strictly one after another in declaration order (the
paper's Algorithm 3 is a sequential BSP round), plus the
:class:`~repro.engine.policy.SyncPolicy` that decides how worker finish
times combine into phase durations.

Phases name their executors as *method names on the trainer* rather
than bound callables, for two reasons: the spec stays a pure
declaration (picklable, comparable, printable), and a reader can find
every executor of a round by name without running anything.

The engine derives the per-round expected traffic — the dict the
runtime :class:`~repro.net.protocol.ProtocolChecker` verifies — from
the same ``CommPhase`` declarations it executes, so declaration and
emission cannot drift: there is exactly one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.engine.policy import BarrierSync, SyncPolicy
from repro.net.message import MessageKind
from repro.net.protocol import TrafficEnvelope  # noqa: F401  (re-export)

#: Communication patterns a CommPhase may use; each names the
#: StarTopology method that emits and times it.
COMM_PATTERNS = ("gather", "broadcast", "allreduce")


@dataclass(frozen=True)
class ComputePhase:
    """Worker-side compute: ``run(ctx)`` returns per-worker seconds.

    ``synchronized`` phases are resolved by the round's
    :class:`SyncPolicy` (which may pick survivors, kill stragglers, or
    gate starts on stale commits); unsynchronized ones simply wait for
    the slowest returned worker.
    """

    name: str
    run: str
    synchronized: bool = False


@dataclass(frozen=True)
class CommPhase:
    """Network phase: the engine emits the messages and charges the time.

    ``sizes`` names a trainer method ``(ctx) -> Sequence[int]`` for
    gather patterns (one entry per sender) or ``(ctx) -> int`` for
    broadcast/allreduce patterns.  ``servers`` names a trainer attribute
    holding S, the parameter servers a gather or broadcast is spread
    over (unset: the master alone).
    """

    name: str
    kind: MessageKind
    pattern: str
    sizes: str
    servers: Optional[str] = None

    def __post_init__(self):
        if self.pattern not in COMM_PATTERNS:
            raise ValueError(
                "unknown comm pattern {!r}; expected one of {}".format(
                    self.pattern, COMM_PATTERNS
                )
            )


@dataclass(frozen=True)
class MasterPhase:
    """Master-side bookkeeping: ``run(ctx)`` returns its seconds."""

    name: str
    run: str


Phase = (ComputePhase, CommPhase, MasterPhase)


@dataclass(frozen=True)
class RoundSpec:
    """One trainer's declared round structure.

    ``envelopes`` optionally names a trainer method
    ``(ctx) -> Dict[MessageKind, TrafficEnvelope]`` whose entries
    *override* the engine-derived exact expectations — the hook that
    lets bounded-staleness protocols declare traffic brackets instead of
    exact counts and stay protocol-checked.
    """

    system: str
    phases: Tuple = ()
    sync: SyncPolicy = field(default_factory=BarrierSync)
    envelopes: Optional[str] = None

    def __post_init__(self):
        if not self.phases:
            raise ValueError("a RoundSpec needs at least one phase")
        seen = set()
        for phase in self.phases:
            if not isinstance(phase, Phase):
                raise TypeError(
                    "phase {!r} is not a ComputePhase/CommPhase/MasterPhase".format(
                        phase
                    )
                )
            if phase.name in seen:
                raise ValueError("duplicate phase name {!r}".format(phase.name))
            seen.add(phase.name)
