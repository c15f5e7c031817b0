"""repro.engine — the declarative round engine.

Every trainer declares its round as a :class:`RoundSpec` — typed phases
(compute / comm / master) with per-phase message kinds and byte
formulas — and :class:`RoundEngine` runs those phases one after another
in declaration order on an execution runtime, with synchronization
semantics (BSP barrier, S-backup recovery, bounded staleness,
timeout-based suspicion) supplied by pluggable :class:`SyncPolicy`
objects.  See ``docs/engine.md`` and ``docs/faults.md``.
"""

from repro.engine.engine import RoundContext, RoundEngine, RoundOutcome
from repro.engine.policy import (
    BackupSync,
    BarrierSync,
    StaleSync,
    SyncPolicy,
    TimeoutSync,
)
from repro.engine.spec import (
    CommPhase,
    ComputePhase,
    MasterPhase,
    RoundSpec,
    TrafficEnvelope,
)
from repro.engine.trace import EngineTrace, PhaseEvent, RecoveryEvent, RetryEvent

__all__ = [
    "BackupSync",
    "BarrierSync",
    "CommPhase",
    "ComputePhase",
    "EngineTrace",
    "MasterPhase",
    "PhaseEvent",
    "RecoveryEvent",
    "RetryEvent",
    "RoundContext",
    "RoundEngine",
    "RoundOutcome",
    "RoundSpec",
    "StaleSync",
    "SyncPolicy",
    "TimeoutSync",
    "TrafficEnvelope",
]
