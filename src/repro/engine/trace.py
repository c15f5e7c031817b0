"""Per-phase trace events emitted by the round engine.

Every phase the engine runs adds one :class:`PhaseEvent` carrying its
round, category, and simulated ``[start, end)`` interval — offsets are
round-relative, ``sim_start``/``sim_end`` absolute.  The trace is
attached to the cluster as ``cluster.engine_trace`` so analyses find it
next to the clock and network counters it complements, and
:func:`repro.experiments.gantt.render_engine_trace` renders it.
``SimulatedCluster.reset()`` clears it along with the other ledgers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class PhaseEvent:
    """One executed phase of one round."""

    round: int
    phase: str
    category: str            # 'compute' | 'comm' | 'master'
    start: float             # round-relative offset (s)
    end: float
    sim_start: float         # absolute simulated time (s)
    sim_end: float
    kind: Optional[str] = None  # message kind for comm phases

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class RetryEvent:
    """One gather retry by a timeout-based sync policy.

    Recorded by :class:`~repro.engine.policy.TimeoutSync` every time the
    master's deadline expires with workers still missing.  ``resolved``
    tells how the episode ended: ``'arrived'`` (a retry succeeded) or
    ``'stale'`` (the policy substituted cached statistics).

    ``deadline_s`` is **phase-relative**: ``alpha x median(per-worker
    finish)`` measured from the start of the synchronized phase, not
    from the start of the round (the two coincide when the synchronized
    compute phase comes first, as it does in every trainer's spec).
    """

    round: int
    attempt: int             # 0 = the initial deadline, 1.. = retries
    suspects: Tuple[int, ...]  # workers missing at this deadline
    deadline_s: float        # phase-relative deadline that expired
    resolved: str = "arrived"


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery episode (task / worker / master) with its cost split."""

    round: int
    kind: str                # 'task' | 'worker' | 'master'
    mode: str                # 'restart' | 'replica' | 'checkpoint' | 'zero-init' | 'reload'
    worker: Optional[int]    # None for master recovery
    detect_s: float = 0.0    # failure-detection delay (heartbeat timeout)
    reload_s: float = 0.0    # state reload (disk + network)
    replay_s: float = 0.0    # master replay from last checkpoint

    @property
    def total_s(self) -> float:
        return self.detect_s + self.reload_s + self.replay_s


@dataclass
class EngineTrace:
    """Ordered phase events of an engine-driven run, plus the fault
    pipeline's retry and recovery episodes.

    A run adds one phase event per phase per round for as long as it
    lasts, so they are kept as packed columns (~40 bytes an event
    instead of a ~230-byte object graph) and handed out as
    :class:`PhaseEvent` objects on request; retries and recoveries are
    rare and stay plain lists.
    """

    system: str = ""
    retries: List[RetryEvent] = field(default_factory=list, init=False)
    recoveries: List[RecoveryEvent] = field(default_factory=list, init=False)

    def __post_init__(self):
        self._rounds = array("q")
        self._times = array("d")    # start, end, sim_start, sim_end per event
        self._labels = array("H")   # position of (phase, category, kind) below
        self._label_ids: Dict[Tuple[str, str, Optional[str]], int] = {}

    def add(self, event: PhaseEvent) -> None:
        label = (event.phase, event.category, event.kind)
        self._labels.append(self._label_ids.setdefault(label, len(self._label_ids)))
        self._rounds.append(event.round)
        self._times.extend((event.start, event.end, event.sim_start, event.sim_end))

    def _events(self, positions: Iterable[int]) -> List[PhaseEvent]:
        labels = list(self._label_ids)
        out = []
        for i in positions:
            phase, category, kind = labels[self._labels[i]]
            out.append(
                PhaseEvent(
                    self._rounds[i], phase, category, *self._times[4 * i:4 * i + 4], kind
                )
            )
        return out

    @property
    def events(self) -> List[PhaseEvent]:
        """Every phase event, in the order it was added."""
        return self._events(range(len(self._rounds)))

    def add_retry(self, event: RetryEvent) -> None:
        self.retries.append(event)

    def add_recovery(self, event: RecoveryEvent) -> None:
        self.recoveries.append(event)

    def round_retries(self, round_index: int) -> List[RetryEvent]:
        """Retry episodes of one round, in order."""
        return [e for e in self.retries if e.round == round_index]

    def round_recoveries(self, round_index: int) -> List[RecoveryEvent]:
        """Recovery episodes of one round, in order."""
        return [e for e in self.recoveries if e.round == round_index]

    def rounds(self) -> List[int]:
        """Round indices present, in order of first appearance."""
        return list(dict.fromkeys(self._rounds))

    def round_events(self, round_index: int) -> List[PhaseEvent]:
        """Events of one round, in schedule order."""
        return self._events(
            i for i, r in enumerate(self._rounds) if r == round_index
        )

    def __len__(self) -> int:
        return len(self._rounds)
