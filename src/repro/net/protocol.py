"""Runtime BSP protocol checker over the simulator's event log.

The static rules in :mod:`repro.lint` keep the *code* honest; this
checker keeps a *run* honest.  It hooks the network's message log and,
round by round, verifies the invariants the paper's accounting relies
on:

* **barrier isolation** — no message is sent outside an open round
  (BSP: all communication happens inside an iteration's phases);
* **push/bcast pairing** — every ``STATISTICS_PUSH`` a worker sends is
  answered by a ``STATISTICS_BCAST`` back to that worker in the *same*
  round (Algorithm 3's gather-reduce-broadcast);
* **clock monotonicity** — simulated time never runs backwards across
  a round;
* **byte accounting** — observed per-kind message counts and byte
  totals equal the analytic cost-model expectation the trainer derives
  from Table I (``expected``), so the formulas stay descriptive of the
  implementation rather than decorative.

Usage::

    checker = ProtocolChecker(cluster)
    for t in range(iterations):
        checker.begin_round(t)
        ...run the iteration...
        checker.end_round(t, expected={kind: (count, total_bytes), ...})

Trainers enable this behind their configs' ``check_protocol`` flag; a
violation raises :class:`~repro.errors.ProtocolViolationError` listing
every broken invariant of the round.

The ``expected`` declarations cannot drift along with a bug: the engine
derives them from the same ``CommPhase`` objects it emits, and a kind
sent behind the spec's back (a rogue ``network.send`` in an executor)
is *undeclared* here and raises.  That is why the static extractor
that used to shadow this check (lint rule R010) is retired;
``tests/test_trainer_contract.py`` runs every trainer under the checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ProtocolViolationError
from repro.net.message import Message, MessageKind

#: Kinds that may appear in any round without being declared in the
#: trainer's expectation: scheduling/barrier chatter plus the fault
#: layer's liveness and checkpoint traffic, whose cadence is governed by
#: :class:`~repro.core.recovery.RecoveryPolicy` rather than the trainer's
#: Table-I cost model.  Retransmissions of *checked* kinds are logged
#: under :data:`MessageKind.RETRY`, which stays checked — the engine
#: bounds it by the round's resend count — so runs with lost replies
#: remain auditable without loosening the base-kind exact counts.
UNCHECKED_KINDS = (
    MessageKind.CONTROL,
    MessageKind.HEARTBEAT,
    MessageKind.CHECKPOINT,
)
_UNCHECKED_KINDS = UNCHECKED_KINDS


@dataclass(frozen=True)
class TrafficEnvelope:
    """Bounded per-round traffic for one message kind.

    Protocols that relax the BSP barrier (bounded staleness) cannot
    predict exact per-round traffic, but they *can* bound it: SSP with
    staleness ``s`` still commits exactly one update per round through
    the servers, while gradient bytes vary with the sampled batch's
    sparsity.  An envelope declares those bounds so such trainers are
    checked instead of exempted; an exact expectation is the degenerate
    envelope with ``min == max``.
    """

    min_messages: int
    max_messages: int
    min_bytes: int
    max_bytes: int

    def __post_init__(self):
        if not (0 <= self.min_messages <= self.max_messages):
            raise ValueError("need 0 <= min_messages <= max_messages")
        if not (0 <= self.min_bytes <= self.max_bytes):
            raise ValueError("need 0 <= min_bytes <= max_bytes")

    @classmethod
    def exact(cls, messages: int, total_bytes: int) -> "TrafficEnvelope":
        """Envelope matching exactly one (count, bytes) point."""
        return cls(messages, messages, total_bytes, total_bytes)

    def check(self, kind: MessageKind, count: int, total_bytes: int) -> List[str]:
        """Problem strings for observed traffic outside the envelope."""
        problems = []
        if not self.min_messages <= count <= self.max_messages:
            problems.append(
                "{}: envelope allows {}..{} message(s), observed {}".format(
                    kind.value, self.min_messages, self.max_messages, count
                )
            )
        if not self.min_bytes <= total_bytes <= self.max_bytes:
            problems.append(
                "{}: envelope allows {}..{} byte(s), observed {}".format(
                    kind.value, self.min_bytes, self.max_bytes, total_bytes
                )
            )
        return problems


#: One kind's expectation: an exact ``(count, bytes)`` pair or an envelope.
ExpectedTraffic = Union[Tuple[int, int], TrafficEnvelope]


class ProtocolChecker:
    """Validate per-iteration BSP invariants against the event log."""

    def __init__(self, cluster):
        self.cluster = cluster
        cluster.network.keep_log = True
        # Messages already logged (e.g. data loading) are out of scope;
        # the checker audits only what happens between begin/end calls.
        self._cursor = len(cluster.network.log)
        self._round_open = False
        self._start_clock = cluster.clock.now()
        self.rounds_checked = 0

    # ------------------------------------------------------------------
    def begin_round(self, iteration: int) -> None:
        """Open iteration ``iteration``; flags traffic since the last round."""
        if self._round_open:
            raise ProtocolViolationError(
                iteration, ["begin_round() while the previous round is still open"]
            )
        log = self.cluster.network.log
        if len(log) != self._cursor:
            stray = log[self._cursor:]
            raise ProtocolViolationError(
                iteration,
                [
                    "{} message(s) crossed the barrier before the round opened "
                    "(first: {} from {} to {})".format(
                        len(stray), stray[0].kind.value, stray[0].src, stray[0].dst
                    )
                ],
            )
        self._round_open = True
        self._start_clock = self.cluster.clock.now()

    def end_round(
        self,
        iteration: int,
        expected: Optional[Dict[MessageKind, ExpectedTraffic]] = None,
    ) -> None:
        """Close iteration ``iteration`` and verify its invariants.

        ``expected`` maps each message kind the trainer's cost model
        predicts for the round to ``(message_count, total_bytes)`` — or
        to a :class:`TrafficEnvelope` for bounded-staleness protocols
        whose per-round traffic is bracketed rather than exact.  Observed
        traffic must match, and no undeclared kind may appear
        (:data:`MessageKind.CONTROL` excepted).
        """
        if not self._round_open:
            raise ProtocolViolationError(
                iteration, ["end_round() without a matching begin_round()"]
            )
        self._round_open = False
        problems: List[str] = []

        now = self.cluster.clock.now()
        if now < self._start_clock:
            problems.append(
                "clock ran backwards: {:.6f}s at round start, {:.6f}s at end".format(
                    self._start_clock, now
                )
            )

        messages = self.cluster.network.log[self._cursor:]
        self._cursor = len(self.cluster.network.log)

        counts: Dict[MessageKind, int] = {}
        totals: Dict[MessageKind, int] = {}
        for message in messages:
            counts[message.kind] = counts.get(message.kind, 0) + 1
            totals[message.kind] = totals.get(message.kind, 0) + message.size_bytes

        problems.extend(self._check_pairing(messages))
        if expected is not None:
            problems.extend(self._check_accounting(counts, totals, expected))

        self.rounds_checked += 1
        if problems:
            raise ProtocolViolationError(iteration, problems)

    # ------------------------------------------------------------------
    def _check_pairing(self, messages: List[Message]) -> List[str]:
        """Every statistics pusher must be answered in the same round."""
        pushers = {
            m.src for m in messages if m.kind == MessageKind.STATISTICS_PUSH
        }
        answered = {
            m.dst for m in messages if m.kind == MessageKind.STATISTICS_BCAST
        }
        problems = []
        unanswered = sorted(pushers - answered)
        if unanswered:
            problems.append(
                "STATISTICS_PUSH from worker(s) {} never answered by a "
                "STATISTICS_BCAST in the same round".format(unanswered)
            )
        return problems

    def _check_accounting(
        self,
        counts: Dict[MessageKind, int],
        totals: Dict[MessageKind, int],
        expected: Dict[MessageKind, ExpectedTraffic],
    ) -> List[str]:
        """Observed counts/bytes must satisfy the analytic expectation."""
        problems = []
        for kind in counts:
            if kind not in expected and kind not in _UNCHECKED_KINDS:
                problems.append(
                    "unexpected {} traffic: {} message(s), {} byte(s)".format(
                        kind.value, counts[kind], totals[kind]
                    )
                )
        for kind, want in expected.items():
            got_count = counts.get(kind, 0)
            got_bytes = totals.get(kind, 0)
            if isinstance(want, TrafficEnvelope):
                problems.extend(want.check(kind, got_count, got_bytes))
                continue
            want_count, want_bytes = want
            if got_count != want_count:
                problems.append(
                    "{}: cost model predicts {} message(s), observed {}".format(
                        kind.value, want_count, got_count
                    )
                )
            if got_bytes != want_bytes:
                problems.append(
                    "{}: cost model predicts {} byte(s), observed {}".format(
                        kind.value, want_bytes, got_bytes
                    )
                )
        return problems
