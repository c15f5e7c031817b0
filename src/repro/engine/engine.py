"""The round engine.

One :class:`RoundEngine` executes a trainer's
:class:`~repro.engine.spec.RoundSpec` round by round: it runs the
phases one after another in declaration order, calls the compute and
master executors on the trainer, emits communication through the
substrate's :class:`~repro.net.topology.StarTopology` (the simulated
cluster's, or a :class:`~repro.runtime.LocalRuntime`'s), lets the
spec's :class:`~repro.engine.policy.SyncPolicy` resolve synchronized
phases and the round duration, and records one
:class:`~repro.engine.trace.PhaseEvent` per phase.

Because the engine both *emits* a comm phase's messages and *derives*
the round's expected traffic from the very same declaration, the
``(count, bytes)`` expectation handed to the runtime
:class:`~repro.net.protocol.ProtocolChecker` cannot drift from the
emissions — the drift class PRs 1-2's checker was built to police is
gone by construction, and what is left (a rogue send inside an
executor) is an undeclared kind the checker raises on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.engine.spec import (
    CommPhase,
    ComputePhase,
    MasterPhase,
    RoundSpec,
    TrafficEnvelope,
)
from repro.engine.trace import EngineTrace, PhaseEvent
from repro.net.message import MessageKind
from repro.net.topology import ring_allreduce_shards
from repro.storage.serialization import OBJECT_OVERHEAD_BYTES


class RoundContext:
    """Mutable per-round state shared by a round's phase executors."""

    def __init__(self, t: int, trainer, cluster, slowdowns=None, replay=False):
        self.t = t
        self.trainer = trainer
        self.cluster = cluster
        #: a past round re-executed for master recovery: nothing about it
        #: is recorded (see :meth:`RoundEngine.run_round`)
        self.replay = replay
        #: per-worker straggler multipliers for this round (None when the
        #: trainer has no straggler model)
        self.slowdowns = slowdowns
        #: free-form phase-to-phase hand-off (statistics buffers, batch
        #: metadata, message sizes, ...)
        self.scratch: Dict[str, object] = {}
        #: workers whose statistics the sync policy selected
        self.chosen: Set[int] = set()
        #: stragglers the policy killed after recovery
        self.killed: Set[int] = set()
        #: backup groups whose statistics never arrived this round; the
        #: master substitutes their previous contribution (TimeoutSync)
        self.stale_groups: Set[int] = set()
        #: per-worker start offsets (set by StaleSync.before_round)
        self.start_times = None
        #: the round's sync policy, for executors that need its state
        #: (SSP's version selection reads the commit history)
        self.sync = None
        #: measured seconds of comm phases, set by the compute executor
        #: whose exchange carried their frames; they replace the
        #: topology's modelled seconds (empty on the simulator)
        self.comm_seconds: Dict[str, float] = {}
        #: frames that measured transport had to resend this round
        self.resends = 0


@dataclass
class RoundOutcome:
    """Everything one engine round produced, for the loop and analyses."""

    duration: float
    phase_seconds: Dict[str, float]
    worker_seconds: Dict[str, Dict[int, float]]
    killed: Set[int] = field(default_factory=set)
    chosen: Set[int] = field(default_factory=set)
    #: per-kind expected traffic — exact ``(count, bytes)`` tuples
    #: derived from the comm phases, overridden by the spec's envelopes
    expected: Dict[MessageKind, object] = field(default_factory=dict)


class RoundEngine:
    """Execute a trainer's RoundSpec on an execution substrate.

    A substrate is anything with ``n_workers``, ``clock``, ``network``
    and ``topology`` (a :class:`~repro.net.topology.StarTopology` over
    that network).  By default it is ``cluster`` itself; pass
    ``runtime=`` to run the spec on worker processes: with a
    :class:`~repro.runtime.LocalRuntime`, ``trainer`` is the master-side
    program whose executors exchange with the workers and report the
    measured seconds of the comm phases their exchanges carried.

    Construction attaches a fresh :class:`EngineTrace` to
    ``cluster.engine_trace`` and the substrate's ``engine_trace``
    (replacing any previous run's trace; ``SimulatedCluster.reset()``
    clears it).
    """

    def __init__(self, trainer, cluster, spec: Optional[RoundSpec] = None,
                 straggler=None, runtime=None):
        self.trainer = trainer
        self.cluster = cluster
        self.substrate = runtime or cluster
        self.spec = spec if spec is not None else trainer.round_spec()
        self.straggler = straggler
        self.trace = EngineTrace(system=self.spec.system)
        cluster.engine_trace = self.trace
        self.substrate.engine_trace = self.trace

    # ------------------------------------------------------------------
    def run_round(self, t: int, replay: bool = False) -> RoundOutcome:
        """Execute round ``t``; does not advance the cluster clock.

        ``replay=True`` re-executes a past round after a master restart
        (:meth:`~repro.core.recovery.RecoveryManager.recover_master`):
        same spec, executors and sync policy, so the numerics and the
        seconds of a real round — at unit slowdowns (the straggler model
        is not consulted), its traffic accounted as unchecked
        :data:`MessageKind.CHECKPOINT` recovery chatter, and nothing
        recorded: no phase or retry event, no expectation.
        """
        slowdowns = None
        if self.straggler is not None:
            slowdowns = (
                dict.fromkeys(range(self.substrate.n_workers), 1.0)
                if replay
                else self.straggler.slowdowns(t)
            )
        # the simulated cluster scales the task seconds its in-process
        # exchanges model by them
        self.cluster.slowdowns = slowdowns
        ctx = RoundContext(t, self.trainer, self.cluster, slowdowns, replay)
        sync = self.spec.sync
        ctx.sync = sync
        sync.before_round(ctx)

        round_start = self.substrate.clock.now()
        losses_before = self.substrate.network.losses
        phase_seconds: Dict[str, float] = {}
        worker_seconds: Dict[str, Dict[int, float]] = {}
        expected: Dict[MessageKind, tuple] = {}

        # Execute first, lay out on the time axis afterwards, because a
        # measured comm phase learns its seconds only once the exchange
        # that carries it has run (a broadcast precedes its carrier).
        for phase in self.spec.phases:
            phase_seconds[phase.name] = self._execute(
                phase, ctx, expected, worker_seconds
            )
        phase_seconds.update(ctx.comm_seconds)

        end = 0.0
        for phase in self.spec.phases:
            start, end = end, end + phase_seconds[phase.name]
            if replay:
                continue
            self.trace.add(
                PhaseEvent(
                    round=t,
                    phase=phase.name,
                    category=_CATEGORY[type(phase)],
                    start=start,
                    end=end,
                    sim_start=round_start + start,
                    sim_end=round_start + end,
                    kind=phase.kind.value if isinstance(phase, CommPhase) else None,
                )
            )
        duration = sync.round_duration(ctx, end)

        if replay:
            return RoundOutcome(duration, phase_seconds, worker_seconds)
        if self.spec.envelopes is not None:
            expected.update(getattr(self.trainer, self.spec.envelopes)(ctx))
        # a simulated lost reply is one retransmit, like a measured resend
        ctx.resends += self.substrate.network.losses - losses_before
        self._expect_retries(expected, ctx.resends)
        return RoundOutcome(
            duration=duration,
            phase_seconds=phase_seconds,
            worker_seconds=worker_seconds,
            killed=set(ctx.killed),
            chosen=set(ctx.chosen),
            expected=expected,
        )

    # ------------------------------------------------------------------
    def _execute(self, phase, ctx, expected, worker_seconds) -> float:
        trainer = self.trainer
        if isinstance(phase, ComputePhase):
            per_worker = getattr(trainer, phase.run)(ctx)
            worker_seconds[phase.name] = dict(per_worker)
            if phase.synchronized:
                return self.spec.sync.resolve(ctx, per_worker)
            finite = [s for s in per_worker.values() if s != float("inf")]
            return max(finite) if finite else 0.0
        if isinstance(phase, MasterPhase):
            return float(getattr(trainer, phase.run)(ctx))
        return self._execute_comm(phase, ctx, expected)

    def _execute_comm(self, phase: CommPhase, ctx, expected) -> float:
        trainer = self.trainer
        n = self.substrate.n_workers
        kind = MessageKind.CHECKPOINT if ctx.replay else phase.kind
        sizes = getattr(trainer, phase.sizes)(ctx)
        if phase.pattern == "gather":
            sizes = [int(s) for s in sizes]
            count, total = len(sizes), sum(sizes)
        elif phase.pattern == "broadcast":
            sizes = int(sizes)
            count, total = n, n * sizes
        else:  # allreduce, over the exact split the ring sends
            sizes = int(sizes)
            shards = ring_allreduce_shards(sizes, n)
            count, total = len(shards), sum(shards)
        args = (kind, sizes)
        if phase.servers is not None:
            args += (getattr(trainer, phase.servers),)
        seconds = getattr(self.substrate.topology, phase.pattern)(*args)
        self._expect(expected, kind, count, total)
        return seconds

    @staticmethod
    def _expect(expected, kind, count, total_bytes) -> None:
        have_count, have_bytes = expected.get(kind, (0, 0))
        expected[kind] = (have_count + count, have_bytes + total_bytes)

    @staticmethod
    def _expect_retries(expected, resends: int) -> None:
        """Bound the round's RETRY traffic by its ``resends``.

        Retransmits travel under :data:`MessageKind.RETRY`, so every
        base-kind expectation above stays *exact*.  Each resend — a
        measured transport's, or a simulated lost reply's — is one RETRY
        copy, two when a garbled reply also wasted its arrival, none
        bigger than a frame header on top of the round's largest
        declared transfer.  With no resend no envelope is added and any
        stray RETRY message is flagged as undeclared.
        """
        if not resends:
            return
        frame = OBJECT_OVERHEAD_BYTES + max(
            want.max_bytes if isinstance(want, TrafficEnvelope) else want[1]
            for want in expected.values()
        )
        expected[MessageKind.RETRY] = TrafficEnvelope(
            resends, 2 * resends, 0, 2 * resends * frame
        )


_CATEGORY = {
    ComputePhase: "compute",
    CommPhase: "comm",
    MasterPhase: "master",
}
