"""The round engine.

One :class:`RoundEngine` executes a trainer's
:class:`~repro.engine.spec.RoundSpec` round by round: it runs the
phases one after another in declaration order, calls the compute and
master executors on the trainer, emits
communication through the :class:`~repro.runtime.Runtime` transport
surface (clock + gather/broadcast/allreduce + traffic counters — the
simulated star topology behind :class:`~repro.runtime.SimRuntime`),
lets the spec's :class:`~repro.engine.policy.SyncPolicy` resolve
synchronized phases and the round duration, and records one
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

from repro.engine.cost_audit import CostAuditor
from repro.engine.spec import (
    CommPhase,
    ComputePhase,
    MasterPhase,
    RoundSpec,
    TrafficEnvelope,
)
from repro.engine.trace import EngineTrace, PhaseEvent
from repro.net.message import MessageKind
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
        #: permanently failed workers (set by the compute executor)
        self.failed: frozenset = frozenset()
        #: backup groups whose statistics never arrived this round; the
        #: master substitutes their previous contribution (TimeoutSync /
        #: RetrySync with ``on_exhausted='stale'``)
        self.stale_groups: Set[int] = set()
        #: per-worker start offsets (set by StaleSync.before_round)
        self.start_times = None
        #: the round's sync policy, for executors that need its state
        #: (SSP's version selection reads the commit history)
        self.sync = None
        #: measured seconds of comm phases, set by the compute executor
        #: whose exchange carried their frames: a measuring runtime's
        #: transport only accounts bytes (the simulator's returns
        #: modelled seconds and leaves this empty)
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
    """Execute a trainer's RoundSpec on an execution runtime.

    The engine talks to the substrate only through the
    :class:`~repro.runtime.Runtime` surface; by default it uses the
    cluster's :attr:`~repro.sim.cluster.SimulatedCluster.runtime`
    (a :class:`~repro.runtime.SimRuntime`), which forwards every call
    to the same topology/clock objects the engine used to touch
    directly — so trajectories are bit-identical to the pre-runtime
    code path.  Pass ``runtime=`` to run the spec on another backend:
    with a :class:`~repro.runtime.LocalRuntime`, ``trainer`` is the
    master-side program whose executors exchange with the worker
    processes and report measured seconds.

    Construction attaches a fresh :class:`EngineTrace` to
    ``cluster.engine_trace`` and ``runtime.engine_trace`` (replacing any
    previous run's trace; ``SimulatedCluster.reset()`` clears it).
    """

    def __init__(self, trainer, cluster, spec: Optional[RoundSpec] = None,
                 straggler=None, check_cost: bool = False, runtime=None):
        self.trainer = trainer
        self.cluster = cluster
        self.runtime = runtime if runtime is not None else cluster.runtime
        self.spec = spec if spec is not None else trainer.round_spec()
        self.straggler = straggler
        self.trace = EngineTrace(system=self.spec.system)
        #: measured-vs-charged kernel work audit (the runtime twin of
        #: lint rule R016); None when not requested
        self.cost_audit: Optional[CostAuditor] = (
            CostAuditor() if check_cost else None
        )
        cluster.engine_trace = self.trace
        self.runtime.engine_trace = self.trace

    # ------------------------------------------------------------------
    def run_round(self, t: int, replay: bool = False) -> RoundOutcome:
        """Execute round ``t``; does not advance the cluster clock.

        ``replay=True`` re-executes a past round after a master restart
        (:meth:`~repro.core.recovery.RecoveryManager.recover_master`):
        same spec, executors and sync policy, so the numerics and the
        seconds of a real round — at unit slowdowns (the straggler model
        is not consulted), its traffic accounted as unchecked
        :data:`MessageKind.CHECKPOINT` recovery chatter, and nothing
        recorded: no phase or retry event, no expectation, no cost audit.
        """
        slowdowns = None
        if self.straggler is not None:
            slowdowns = (
                dict.fromkeys(range(self.runtime.n_workers), 1.0)
                if replay
                else self.straggler.slowdowns(t)
            )
        ctx = RoundContext(t, self.trainer, self.cluster, slowdowns, replay)
        sync = self.spec.sync
        ctx.sync = sync
        sync.before_round(ctx)

        round_start = self.runtime.clock.now()
        losses_before = self.runtime.network.losses
        phase_seconds: Dict[str, float] = {}
        worker_seconds: Dict[str, Dict[int, float]] = {}
        expected: Dict[MessageKind, tuple] = {}

        audit = None if replay else self.cost_audit
        if audit is not None:
            audit.begin_round()

        # Execute first, lay out on the time axis afterwards, because a
        # measured comm phase learns its seconds only once the exchange
        # that carries it has run (a broadcast precedes its carrier).
        for phase in self.spec.phases:
            phase_seconds[phase.name] = self._execute(
                phase, ctx, expected, worker_seconds
            )
        for name, seconds in ctx.comm_seconds.items():
            phase_seconds[name] += seconds

        if audit is not None:
            audit.finish_round(t)

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
        ctx.resends += self.runtime.network.losses - losses_before
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
        runtime = self.runtime
        trainer = self.trainer
        kind = MessageKind.CHECKPOINT if ctx.replay else phase.kind
        sizes = getattr(trainer, phase.sizes)(ctx)
        if phase.pattern == "gather":
            sizes = [int(s) for s in sizes]
            seconds = runtime.gather(kind, sizes)
            self._expect(expected, kind, len(sizes), sum(sizes))
        elif phase.pattern == "sharded_gather":
            sizes = [int(s) for s in sizes]
            servers = getattr(trainer, phase.servers)
            seconds = runtime.sharded_gather(kind, sizes, servers)
            self._expect(expected, kind, len(sizes), sum(sizes))
        elif phase.pattern == "broadcast":
            size = int(sizes)
            seconds = runtime.broadcast(kind, size)
            self._expect(expected, kind, runtime.n_workers,
                         runtime.n_workers * size)
        elif phase.pattern == "sharded_broadcast":
            size = int(sizes)
            servers = getattr(trainer, phase.servers)
            seconds = runtime.sharded_broadcast(kind, size, servers)
            self._expect(expected, kind, runtime.n_workers,
                         runtime.n_workers * size)
        else:  # allreduce
            size = int(sizes)
            n = runtime.n_workers
            seconds = runtime.allreduce(kind, size)
            steps = 2 * (n - 1)
            if steps:
                self._expect(expected, kind, steps, steps * int(size / n))
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
