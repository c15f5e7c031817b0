"""Pluggable synchronization policies.

The paper's Section VI framing: backup computation and bounded
staleness are not different algorithms, they are different answers to
"when may a round's synchronized compute phase end?".  A
:class:`SyncPolicy` encapsulates exactly that decision, so every
trainer shares one engine and swaps the policy:

* :class:`BarrierSync` — classic BSP: wait for the slowest worker.
* :class:`BackupSync` — the paper's S-backup recovery: the phase ends
  when every group has reported; slower replicas are killed.
* :class:`StaleSync` — SSP's bounded staleness: worker ``w`` may start
  round ``t`` once round ``t - 1 - staleness`` has committed; the
  policy carries the pipeline recurrence (per-worker free times and
  commit times) across rounds.
* :class:`TimeoutSync` — timeout-based failure suspicion: the master
  waits ``alpha x median(finish)``, suspects missing workers,
  optionally retries the gather with a doubling deadline, then degrades
  to group recovery / stale statistics instead of hanging on a dead
  worker.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from repro.errors import ConfigurationError, StatisticsRecoveryError
from repro.utils.validation import check_non_negative

#: Deadline stretch per gather retry, on both backends.
BACKOFF = 2.0
#: Gather retries under ``sync_policy='retry'`` (``'timeout'`` has none).
SYNC_RETRIES = 2


def check_deadline_factors(alpha: float) -> None:
    """Range check of the ``alpha x median`` deadline rule, shared by
    every place it is configured (:class:`TimeoutSync`,
    ``ColumnSGDConfig.sync_alpha``, ``runtime.deadline.TimeoutPolicy``)."""
    if alpha < 1.0:
        raise ConfigurationError(
            "alpha must be >= 1 (a deadline below the median finish "
            "would suspect half the cluster), got {}".format(alpha)
        )


class SyncPolicy:
    """Strategy hooks the engine calls around a round's phases."""

    def before_round(self, ctx) -> None:
        """Prepare round state (e.g. stale start gates) on ``ctx``."""

    def resolve(self, ctx, per_worker: Dict[int, float]) -> float:
        """Duration of a *synchronized* compute phase.

        ``per_worker`` maps worker id to its task seconds
        (``float('inf')`` for failed workers).  May record survivors and
        kills on ``ctx`` (``ctx.chosen`` / ``ctx.killed``).
        """
        raise NotImplementedError

    def round_duration(self, ctx, last_phase_end: float) -> float:
        """Round duration given the end of the round's last phase."""
        return last_phase_end


class BarrierSync(SyncPolicy):
    """Full BSP barrier: every live worker must report."""

    def resolve(self, ctx, per_worker: Dict[int, float]) -> float:
        finite = [s for s in per_worker.values() if s != float("inf")]
        ctx.chosen = set(
            w for w, s in per_worker.items() if s != float("inf")
        )
        return max(finite) if finite else 0.0


class BackupSync(SyncPolicy):
    """S-backup recovery (Section IV-B): first finisher per group wins.

    With ``S = 0`` the groups are singletons and this degenerates to
    :class:`BarrierSync` semantics — which is why the plain ColumnSGD
    driver and its backup variant share one spec.
    """

    def __init__(self, groups):
        self.groups = groups

    def resolve(self, ctx, per_worker: Dict[int, float]) -> float:
        chosen, missing = self.groups.cover(per_worker)
        if missing:
            raise StatisticsRecoveryError(missing)
        ctx.chosen = set(chosen.values())
        recovery_time = max(per_worker[w] for w in ctx.chosen)
        # a dead worker (inf) is not a straggler to kill
        ctx.killed = {
            w for w, f in per_worker.items() if recovery_time < f < float("inf")
        }
        return recovery_time


class TimeoutSync(SyncPolicy):
    """Timeout-based failure suspicion with optional gather retries.

    The master cannot see ``float('inf')`` finish times — in a real
    deployment it only observes *absence*.  This policy models that:
    it waits until a deadline of ``alpha x median(finish of arrived
    workers)`` in sim-time, then

    1. if **every** worker reported, proceeds at the last arrival
       (plain barrier semantics — no suspicion, no trace event);
    2. if workers are missing but every backup group is covered,
       proceeds at the deadline with the fastest arrived member per
       group (Fig 6's recovery rule, reached by timeout rather than
       omniscience);
    3. otherwise retries the gather up to ``max_retries`` times,
       stretching the deadline by :data:`BACKOFF` each attempt (late
       stragglers arrive during a retry window; crashed workers never
       do), and finally marks the uncovered groups stale so the master
       reuses their previous round's contribution.

    Every deadline expiry is recorded as a
    :class:`~repro.engine.trace.RetryEvent` on ``cluster.engine_trace``
    (``resolved``: ``'retry'`` for an expiry that triggered another
    attempt, ``'arrived'`` / ``'stale'`` for the final one).  Workers
    are never killed by suspicion — a late straggler keeps its
    partitions and rejoins the next round.

    All times here are **phase-relative**: the per-worker finish times
    are durations measured from the synchronized phase's start, so the
    deadline and the returned phase duration are too.
    """

    def __init__(self, groups, alpha: float = 3.0, max_retries: int = 0):
        check_deadline_factors(alpha)
        check_non_negative(max_retries, "max_retries")
        self.groups = groups
        self.alpha = float(alpha)
        self.max_retries = int(max_retries)

    def _record(self, ctx, attempt, suspects, deadline, resolved) -> None:
        trace = getattr(ctx.cluster, "engine_trace", None)
        # a replayed round's episodes were recorded when it first ran
        if trace is not None and not ctx.replay:
            from repro.engine.trace import RetryEvent

            trace.add_retry(
                RetryEvent(
                    round=ctx.t,
                    attempt=attempt,
                    suspects=tuple(sorted(suspects)),
                    deadline_s=deadline,
                    resolved=resolved,
                )
            )

    def resolve(self, ctx, per_worker: Dict[int, float]) -> float:
        finish = [per_worker[w] for w in range(self.groups.n_workers)]
        finite = [f for f in finish if f != float("inf")]
        ctx.killed = set()
        deadline = self.alpha * median(finite) if finite else 0.0
        attempt = 0
        while True:
            arrived = {
                w: finish[w]
                for w in range(self.groups.n_workers)
                if finish[w] <= deadline
            }
            if len(arrived) == self.groups.n_workers:
                # nobody missing: plain barrier, no suspicion episode
                ctx.chosen = set(arrived)
                return max(finite) if attempt == 0 else max(deadline / BACKOFF, max(finite))
            suspects = [w for w in range(self.groups.n_workers) if w not in arrived]
            chosen, missing = self.groups.cover(arrived)
            if not missing:
                self._record(ctx, attempt, suspects, deadline, "arrived")
                ctx.chosen = set(chosen.values())
                return deadline
            if attempt >= self.max_retries:
                self._record(ctx, attempt, suspects, deadline, "stale")
                ctx.chosen = set(chosen.values())
                ctx.stale_groups = set(missing)
                return deadline
            self._record(ctx, attempt, suspects, deadline, "retry")
            attempt += 1
            deadline *= BACKOFF


class StaleSync(SyncPolicy):
    """SSP bounded staleness (Cui et al., ATC'14) as a policy.

    Carries the pipeline recurrence across rounds: ``worker_free[w]``
    is when worker ``w``'s last task ended, ``commits[t]`` is when
    round ``t``'s update was committed at the servers.  Round ``t``'s
    compute may start at ``commits[t - 1 - staleness]``; the round's
    *duration* is the commit-to-commit delta (clamped at zero — a
    pipelined commit can land before its predecessor's wall time).

    A fresh policy instance is built per ``fit()`` (inside the
    trainer's ``round_spec()``), so the recurrence state never leaks
    between runs.
    """

    def __init__(self, staleness: int, n_workers: int):
        check_non_negative(staleness, "staleness")
        self.staleness = int(staleness)
        self.worker_free: List[float] = [0.0] * int(n_workers)
        self.commits: List[float] = []

    def before_round(self, ctx) -> None:
        t = ctx.t
        gate = (
            self.commits[t - 1 - self.staleness]
            if t - 1 - self.staleness >= 0
            else 0.0
        )
        ctx.start_times = [
            max(self.worker_free[w], gate) for w in range(len(self.worker_free))
        ]

    def resolve(self, ctx, per_worker: Dict[int, float]) -> float:
        for w, task in per_worker.items():
            self.worker_free[w] = ctx.start_times[w] + task
        ctx.chosen = set(per_worker)
        base = self.commits[ctx.t - 1] if ctx.t else 0.0
        # Round-relative busy span; may be negative when the pipeline
        # runs ahead of the previous commit.
        return max(self.worker_free) - base

    def round_duration(self, ctx, last_phase_end: float) -> float:
        base = self.commits[ctx.t - 1] if ctx.t else 0.0
        commit_time = base + last_phase_end
        self.commits.append(commit_time)
        return max(last_phase_end, 0.0)
