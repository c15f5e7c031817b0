"""ASCII Gantt rendering of one BSP iteration's worker timeline.

Feeds on the :class:`~repro.engine.RoundOutcome` that
``ColumnSGDDriver.run_round`` returns: per-worker task times of the
statistics and update phases, plus the master's gather/reduce/broadcast
interlude.  The rendering makes straggler and
backup dynamics visible at a glance::

    worker 0 |############|--------|############|
    worker 1 |############|--------|############|
    worker 2 |############################################################| (straggler, killed)
    worker 3 |############|--------|############|
              computeStats  master   updateModel

``#`` = worker busy, ``-`` = waiting on the master interlude, blank =
killed / not participating.

:func:`render_engine_trace` is the engine-era complement: it draws the
per-phase lanes of a :class:`~repro.engine.trace.EngineTrace`
(``cluster.engine_trace``), one after another along the round.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.utils.format import format_duration


def render_iteration_gantt(
    worker_seconds: Dict[str, Dict[int, float]],
    phase_seconds: Dict[str, float],
    killed: Set[int] = frozenset(),
    width: int = 72,
) -> str:
    """Render one iteration as a fixed-width ASCII Gantt chart.

    Parameters
    ----------
    worker_seconds:
        ``{'compute_statistics': {worker: seconds}, 'update_model': ...}``
        (the round outcome's ``worker_seconds``).  ``inf`` entries
        (failed workers) render as an empty lane.
    phase_seconds:
        The round outcome's ``phase_seconds`` (for the master interlude
        and the phase boundaries).
    killed:
        The round outcome's ``killed``: workers killed after statistics
        recovery (backup computation) — their lane stops at their own
        statistics finish time.
    """
    stats = worker_seconds.get("compute_statistics", {})
    updates = worker_seconds.get("update_model", {})
    finite_stats = {w: s for w, s in stats.items() if s != float("inf")}
    if not finite_stats:
        return "(no live workers)"
    interlude = (
        phase_seconds.get("gather", 0.0)
        + phase_seconds.get("reduce", 0.0)
        + phase_seconds.get("broadcast", 0.0)
    )
    # With backup computation the statistics phase ends at recovery time
    # (first finisher per group), not at the straggler's finish — use the
    # driver's actual phase length, falling back to the slowest worker.
    phase1_end = phase_seconds.get(
        "compute_statistics", max(finite_stats.values())
    )
    duration = phase1_end + interlude + (max(updates.values()) if updates else 0.0)
    if duration <= 0:
        return "(zero-length iteration)"
    # killed stragglers may have run past the iteration end before the
    # master killed them; scale so their bar still fits the width
    total = max([duration] + [finite_stats[w] for w in killed if w in finite_stats])
    scale = (width - 1) / total

    def bar(length: float) -> int:
        return max(1, int(round(length * scale)))

    lines: List[str] = []
    for worker in sorted(stats):
        if stats[worker] == float("inf"):
            lines.append("worker {:>2} | (failed)".format(worker))
            continue
        segments = "#" * bar(stats[worker])
        if worker in killed:
            label = "  <- straggler, killed after recovery"
            lines.append("worker {:>2} |{}{}".format(worker, segments, label))
            continue
        # idle until the slowest statistics task + master interlude end
        idle = (phase1_end - stats[worker]) + interlude
        segments += "-" * bar(idle) if idle > 0 else ""
        if worker in updates:
            segments += "#" * bar(updates[worker])
        lines.append("worker {:>2} |{}".format(worker, segments))
    lines.append(
        "legend: # busy, - waiting (slowest peer + master "
        "gather/reduce/broadcast); iteration = {}".format(format_duration(duration))
    )
    return "\n".join(lines)


#: one-character bar fill per phase category
_CATEGORY_FILL = {"compute": "#", "comm": "=", "master": "*"}


def fault_timeline(trace) -> str:
    """Summarize every retry/recovery episode of a run, one line each.

    The run-level complement of :func:`render_engine_trace`'s per-round
    annotations — ``bench_fig13`` prints it to show where the fault
    pipeline intervened and what each episode cost.
    """
    if trace is None or (not trace.retries and not trace.recoveries):
        return "(no fault episodes)"
    lines: List[str] = []
    for retry in trace.retries:
        lines.append(
            "round {:>3}  retry   attempt {} suspects {} deadline {} -> {}".format(
                retry.round,
                retry.attempt,
                list(retry.suspects),
                format_duration(retry.deadline_s),
                retry.resolved,
            )
        )
    for recovery in trace.recoveries:
        who = (
            "{} worker {}".format(recovery.kind, recovery.worker)
            if recovery.worker is not None
            else recovery.kind
        )
        lines.append(
            "round {:>3}  recover {} ({}) detect {} reload {} replay {} total {}".format(
                recovery.round,
                who,
                recovery.mode,
                format_duration(recovery.detect_s),
                format_duration(recovery.reload_s),
                format_duration(recovery.replay_s),
                format_duration(recovery.total_s),
            )
        )
    return "\n".join(sorted(lines))


def render_engine_trace(
    trace,
    round_index: Optional[int] = None,
    width: int = 72,
) -> str:
    """Render one round of an :class:`~repro.engine.trace.EngineTrace`.

    Each phase gets its own lane positioned at its ``[start, end)``
    offset within the round; phases run one after another, so the bars
    form a staircase::

        round 0 (ColumnSGD, 14.2 ms)
        compute_statistics compute |########                    |
        gather             comm    |        ====                |
        ...

    Parameters
    ----------
    trace:
        The ``cluster.engine_trace`` left behind by an engine run.
    round_index:
        Which round to draw; defaults to the last round in the trace.
    """
    if trace is None or not len(trace):
        return "(no engine trace; run a round first)"
    rounds = trace.rounds()
    if round_index is None:
        round_index = rounds[-1]
    events = trace.round_events(round_index)
    if not events:
        return "(round {} not in trace; have {})".format(round_index, rounds)
    span = max(event.end for event in events)
    name_width = max(len(event.phase) for event in events)
    label_width = name_width + 1 + max(len(c) for c in _CATEGORY_FILL)
    bar_width = max(8, width - label_width - 3)
    scale = (bar_width / span) if span > 0 else 0.0

    lines = [
        "round {} ({}, {})".format(
            round_index, trace.system, format_duration(span)
        )
    ]
    for event in events:
        lead = int(round(event.start * scale))
        fill = _CATEGORY_FILL.get(event.category, "?")
        length = max(1, int(round(event.duration * scale))) if scale else 1
        lead = min(lead, bar_width - length)
        bar = " " * lead + fill * length
        label = "{:<{}} {:<7}".format(event.phase, name_width, event.category)
        kind = " ({})".format(event.kind) if event.kind else ""
        lines.append(
            "{}|{:<{}}|{}".format(label, bar, bar_width, kind)
        )
    for retry in trace.round_retries(round_index):
        lines.append(
            "  ! retry attempt {}: suspects {} at deadline {} -> {}".format(
                retry.attempt,
                list(retry.suspects),
                format_duration(retry.deadline_s),
                retry.resolved,
            )
        )
    for recovery in trace.round_recoveries(round_index):
        who = (
            "{} worker {}".format(recovery.kind, recovery.worker)
            if recovery.worker is not None
            else recovery.kind
        )
        lines.append(
            "  ! {} via {}: detect {} + reload {} + replay {} = {}".format(
                who,
                recovery.mode,
                format_duration(recovery.detect_s),
                format_duration(recovery.reload_s),
                format_duration(recovery.replay_s),
                format_duration(recovery.total_s),
            )
        )
    lines.append(
        "legend: # compute, = comm, * master; offsets are round-relative"
    )
    return "\n".join(lines)
