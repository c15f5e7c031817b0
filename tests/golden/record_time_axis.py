"""Simulated time-axis recorder (the seconds half of DESIGN invariant 1).

``trajectories.json`` pins what a run computes; this pins *when* the
simulator says it happened.  Every configuration below runs ColumnSGD
on the simulated cluster and serialises, as IEEE-754 hex:

* every engine ``PhaseEvent``'s ``start`` / ``end`` / ``sim_start`` /
  ``sim_end``;
* every round's ``RoundOutcome.duration`` and ``worker_seconds``;
* the retry and recovery episodes' seconds;
* the network's per-kind byte counters.

The matrix crosses S-backup (0 / 1), the three sync policies (backup,
timeout, retry degrading to stale statistics) and the wire precision
(fp64 / fp32) under a permanent straggler, plus a footnote-6
``kill_worker`` and a scheduled WORKER crash + DROP under a
checkpointing recovery policy.  ``tests/test_time_axis.py`` replays it
and asserts bit equality, so a refactor of the round machinery cannot
move a simulated second unnoticed.

Regenerate only for an intentional change to the cost model::

    PYTHONPATH=src python tests/golden/record_time_axis.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, FrozenSet

from repro.sim import StragglerModel
from repro.utils.rng import rng_from_seed

FIXTURE = pathlib.Path(__file__).parent / "time_axis.json"

ITERATIONS = 6
BATCH = 64
WORKERS = 4


class PermanentStraggler(StragglerModel):
    """The paper's footnote-6 straggler ("this worker is always slower
    ... just kill it"): one victim, drawn once from ``seed``, straggles
    every round."""

    def __init__(self, n_workers: int, level: float, seed: int):
        super().__init__(n_workers, level=level, seed=seed)
        chosen = rng_from_seed(seed).choice(n_workers, size=1, replace=False)
        self._victims = frozenset(int(w) for w in chosen)

    def victims(self, iteration: int) -> FrozenSet[int]:
        return self._victims


def _hex(value: float) -> str:
    return float(value).hex()


def _run(backup=0, sync_policy="backup", wire_precision="fp64", straggler=True,
         kill=None, failures=None, recovery=None) -> dict:
    from repro.core.driver import ColumnSGDConfig, ColumnSGDDriver
    from repro.datasets import make_classification
    from repro.models import LogisticRegression
    from repro.optim import SGD
    from repro.sim import CLUSTER1, SimulatedCluster

    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    driver = ColumnSGDDriver(
        LogisticRegression(),
        SGD(0.1),
        cluster,
        config=ColumnSGDConfig(
            batch_size=BATCH,
            iterations=ITERATIONS,
            eval_every=0,
            seed=3,
            backup=backup,
            sync_policy=sync_policy,
            wire_precision=wire_precision,
        ),
        straggler=(
            PermanentStraggler(WORKERS, level=4.0, seed=1)
            if straggler
            else None
        ),
        failures=failures,
        recovery=recovery,
    )
    driver.load(make_classification(300, 120, nnz_per_row=8, binary_features=False, seed=17))
    if kill is not None:
        driver.kill_worker(kill)

    rounds = []
    run_round = driver.run_round

    def recording_round(t):
        outcome = run_round(t)
        rounds.append(
            {
                "duration": _hex(outcome.duration),
                "worker_seconds": {
                    phase: {str(w): _hex(s) for w, s in sorted(per_worker.items())}
                    for phase, per_worker in sorted(outcome.worker_seconds.items())
                },
            }
        )
        return outcome

    driver.run_round = recording_round
    result = driver.fit()
    trace = cluster.engine_trace
    return {
        "phases": [
            [e.round, e.phase] + [_hex(v) for v in (e.start, e.end, e.sim_start, e.sim_end)]
            for e in trace.events
        ],
        "rounds": rounds,
        "retries": [
            [e.round, e.attempt, list(e.suspects), _hex(e.deadline_s), e.resolved]
            for e in trace.retries
        ],
        "recoveries": [
            [e.round, e.kind, e.mode, e.worker]
            + [_hex(v) for v in (e.detect_s, e.reload_s, e.replay_s)]
            for e in trace.recoveries
        ],
        "bytes_by_kind": {
            kind.value: n for kind, n in sorted(
                cluster.network.bytes_by_kind.items(), key=lambda item: item[0].value
            )
        },
        "total_sim_time": _hex(result.total_sim_time),
    }


def record_all() -> Dict[str, dict]:
    """Run every configuration; returns {key: time-axis record}."""
    from repro.core.recovery import RecoveryPolicy
    from repro.faults import FaultEvent, FaultKind, FaultSchedule

    out: Dict[str, dict] = {}
    for backup in (0, 1):
        for sync_policy in ("backup", "timeout", "retry"):
            for precision in ("fp64", "fp32"):
                key = "straggler/backup{}/{}/{}".format(backup, sync_policy, precision)
                out[key] = _run(backup, sync_policy, precision)
    for sync_policy in ("backup", "timeout"):
        out["kill_worker/backup1/{}".format(sync_policy)] = _run(
            1, sync_policy, straggler=False, kill=2
        )
    for backup in (0, 1):
        out["faults/backup{}/checkpoint".format(backup)] = _run(
            backup,
            straggler=False,
            failures=FaultSchedule(
                [
                    FaultEvent(2, FaultKind.DROP, worker=0),
                    FaultEvent(3, FaultKind.WORKER, worker=1),
                ]
            ),
            recovery=RecoveryPolicy(checkpoint_every=2, heartbeat_interval_s=0.01),
        )
    return out


def main() -> None:
    records = record_all()
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True))
    print("recorded {} configurations -> {}".format(len(records), FIXTURE))


if __name__ == "__main__":
    main()
