"""Fault tolerance on the real backend: kills + stragglers, measured.

Runs ColumnSGD LR and the MLlib baseline on ``backend='local'`` under a
seeded :class:`~repro.faults.FaultSchedule` — a scripted SIGKILL per
run (so every cell exercises recovery) plus Poisson kill/stall arrivals
— across two chaos seeds, and reports what the fault pipeline actually
did: recoveries by mode, transport retries, and the measured seconds
spent detecting and reloading.

The numeric contract rides along: ColumnSGD restores from real
checkpoint spills (``mode='checkpoint'``), MLlib respawns stateless
workers (``mode='reload'``) and must end bit-identical to the fault-free
simulator.

Writes ``BENCH_faults_local.json`` into the current working directory;
CI's faults job uploads it.
"""

import json
import pathlib

import numpy as np

from repro.baselines.registry import make_trainer
from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.core.recovery import RecoveryPolicy
from repro.datasets import make_classification
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from repro.utils import ascii_table

WORKERS = 4
ITERATIONS = 12
BATCH = 100
SEED = 5
CHAOS_SEEDS = (11, 12)
TIMEOUT_S = 5.0  # generous floor: CI machines must not time out fault-free


def make_data():
    return make_classification(2000, 400, nnz_per_row=10, seed=SEED)


def make_chaos(chaos_seed):
    return FaultSchedule(
        # one guaranteed mid-run SIGKILL so every cell recovers
        events=(FaultEvent(3, FaultKind.WORKER, chaos_seed % WORKERS),),
        mtbf_rounds=4.0,
        seed=chaos_seed,
        kinds=(FaultKind.WORKER, FaultKind.STALL),
        stall_s=0.05,
    )


def run_columnsgd(data, failures):
    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    driver = ColumnSGDDriver(
        LogisticRegression(),
        SGD(0.5),
        cluster,
        config=ColumnSGDConfig(
            batch_size=BATCH,
            iterations=ITERATIONS,
            eval_every=ITERATIONS,
            seed=SEED,
            backend="local" if failures is not None else "sim",
            local_processes=WORKERS if failures is not None else 0,
            local_timeout_s=TIMEOUT_S,
            sync_policy="retry" if failures is not None else "backup",
            check_protocol=True,
        ),
        recovery=RecoveryPolicy(checkpoint_every=2) if failures is not None else None,
        failures=failures,
    )
    driver.load(data)
    result = driver.fit()
    return result, driver.cluster.engine_trace


def run_mllib(data, failures):
    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    trainer = make_trainer(
        "mllib",
        LogisticRegression(),
        SGD(0.5),
        cluster,
        batch_size=BATCH,
        iterations=ITERATIONS,
        eval_every=ITERATIONS,
        seed=SEED,
        backend="local" if failures is not None else "sim",
        local_processes=WORKERS if failures is not None else 0,
        local_timeout_s=TIMEOUT_S,
        check_protocol=True,
        failures=failures,
    )
    trainer.load(data)
    result = trainer.fit()
    return result, trainer.cluster.engine_trace


RUNNERS = {"columnsgd": run_columnsgd, "mllib": run_mllib}


def summarize(trace):
    by_mode = {}
    for event in trace.recoveries:
        by_mode[event.mode] = by_mode.get(event.mode, 0) + 1
    return {
        "recoveries": len(trace.recoveries),
        "recoveries_by_mode": by_mode,
        "recovery_seconds": sum(
            e.detect_s + e.reload_s + e.replay_s for e in trace.recoveries
        ),
        "retries": len(trace.retries),
        "retry_rounds": sorted({e.round for e in trace.retries}),
    }


def test_faults_local_matrix(emit):
    data = make_data()
    report = {
        "workers": WORKERS,
        "iterations": ITERATIONS,
        "batch_size": BATCH,
        "seed": SEED,
        "chaos_seeds": list(CHAOS_SEEDS),
        "timeout_s": TIMEOUT_S,
        "systems": {},
    }
    rows = []
    for system, run in RUNNERS.items():
        reference, _ = run(data, None)
        cells = {}
        for chaos_seed in CHAOS_SEEDS:
            result, trace = run(data, make_chaos(chaos_seed))
            cell = summarize(trace)
            cell["rounds_completed"] = len(trace.rounds())
            cell["final_loss"] = result.final_loss()
            cell["max_abs_param_diff_vs_sim"] = float(
                np.max(np.abs(result.final_params - reference.final_params))
            )
            # every run must survive its guaranteed kill and finish
            assert cell["rounds_completed"] == ITERATIONS
            assert cell["recoveries"] >= 1
            if system == "mllib":
                # stateless reload loses nothing
                assert cell["max_abs_param_diff_vs_sim"] == 0.0
            cells[str(chaos_seed)] = cell
            rows.append(
                (
                    system,
                    str(chaos_seed),
                    "{}/{}".format(cell["rounds_completed"], ITERATIONS),
                    json.dumps(cell["recoveries_by_mode"], sort_keys=True),
                    str(cell["retries"]),
                    "{:.3f}".format(cell["recovery_seconds"]),
                    "{:.4f}".format(cell["final_loss"]),
                )
            )
        report["systems"][system] = cells
    pathlib.Path("BENCH_faults_local.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    emit(
        "faults_local_matrix",
        ascii_table(
            [
                "system",
                "chaos seed",
                "rounds",
                "recoveries by mode",
                "retries",
                "recovery s",
                "final loss",
            ],
            rows,
        ),
    )
