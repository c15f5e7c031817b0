"""Chaos soak: seeded random crashes + lost replies, protocol-checked.

The simulator's fault acceptance suite: across >= 3 chaos seeds, LR
and SVM on ColumnSGD plus one RowSGD baseline train under a
FaultSchedule's Poisson background (worker/task crashes) with scripted
DROP and GARBLE events on top, ``check_protocol=True`` — every round's
Table-I byte audit must hold under loss, and training must still
converge within tolerance of the fault-free run.
"""

import numpy as np
import pytest

from repro.baselines import MLlibTrainer, RowSGDConfig
from repro.core import ColumnSGDConfig, ColumnSGDDriver, RecoveryPolicy
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.models import LinearSVM, LogisticRegression
from repro.net import MessageKind
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster

CHAOS_SEEDS = (1, 2, 3)
MTBF_ROUNDS = 6.0  # several crashes within a 30-round soak run
#: a lost and a garbled reply every few rounds, on rotating workers
LOSSES = [
    FaultEvent(t, (FaultKind.DROP, FaultKind.GARBLE)[t % 2], t % 4)
    for t in range(2, 30, 5)
]
# A chaos crash rolls the victim's partition back to the last
# checkpoint (at most 5 iterations stale), so the recovered trajectory
# tracks the clean one within a small margin.
LOSS_TOLERANCE = 0.15


def chaos(seed):
    return FaultSchedule(LOSSES, mtbf_rounds=MTBF_ROUNDS, seed=seed)


def run_columnsgd(data, model, failures=None):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    config = ColumnSGDConfig(
        batch_size=64, iterations=30, eval_every=10, seed=9, block_size=64,
        check_protocol=True,
    )
    driver = ColumnSGDDriver(
        model, SGD(1.0), cluster, config=config, failures=failures,
        recovery=RecoveryPolicy(checkpoint_every=5),
    )
    driver.load(data)
    return driver.fit(), cluster


def run_mllib(data, failures=None):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    config = RowSGDConfig(
        batch_size=64, iterations=30, eval_every=10, seed=9, check_protocol=True
    )
    trainer = MLlibTrainer(
        LogisticRegression(), SGD(1.0), cluster, config=config, failures=failures
    )
    trainer.load(data)
    return trainer.fit(), cluster


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize(
    "model_factory", [LogisticRegression, LinearSVM], ids=["lr", "svm"]
)
def test_columnsgd_soak(tiny_binary, seed, model_factory):
    clean, _ = run_columnsgd(tiny_binary, model_factory())
    faulted, cluster = run_columnsgd(tiny_binary, model_factory(), failures=chaos(seed))
    # the protocol checker already raised on any Table-I violation;
    # confirm the schedule actually exercised both fault classes
    assert cluster.network.bytes_of_kind(MessageKind.RETRY) > 0
    assert cluster.engine_trace.recoveries  # at least one chaos crash
    assert faulted.n_iterations >= 30
    assert np.isfinite(faulted.final_loss())
    assert faulted.final_loss() <= clean.final_loss() + LOSS_TOLERANCE


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_rowsgd_baseline_soak(tiny_binary, seed):
    clean, _ = run_mllib(tiny_binary)
    faulted, cluster = run_mllib(tiny_binary, failures=chaos(seed))
    assert cluster.network.bytes_of_kind(MessageKind.RETRY) > 0
    assert faulted.n_iterations >= 30
    # RowSGD's central model survives worker crashes untouched: the
    # trajectory is numerically identical, only sim-time differs
    assert faulted.final_loss() == pytest.approx(clean.final_loss(), abs=1e-12)
    assert faulted.total_sim_time > clean.total_sim_time


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_runs_are_reproducible(tiny_binary, seed):
    """Same seed, same crashes, same byte counters, same trajectory."""
    a, cluster_a = run_columnsgd(tiny_binary, LogisticRegression(), failures=chaos(seed))
    b, cluster_b = run_columnsgd(tiny_binary, LogisticRegression(), failures=chaos(seed))
    assert np.array_equal(a.final_params, b.final_params)
    assert a.total_sim_time == b.total_sim_time
    assert cluster_a.network.snapshot() == cluster_b.network.snapshot()
    assert cluster_a.network.losses == cluster_b.network.losses == len(LOSSES)
