"""One FaultSchedule, two backends, the same job.

The contract the single fault vocabulary buys: hand *one* schedule
object (plus one ``RecoveryPolicy``) to a simulated and to a real
4-process run, and get the same ``RecoveryEvent`` sequence and a
final-model difference of exactly 0.0.  A kill **on** a checkpoint
round is the case the per-backend injectors disagreed on (0.69): the
sim snapshotted then struck, the local backend struck then snapshotted.
Both now strike first.
"""

import numpy as np
import pytest

from repro.baselines import MLlibTrainer, RowSGDConfig
from repro.core import ColumnSGDConfig, ColumnSGDDriver, RecoveryPolicy
from repro.datasets import make_classification
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.models import LogisticRegression
from repro.net import MessageKind
from repro.optim import AdaGrad

from repro.sim import CLUSTER1, SimulatedCluster

WORKERS = 4
ROUNDS = 12
BATCH = 32


@pytest.fixture(scope="module")
def data():
    return make_classification(200, 80, nnz_per_row=10, seed=5)


def kills(*pairs):
    return FaultSchedule([FaultEvent(t, FaultKind.WORKER, w) for t, w in pairs])


def recoveries(cluster):
    return [
        (e.round, e.kind, e.mode, e.worker) for e in cluster.engine_trace.recoveries
    ]


def keep_network(trainer, networks):
    """Append the network the run's traffic is accounted on to
    ``networks``: the cluster's on ``sim``, the runtime's on ``local``
    (whose runtime is gone once ``fit`` returns)."""
    if trainer.backend == "sim":
        networks.append(trainer.cluster.network)
        return
    make = trainer._make_local_runtime

    def make_and_keep():
        runtime, programs = make()
        networks.append(runtime.network)
        return runtime, programs

    trainer._make_local_runtime = make_and_keep


def run_columnsgd(data, backend, failures, checkpoint_every, networks=None,
                  workers=WORKERS):
    cluster = SimulatedCluster(CLUSTER1.with_workers(workers))
    local = backend == "local"
    driver = ColumnSGDDriver(
        LogisticRegression(), AdaGrad(0.5), cluster,
        config=ColumnSGDConfig(
            batch_size=BATCH, iterations=ROUNDS, eval_every=0, seed=3,
            backend=backend, local_processes=workers if local else 0,
            sync_policy="retry" if local else "backup",
            local_timeout_s=1.0, check_protocol=True,
        ),
        failures=failures,
        recovery=RecoveryPolicy(checkpoint_every=checkpoint_every),
    )
    driver.load(data)
    if networks is not None:
        keep_network(driver, networks)
    return driver.fit(), recoveries(cluster)


def run_mllib(data, backend, failures, networks=None):
    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    trainer = MLlibTrainer(
        LogisticRegression(), AdaGrad(0.5), cluster,
        config=RowSGDConfig(
            batch_size=BATCH, iterations=ROUNDS, eval_every=0, seed=3,
            backend=backend,
            local_processes=WORKERS if backend == "local" else 0,
            local_timeout_s=1.0, check_protocol=True,
        ),
        failures=failures,
    )
    trainer.load(data)
    if networks is not None:
        keep_network(trainer, networks)
    return trainer.fit(), recoveries(cluster)


@pytest.mark.parametrize(
    "failures, checkpoint_every, expected, checkpoint_traffic",
    [
        (kills((7, 1)), 5, [(7, "worker", "checkpoint", 1)], (13, 7048)),
        (kills((10, 1)), 5, [(10, "worker", "checkpoint", 1)], (12, 6432)),
        (
            kills((3, 2), (8, 0)),
            5,
            [(3, "worker", "checkpoint", 2), (8, "worker", "checkpoint", 0)],
            (14, 7424),
        ),
        (kills((4, 1)), 0, [(4, "worker", "zero-init", 1)], (0, 0)),
    ],
    ids=["off-checkpoint-round", "on-checkpoint-round", "two-kills", "no-checkpoint"],
)
def test_columnsgd_same_schedule_same_job(
    data, failures, checkpoint_every, expected, checkpoint_traffic
):
    """Same recoveries, same model, and the same CHECKPOINT traffic:
    every record spilled or shipped to a restored worker, one framed
    object each, and nothing for a zero-init."""
    networks = []
    sim, sim_recoveries = run_columnsgd(
        data, "sim", failures, checkpoint_every, networks
    )
    local, local_recoveries = run_columnsgd(
        data, "local", failures, checkpoint_every, networks
    )
    assert sim_recoveries == local_recoveries == expected
    assert np.max(np.abs(sim.final_params - local.final_params)) == 0.0
    assert [
        (net.messages_by_kind[MessageKind.CHECKPOINT],
         net.bytes_of_kind(MessageKind.CHECKPOINT))
        for net in networks
    ] == [checkpoint_traffic] * 2
    # the kill really cost something: a clean run ends elsewhere
    clean, _ = run_columnsgd(data, "sim", None, checkpoint_every)
    assert np.max(np.abs(sim.final_params - clean.final_params)) > 0.0


def test_checkpoint_bytes_agree_across_backends(data):
    """Both backends account a checkpoint as the snapshot records they
    hold, one framed object each (K = 2, backup 0: one partition, so
    one record, per worker)."""
    networks = []
    sim, _ = run_columnsgd(data, "sim", None, 4, networks, workers=2)
    local, _ = run_columnsgd(data, "local", None, 4, networks, workers=2)
    assert np.max(np.abs(sim.final_params - local.final_params)) == 0.0
    sim_net, local_net = networks
    assert sim_net.messages_by_kind[MessageKind.CHECKPOINT] == 2 * 3  # t = 0, 4, 8
    assert (
        sim_net.bytes_of_kind(MessageKind.CHECKPOINT)
        == local_net.bytes_of_kind(MessageKind.CHECKPOINT)
    )


def test_mllib_kill_is_a_reload_and_numerically_invisible(data):
    failures = kills((5, 3))
    sim, sim_recoveries = run_mllib(data, "sim", failures)
    local, local_recoveries = run_mllib(data, "local", failures)
    assert sim_recoveries == local_recoveries == [(5, "worker", "reload", 3)]
    assert np.max(np.abs(sim.final_params - local.final_params)) == 0.0
    clean, _ = run_mllib(data, "sim", None)
    assert np.max(np.abs(sim.final_params - clean.final_params)) == 0.0


@pytest.mark.parametrize("system", ["columnsgd", "mllib"])
def test_lost_and_garbled_replies_are_retransmits_on_both_backends(data, system):
    """DROP and GARBLE cost RETRY traffic and nothing else: the sim run
    passes the Table-I audit with them, and both backends end on the
    clean sim run's model, to the bit."""
    failures = FaultSchedule(
        [FaultEvent(3, FaultKind.DROP, 1), FaultEvent(6, FaultKind.GARBLE, 2)]
    )

    def run(backend, failures, networks=None):
        if system == "mllib":
            return run_mllib(data, backend, failures, networks)
        return run_columnsgd(data, backend, failures, 0, networks)

    def base_traffic(network):
        return {
            kind: (network.messages_by_kind[kind], total)
            for kind, total in network.bytes_by_kind.items()
            if kind is not MessageKind.RETRY
        }

    networks = []
    sim, _ = run("sim", failures, networks)
    local, _ = run("local", failures, networks)
    clean, _ = run("sim", None, networks)
    assert np.max(np.abs(sim.final_params - local.final_params)) == 0.0
    assert np.max(np.abs(sim.final_params - clean.final_params)) == 0.0
    sim_net, local_net, clean_net = networks
    assert sim_net.bytes_of_kind(MessageKind.RETRY) > 0
    assert local_net.bytes_of_kind(MessageKind.RETRY) > 0
    assert clean_net.bytes_of_kind(MessageKind.RETRY) == 0
    assert base_traffic(sim_net) == base_traffic(clean_net)
