"""Fig 13: fault tolerance — task failure vs worker failure (LR, kdd12).

Expected shape (paper): a task failure is invisible (data and model stay
cached); a worker failure pauses for a data reload (23 s at paper scale)
and the zeroed model partition bumps the loss before SGD re-converges.

Beyond the paper, this bench also exercises the chaos-grade pipeline:

* master restart from checkpoint (the paper aborts on MASTER failure;
  with ``RecoveryPolicy(master_restart=True)`` the job survives and the
  recovery cost is broken down into detect / reload / replay);
* a seeded chaos matrix — a FaultSchedule's Poisson worker/task crashes
  plus scripted lost (DROP) and garbled (GARBLE) replies, protocol-checked
  every round.

Wall-clock benchmark: one worker-failure recovery.
"""

from repro.core import ColumnSGDConfig, ColumnSGDDriver, RecoveryPolicy
from repro.datasets import load_profile
from repro.experiments import fault_timeline, loss_series, render_engine_trace
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.models import LogisticRegression
from repro.net import MessageKind
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from repro.utils import ascii_table, format_duration


def fault(iteration, kind, worker=None):
    return FaultSchedule([FaultEvent(iteration, kind, worker)])


def run(data, failures=None, recovery=None, check_protocol=False):
    cluster = SimulatedCluster(CLUSTER1)
    config = ColumnSGDConfig(
        batch_size=500, iterations=80, eval_every=4, seed=10,
        check_protocol=check_protocol,
    )
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(1.0), cluster, config=config,
        failures=failures, recovery=recovery,
    )
    driver.load(data)
    return driver.fit(), driver


def fig13_report(data):
    clean, _ = run(data)
    task, _ = run(data, fault(40, FaultKind.TASK, 3))
    worker, _ = run(data, fault(40, FaultKind.WORKER, 3))
    table = ascii_table(
        ["scenario", "total sim time", "final loss", "loss right after failure"],
        [
            ("no failure", format_duration(clean.total_sim_time),
             "{:.4f}".format(clean.final_loss()), "-"),
            ("task failure @40", format_duration(task.total_sim_time),
             "{:.4f}".format(task.final_loss()), _loss_after(task, 40)),
            ("worker failure @40", format_duration(worker.total_sim_time),
             "{:.4f}".format(worker.final_loss()), _loss_after(worker, 40)),
        ],
    )
    curves = "\n".join(
        "{:>18}: {}".format(label, loss_series(result, max_points=10))
        for label, result in (
            ("no failure", clean),
            ("task failure", task),
            ("worker failure", worker),
        )
    )
    return table + "\n\nloss-vs-time:\n" + curves


def _loss_after(result, iteration):
    for it, _, loss in result.losses():
        if it >= iteration:
            return "{:.4f}".format(loss)
    return "-"


def ft_asymmetry_table(data):
    """Beyond the paper: the same worker failure hits RowSGD and
    ColumnSGD differently — RowSGD's centralised model survives worker
    crashes untouched (reload only), while ColumnSGD loses a model
    partition but its master never holds the model at all."""
    from repro.baselines import MLlibTrainer, RowSGDConfig

    cluster = SimulatedCluster(CLUSTER1)
    trainer = MLlibTrainer(
        LogisticRegression(), SGD(1.0), cluster,
        config=RowSGDConfig(batch_size=500, iterations=80, eval_every=4, seed=10),
        failures=fault(40, FaultKind.WORKER, 3),
    )
    trainer.load(data)
    mllib = trainer.fit()
    column, _ = run(data, fault(40, FaultKind.WORKER, 3))
    return ascii_table(
        ["system", "worker failure @40 costs", "loss right after", "model state lost"],
        [
            ("MLlib", "shard reload only", _loss_after(mllib, 40),
             "none (model at master)"),
            ("ColumnSGD", "shard reload + partition re-init",
             _loss_after(column, 40), "1/K of the model (re-learned)"),
        ],
    )


def master_restart_report(data):
    """MASTER failure no longer aborts: restart from the latest
    checkpoint and replay the missed iterations deterministically."""
    recovery = RecoveryPolicy(
        checkpoint_every=10, heartbeat_interval_s=0.05, master_restart=True
    )
    result, driver = run(
        data,
        failures=fault(44, FaultKind.MASTER),
        recovery=recovery,
        check_protocol=True,
    )
    trace = driver.cluster.engine_trace
    clean, _ = run(data)
    table = ascii_table(
        ["scenario", "total sim time", "final loss"],
        [
            ("no failure", format_duration(clean.total_sim_time),
             "{:.4f}".format(clean.final_loss())),
            ("master failure @44, restart", format_duration(result.total_sim_time),
             "{:.4f}".format(result.final_loss())),
        ],
    )
    return "\n\n".join([
        table,
        "fault episodes (detect / reload / replay):\n" + fault_timeline(trace),
        "round 44 engine trace:\n" + render_engine_trace(trace, round_index=44),
    ])


# one worker/task crash roughly every CHAOS_MTBF_ROUNDS rounds
CHAOS_MTBF_ROUNDS = 25.0
# a lost or garbled reply every REPLY_LOSS_EVERY rounds, on rotating workers
REPLY_LOSS_EVERY = 4


def chaos_matrix(data, seeds=(1, 2, 3)):
    """Seeded chaos runs: Poisson worker/task crashes plus scripted
    DROP / GARBLE replies, protocol-checked every round (raises on any
    Table-I violation)."""
    clean, _ = run(data)
    losses = [
        FaultEvent(t, (FaultKind.DROP, FaultKind.GARBLE)[k % 2], k % CLUSTER1.n_workers)
        for k, t in enumerate(range(REPLY_LOSS_EVERY, 80, REPLY_LOSS_EVERY))
    ]
    rows = []
    for seed in seeds:
        chaos = FaultSchedule(losses, mtbf_rounds=CHAOS_MTBF_ROUNDS, seed=seed)
        result, driver = run(data, failures=chaos, check_protocol=True)
        net = driver.cluster.network
        trace = driver.cluster.engine_trace
        rows.append((
            str(seed),
            "{:.4f}".format(result.final_loss()),
            "{:+.4f}".format(result.final_loss() - clean.final_loss()),
            str(len(trace.recoveries)),
            str(net.losses),
            str(net.messages_by_kind[MessageKind.RETRY]),
            format_duration(result.total_sim_time),
        ))
    return ascii_table(
        ["chaos seed", "final loss", "vs clean", "recoveries",
         "lost/garbled replies", "RETRY messages", "total sim time"],
        rows,
    )


def test_fig13(benchmark, emit):
    data = load_profile("kdd12").generate(seed=10, rows=4000)
    emit("fig13_fault_tolerance", fig13_report(data))
    emit("fig13_ft_asymmetry", ft_asymmetry_table(data))
    emit("fig13_master_restart", master_restart_report(data))
    emit("fig13_chaos_matrix", chaos_matrix(data))

    cluster = SimulatedCluster(CLUSTER1)
    config = ColumnSGDConfig(batch_size=500, iterations=2, eval_every=0, seed=10)
    driver = ColumnSGDDriver(LogisticRegression(), SGD(1.0), cluster, config=config)
    driver.load(data)
    benchmark(lambda: driver.recovery_manager.recover_worker(2))
