"""Fig 9: per-iteration time with stragglers, with and without backup.

Expected shape (paper): SL1 ~2x and SL5 ~6x slower than pure;
ColumnSGD-backup stays at the pure baseline.

Wall-clock benchmark: one iteration under 1-backup computation.
"""

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import load_profile
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster, StragglerModel
from repro.utils import ascii_table, format_duration


def run(data, backup, straggler_level, seed=7):
    cluster = SimulatedCluster(CLUSTER1)
    straggler = (
        StragglerModel(CLUSTER1.n_workers, level=straggler_level, seed=seed)
        if straggler_level
        else None
    )
    config = ColumnSGDConfig(
        batch_size=500, iterations=10, eval_every=0, seed=seed, backup=backup
    )
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(1.0), cluster, config=config, straggler=straggler
    )
    driver.load(data)
    return driver.fit().avg_iteration_seconds()


def fig9_table():
    rows = []
    for name in ("avazu", "kddb", "kdd12"):
        data = load_profile(name).generate(seed=7, rows=3000)
        pure = run(data, backup=0, straggler_level=0)
        backed = run(data, backup=1, straggler_level=5.0)
        sl1 = run(data, backup=0, straggler_level=1.0)
        sl5 = run(data, backup=0, straggler_level=5.0)
        for label, seconds in (
            ("ColumnSGD-pure", pure),
            ("ColumnSGD-backup", backed),
            ("ColumnSGD-SL1", sl1),
            ("ColumnSGD-SL5", sl5),
        ):
            rows.append(
                (name, label, format_duration(seconds), "{:.2f}x".format(seconds / pure))
            )
    return ascii_table(["dataset", "setting", "per-iteration", "vs pure"], rows)


def iteration_gantts():
    """Worker-timeline view of one straggled iteration, w/ and w/o backup."""
    from repro.core import ColumnSGDConfig, ColumnSGDDriver
    from repro.experiments import render_iteration_gantt

    data = load_profile("avazu").generate(seed=7, rows=2000)
    blocks = []
    for backup in (0, 1):
        cluster = SimulatedCluster(CLUSTER1)
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(1.0), cluster,
            config=ColumnSGDConfig(batch_size=500, iterations=1, eval_every=0,
                                   seed=7, backup=backup),
            straggler=StragglerModel(CLUSTER1.n_workers, level=5.0, seed=7),
        )
        driver.load(data)
        outcome = driver.run_round(0)
        blocks.append("backup S={}:\n{}".format(
            backup,
            render_iteration_gantt(outcome.worker_seconds,
                                   outcome.phase_seconds,
                                   outcome.killed, width=64),
        ))
    return "\n\n".join(blocks)


def sync_policy_table():
    """Straggler mitigation without replicas: the timeout and retry
    policies suspect workers past ``alpha * median(finish)`` and degrade
    to the cached group statistics instead of waiting (or killing
    anyone)."""
    data = load_profile("avazu").generate(seed=7, rows=3000)
    rows = []
    for policy, alpha in (("backup", 3.0), ("timeout", 1.5), ("retry", 1.5)):
        cluster = SimulatedCluster(CLUSTER1)
        config = ColumnSGDConfig(
            batch_size=500, iterations=10, eval_every=5, seed=7,
            backup=1 if policy == "backup" else 0,
            sync_policy=policy, sync_alpha=alpha,
        )
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(1.0), cluster, config=config,
            straggler=StragglerModel(CLUSTER1.n_workers, level=5.0, seed=7),
        )
        driver.load(data)
        result = driver.fit()
        trace = cluster.engine_trace
        stale = sum(1 for r in trace.retries if r.resolved == "stale")
        rows.append((
            policy,
            format_duration(result.avg_iteration_seconds()),
            "{:.4f}".format(result.final_loss()),
            str(len(trace.retries)),
            str(stale),
        ))
    return ascii_table(
        ["sync policy (SL5)", "per-iteration", "final loss",
         "retry events", "stale rounds"],
        rows,
    )


def test_fig9(benchmark, emit):
    emit("fig9_stragglers", fig9_table())
    emit("fig9_gantt", iteration_gantts())
    emit("fig9_sync_policies", sync_policy_table())

    data = load_profile("avazu").generate(seed=7, rows=3000)
    cluster = SimulatedCluster(CLUSTER1)
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(1.0), cluster,
        config=ColumnSGDConfig(batch_size=500, iterations=1, eval_every=0, backup=1),
        straggler=StragglerModel(CLUSTER1.n_workers, level=5.0, seed=7),
    )
    driver.load(data)
    counter = iter(range(10**9))
    benchmark(lambda: driver.run_round(next(counter)))
