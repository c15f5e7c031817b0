"""Ablation: where does a ColumnSGD iteration spend its time?

Breaks the per-iteration duration into the five protocol phases
(computeStatistics / gather / reduce / broadcast / updateModel) across
batch sizes.  At the paper's default B=1000, the two Spark task
launches dominate — the scheduling-latency effect the paper blames for
losing to MXNet on avazu; by B=100k the statistics transfers take over,
matching Fig 4(b)'s knee.

Wall-clock benchmark: one iteration at B=10000.
"""

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import load_profile
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from repro.utils import ascii_table, format_duration

BATCHES = (100, 1000, 10_000, 50_000)


def breakdown_rows(data):
    rows = []
    for batch in BATCHES:
        cluster = SimulatedCluster(CLUSTER1)
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(1.0), cluster,
            config=ColumnSGDConfig(batch_size=batch, iterations=1, eval_every=0,
                                   seed=17),
        )
        driver.load(data)
        phases = driver.run_round(0).phase_seconds
        total = sum(phases.values())
        rows.append(
            (batch, format_duration(total))
            + tuple(
                "{:.1f}%".format(100 * phases[name] / total)
                for name in ("compute_statistics", "gather", "reduce",
                             "broadcast", "update_model")
            )
        )
    return rows


def test_ablation_time_breakdown(benchmark, emit):
    data = load_profile("kddb").generate(seed=17, rows=60_000, features=100_000)
    table = ascii_table(
        ["batch", "total/iter", "computeStats", "gather", "reduce",
         "broadcast", "updateModel"],
        breakdown_rows(data),
    )
    emit("ablation_time_breakdown", table)

    cluster = SimulatedCluster(CLUSTER1)
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(1.0), cluster,
        config=ColumnSGDConfig(batch_size=10_000, iterations=1, eval_every=0,
                               seed=17),
    )
    driver.load(data)
    counter = iter(range(10**9))
    benchmark(lambda: driver.run_round(next(counter)))
