"""Table IV: per-iteration time of training LR, 4 systems x 3 datasets.

Two views:
* *analytic @ paper scale* — the cost model evaluated at Table II's true
  dimensions (how the 930x/63x/6x headline numbers arise);
* *simulated @ laptop scale* — live runs on the scaled stand-ins
  (smaller models, hence smaller but same-ordered gaps).

Also prints Table III (the learning rates used).  Wall-clock benchmark:
one MLlib iteration (the heavyweight baseline path).
"""

from repro.baselines import MLlibTrainer, RowSGDConfig
from repro.core import predict_iteration_time
from repro.datasets import load_profile
from repro.experiments import ExperimentSpec, run_system
from repro.models import LogisticRegression
from repro.net import NetworkModel
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from repro.utils import ascii_table

SYSTEMS = ("mllib", "petuum", "mxnet", "columnsgd")
PAPER_TABLE4 = {  # seconds, from the paper
    "avazu": {"mllib": 1.43, "petuum": 0.24, "mxnet": 0.02, "columnsgd": 0.06},
    "kddb": {"mllib": 16.33, "petuum": 1.96, "mxnet": 0.3, "columnsgd": 0.06},
    "kdd12": {"mllib": 55.81, "petuum": 3.81, "mxnet": 0.37, "columnsgd": 0.06},
}


def table3():
    rows = []
    for name in ("avazu", "kddb", "kdd12", "wx"):
        p = load_profile(name)
        rows.append((name, p.learning_rate("lr"), p.learning_rate("fm"),
                     p.learning_rate("svm")))
    return ascii_table(["dataset", "LR", "FM", "SVM"], rows)


def analytic_table():
    net = NetworkModel(bandwidth=CLUSTER1.bandwidth_bytes_per_s,
                       latency=CLUSTER1.latency_s)
    rows = []
    for name in ("avazu", "kddb", "kdd12"):
        p = load_profile(name)
        times = {
            s: predict_iteration_time(
                s, m=p.paper_features, batch_size=1000, n_workers=8,
                avg_nnz_per_row=p.avg_nnz_per_row, network=net,
            )
            for s in SYSTEMS
        }
        col = times["columnsgd"]
        for s in SYSTEMS:
            rows.append(
                (
                    name,
                    s,
                    "{:.3f}".format(times[s]),
                    "{:.1f}x".format(times[s] / col) if s != "columnsgd" else "-",
                    "{:.2f}".format(PAPER_TABLE4[name][s]),
                )
            )
    return ascii_table(
        ["dataset", "system", "analytic s/iter", "speedup vs ColumnSGD", "paper s/iter"],
        rows,
    )


def simulated_table():
    rows = []
    for name in ("avazu", "kddb", "kdd12"):
        data = load_profile(name).generate(seed=5, rows=3000)
        spec = ExperimentSpec(
            dataset=name, model="lr", batch_size=500, iterations=6,
            eval_every=0, cluster=CLUSTER1, seed=5, explicit_data=data,
        )
        times = {s: run_system(spec, s, data).avg_iteration_seconds() for s in SYSTEMS}
        col = times["columnsgd"]
        for s in SYSTEMS:
            rows.append(
                (name, s, "{:.4f}".format(times[s]),
                 "{:.1f}x".format(times[s] / col) if s != "columnsgd" else "-")
            )
    return ascii_table(
        ["dataset", "system", "simulated s/iter (scaled)", "speedup"], rows
    )


def test_table4(benchmark, emit):
    emit("table3_learning_rates", table3())
    emit("table4_analytic_paper_scale", analytic_table())
    emit("table4_simulated_scaled", simulated_table())

    data = load_profile("kddb").generate(seed=5, rows=3000)
    cluster = SimulatedCluster(CLUSTER1)
    trainer = MLlibTrainer(
        LogisticRegression(), SGD(1.0), cluster,
        config=RowSGDConfig(batch_size=500, iterations=1, eval_every=0),
    )
    trainer.load(data)
    counter = iter(range(10**9))
    benchmark(lambda: trainer.run_round(next(counter)))
