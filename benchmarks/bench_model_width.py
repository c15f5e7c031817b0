"""Fig 10 in wall-clock: measured round time vs model size m.

The paper's Fig 10 / Table I say a ColumnSGD iteration costs O(batch
nnz) and is flat in the model size, while a RowSGD system moves O(m)
per iteration.  The simulator has always charged that; this file
*measures* it.  The e2e ``lr_sim`` / ``fm_sim`` shapes (K = 4, B = 1000 /
500, 30 / 100 nnz a row, 16 factors) are run with only ``features``
varied over 1e5, 1e6, 1e7:

* ``columnsgd-lr`` / ``columnsgd-fm`` on the simulator backend — the
  round runs in this process, so the time is kernels + model +
  optimizer + batch assembly;
* ``columnsgd-lr`` vs ``mllib-lr`` on ``backend="local"`` — real pipes
  and codec: ColumnSGD ships ``B`` statistics, MLlib ships the dense
  model and a dense gradient per worker.  One process per worker,
  because that is Fig 10's shape (one worker per machine) and it keeps
  ``benchmarks/results/model_width.txt`` comparable between runs;
  co-hosted workers run too (``tests/test_local_transport.py``).

Every point is a pytest-benchmark test measured in a fresh interpreter
(CI runs the 1e5 / 1e6 points and uploads ``BENCH_model_width.json``,
the per-round time is each entry's ``extra_info.round_ms``); whatever
points ran are printed beside the simulated Fig 10 column and written to
``benchmarks/results/model_width.txt``.  FM at 1e7 holds 1.4 GB of
parameters and about three times that while loading; deselect it with
``-k "not fm-10000000"`` on a small machine.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

from repro.baselines.registry import make_trainer
from repro.core import ColumnSGDConfig, ColumnSGDDriver, predict_iteration_time
from repro.datasets import make_classification
from repro.models import FactorizationMachine, LogisticRegression
from repro.net import NetworkModel
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from repro.utils import ascii_table

RESULTS = pathlib.Path(__file__).parent / "results" / "model_width.txt"

WORKERS, ROWS, SEED = 4, 20_000, 5
FEATURES = (100_000, 1_000_000, 10_000_000)
#: model -> (factory, batch size, nnz per row, learning rate, statistics width)
SHAPES = {
    "lr": (LogisticRegression, 1000, 30, 0.5, 1),
    "fm": (lambda: FactorizationMachine(n_factors=16), 500, 100, 0.05, 17),
}
WARMUP_ROUNDS = 5
SIM_ROUNDS = 300
#: rounds of one local fit(); MLlib at 1e7 pipes 80 MB per worker per round
LOCAL_ROUNDS = {100_000: 40, 1_000_000: 20, 10_000_000: 8}


def dataset(model: str, features: int):
    return make_classification(
        ROWS, features, nnz_per_row=SHAPES[model][2], seed=SEED,
        name="width-{}-{}".format(model, features),
    )


def simulated_ms(system: str, model: str, features: int) -> float:
    """The Fig 10 column: the cost model's per-iteration time on Cluster 1."""
    _, batch, nnz_per_row, _, width = SHAPES[model]
    seconds = predict_iteration_time(
        system, m=features, batch_size=batch, n_workers=WORKERS,
        avg_nnz_per_row=nnz_per_row, statistics_width=width, params_per_feature=width,
        network=NetworkModel(
            bandwidth=CLUSTER1.bandwidth_bytes_per_s, latency=CLUSTER1.latency_s),
    )
    return seconds * 1e3


@pytest.fixture(scope="module")
def report():
    """Collects ``(system, model, backend, features) -> measured ms`` and
    writes the table when the module is done."""
    measured = {}
    yield measured
    if not measured:
        return
    rows = []
    for (system, model, backend, features), ms in sorted(measured.items()):
        base = measured.get((system, model, backend, FEATURES[0]))
        rows.append((
            "{}-{}".format(system, model), backend, "{:,}".format(features),
            "{:.2f}".format(ms),
            "{:.2f}x".format(ms / base) if base else "-",
            "{:.1f}".format(simulated_ms(system, model, features)),
        ))
    table = ascii_table(
        ["system", "backend", "features m", "measured ms/round (p05)",
         "vs m=1e5", "simulated ms/round (Fig 10)"],
        rows,
    )
    block = "\n=== model_width ===\n{}\n".format(table)
    print(block, file=sys.__stdout__)
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(block)


def quiet_ms(durations: np.ndarray) -> float:
    """Median of the fastest tenth of the rounds, in ms.

    The e2e bench's ``round_ms_p05``: noise on a shared box only ever
    slows a round down, so the fast end is what repeats between runs.
    """
    return float(np.median(np.sort(durations)[:max(1, durations.size // 10)])) * 1e3


def local_round_ms(system: str, features: int) -> float:
    """Quiet wall-clock round of one ``fit()`` on ``WORKERS`` processes."""
    factory, batch, _, rate, _ = SHAPES["lr"]
    iterations = WARMUP_ROUNDS + LOCAL_ROUNDS[features]
    knobs = dict(
        batch_size=batch, iterations=iterations, eval_every=0, seed=SEED,
        backend="local", local_processes=WORKERS,
    )
    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    if system == "columnsgd":
        trainer = ColumnSGDDriver(factory(), SGD(rate), cluster, config=ColumnSGDConfig(**knobs))
    else:
        trainer = make_trainer(system, factory(), SGD(rate), cluster, **knobs)
    trainer.load(dataset("lr", features))
    begin = perf_counter()
    result = trainer.fit()
    wall = perf_counter() - begin
    durations = np.asarray([record.duration for record in result.records])
    assert durations.size == iterations and durations.sum() <= wall
    return quiet_ms(durations[WARMUP_ROUNDS:])


def sim_round_ms(model: str, features: int) -> float:
    """Quiet wall-clock ``run_round`` of ColumnSGD on the simulator backend."""
    factory, batch, _, rate, _ = SHAPES[model]
    driver = ColumnSGDDriver(
        factory(), SGD(rate), SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        config=ColumnSGDConfig(batch_size=batch, eval_every=0, seed=SEED),
    )
    driver.load(dataset(model, features))
    marks = []
    for t in range(WARMUP_ROUNDS + SIM_ROUNDS):
        marks.append(perf_counter())
        driver.run_round(t)
    marks.append(perf_counter())
    return quiet_ms(np.diff(marks)[WARMUP_ROUNDS:])


def in_fresh_interpreter(function: str, *args) -> float:
    """``function(*args)`` of this module in a new Python process.

    A point leaves the allocator in a state that depends on its model
    size (a 1e7 point grows the heap by gigabytes), and that state
    measurably slows whatever runs next in the same process — so no two
    points share one.
    """
    code = "import sys; sys.path[:0] = {!r}; import bench_model_width as b; print(b.{}(*{!r}))".format(
        [str(pathlib.Path(__file__).parent)] + sys.path, function, args)
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(done.stdout.split()[-1])


def measure(benchmark, report, key, function: str, *args) -> None:
    ms = benchmark.pedantic(in_fresh_interpreter, args=(function,) + args, rounds=1, iterations=1)
    benchmark.extra_info["round_ms"] = ms
    report[key] = ms


@pytest.mark.parametrize("features", FEATURES)
@pytest.mark.parametrize("model", sorted(SHAPES))
def test_bench_columnsgd_sim(benchmark, report, model, features):
    measure(benchmark, report, ("columnsgd", model, "sim", features),
            "sim_round_ms", model, features)


@pytest.mark.parametrize("features", FEATURES)
@pytest.mark.parametrize("system", ["columnsgd", "mllib"])
def test_bench_lr_local(benchmark, report, system, features):
    measure(benchmark, report, (system, "lr", "local", features),
            "local_round_ms", system, features)
