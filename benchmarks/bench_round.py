"""Whole-round micro-benchmarks: ``driver.run_round`` on the e2e shapes.

``benchmarks/e2e`` times a round among its layers on one batch size;
this file times nothing but ``ColumnSGDDriver.run_round`` on the
simulated backend, on the ``lr_sim`` and ``fm_sim`` shapes, at B = 4 —
where the round is almost all fixed cost: Python calls per worker per
phase, checks, what every hosted worker would otherwise repeat — and at
the shape's default B.  ``BENCH_round.json`` records each case's p05 in
milliseconds (``extra_info["round_ms_p05"]``, the statistic the e2e
bench gates on) beside pytest-benchmark's own numbers.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification
from repro.models import FactorizationMachine, LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster

#: (rows, features, nnz a row, default B, rounds timed, model, step) of
#: the e2e workloads; both are one-hot, K = 4
SHAPES = {
    "lr_sim": (50_000, 100_000, 30, 1000, 1500, LogisticRegression, 0.5),
    "fm_sim": (20_000, 100_000, 100, 500, 400, lambda: FactorizationMachine(16), 0.05),
}
WORKERS = 4


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    rows, features, nnz, *rest = SHAPES[request.param]
    data = make_classification(rows, features, nnz_per_row=nnz, binary_features=True, seed=5)
    return data, rest


@pytest.mark.parametrize("batch", ["B=4", "default"])
def test_bench_round(benchmark, shape, batch):
    data, (default_batch, rounds, model, step) = shape
    driver = ColumnSGDDriver(
        model(), SGD(step), SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        config=ColumnSGDConfig(
            batch_size=4 if batch == "B=4" else default_batch, eval_every=0, seed=5,
        ),
    )
    driver.load(data)
    t = itertools.count()
    benchmark.pedantic(
        lambda: driver.run_round(next(t)), rounds=rounds, iterations=1, warmup_rounds=20
    )
    if benchmark.stats is not None:  # None under --benchmark-disable
        seconds = np.asarray(benchmark.stats.stats.data)
        benchmark.extra_info["round_ms_p05"] = float(np.percentile(seconds, 5)) * 1e3
    assert np.isfinite(driver.evaluate_loss())
