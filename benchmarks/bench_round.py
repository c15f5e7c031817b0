"""Whole-round micro-benchmarks: ``driver.run_round`` on the e2e shapes.

``benchmarks/e2e`` times a round among its layers on one batch size;
this file times nothing but ``ColumnSGDDriver.run_round`` on the
simulated backend, on the ``lr_sim`` and ``fm_sim`` shapes, at B = 4 —
where the round is almost all fixed cost: Python calls per worker per
phase, checks, what every hosted worker would otherwise repeat — and at
the shape's default B.  Two ways to run it:

* under pytest-benchmark (``pytest benchmarks/bench_round.py
  --benchmark-only``): ``BENCH_round.json`` records each case's p05 in
  milliseconds (``extra_info["round_ms_p05"]``, the statistic the e2e
  bench gates on) beside pytest-benchmark's own numbers;
* as a script comparing this checkout with another one::

      python benchmarks/bench_round.py --against ../other/src --pairs 10

  Each pair times every case's rounds in two fresh subprocesses, one
  importing ``repro`` from this checkout's ``src`` and one from the
  other; the side that goes first alternates from pair to pair.  Per
  case it prints both sides' median p05, the other side's interquartile
  range of p05 and how many pairs this side won (each pair's two p05s,
  this / other, go to stderr as it finishes).  One sequential run
  per side cannot resolve a 10% change on a small shared machine; the
  pairs can, when the difference is larger than the other side's IQR.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

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
BATCHES = ("B=4", "default")
WORKERS = 4
WARMUP_ROUNDS = 20
THIS_SRC = Path(__file__).resolve().parents[1] / "src"


def make_data(name):
    rows, features, nnz, *_ = SHAPES[name]
    return make_classification(rows, features, nnz_per_row=nnz, binary_features=True, seed=5)


def make_driver(data, name, batch):
    """A loaded simulated driver of shape ``name`` at ``batch``, and the
    number of rounds the shape times."""
    default_batch, rounds, model, step = SHAPES[name][3:]
    driver = ColumnSGDDriver(
        model(), SGD(step), SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        config=ColumnSGDConfig(
            batch_size=4 if batch == "B=4" else default_batch, eval_every=0, seed=5,
        ),
    )
    driver.load(data)
    return driver, rounds


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    return request.param, make_data(request.param)


@pytest.mark.parametrize("batch", BATCHES)
def test_bench_round(benchmark, shape, batch):
    name, data = shape
    driver, rounds = make_driver(data, name, batch)
    t = itertools.count()
    benchmark.pedantic(
        lambda: driver.run_round(next(t)), rounds=rounds, iterations=1,
        warmup_rounds=WARMUP_ROUNDS,
    )
    if benchmark.stats is not None:  # None under --benchmark-disable
        seconds = np.asarray(benchmark.stats.stats.data)
        benchmark.extra_info["round_ms_p05"] = float(np.percentile(seconds, 5)) * 1e3
    assert np.isfinite(driver.evaluate_loss())


# ----------------------------------------------------------------------
# the paired comparison with another checkout
# ----------------------------------------------------------------------
def time_cases(cases):
    """``{case: p05 ms}`` of each ``(shape, batch)`` case's timed rounds,
    after the same warm-up rounds pytest-benchmark runs."""
    p05 = {}
    for name in sorted({name for name, _ in cases}):
        data = make_data(name)
        for batch in (batch for shape, batch in cases if shape == name):
            driver, rounds = make_driver(data, name, batch)
            for t in range(WARMUP_ROUNDS):
                driver.run_round(t)
            seconds = np.empty(rounds)
            for i in range(rounds):
                start = time.perf_counter()
                driver.run_round(WARMUP_ROUNDS + i)
                seconds[i] = time.perf_counter() - start
            p05["{} {}".format(name, batch)] = float(np.percentile(seconds, 5)) * 1e3
    return p05


def run_side(src, cases):
    """:func:`time_cases` in a fresh interpreter importing ``repro`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__, "--time", json.dumps(cases)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def compare(other_src, pairs, cases):
    """Alternating pairs of fresh runs, this side first in even pairs;
    returns ``{case: (this p05s, other p05s)}``, one entry a pair."""
    runs = {"{} {}".format(*case): ([], []) for case in cases}
    for pair in range(pairs):
        sides = [(0, THIS_SRC), (1, other_src)]
        for side, src in sides if pair % 2 == 0 else sides[::-1]:
            for case, p05 in run_side(src, cases).items():
                runs[case][side].append(p05)
        print("pair {}/{}: {}".format(pair + 1, pairs, "; ".join(
            "{} {:.3f} / {:.3f} ms".format(case, this[-1], other[-1])
            for case, (this, other) in runs.items())), file=sys.stderr)
    return runs


def report(runs):
    lines = ["{:<16} {:>12} {:>13} {:>13} {:>10}".format(
        "case", "this p05 ms", "other p05 ms", "other IQR ms", "pairs won")]
    for case, (this, other) in runs.items():
        q1, q3 = np.percentile(other, [25, 75])
        won = sum(a < b for a, b in zip(this, other))
        lines.append("{:<16} {:>12.3f} {:>13.3f} {:>13.3f} {:>10}".format(
            case, np.median(this), np.median(other), q3 - q1,
            "{}/{}".format(won, len(this))))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path,
                        help="the other checkout's src directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--case", action="append", metavar="SHAPE:BATCH",
                        help="e.g. lr_sim:B=4 (repeatable; default every case)")
    parser.add_argument("--time", help=argparse.SUPPRESS)  # one side's run
    args = parser.parse_args(argv)
    if args.time is not None:
        print(json.dumps(time_cases([tuple(case) for case in json.loads(args.time)])))
        return 0
    if args.against is None or not (args.against / "repro" / "__init__.py").is_file():
        parser.error("--against must name a src directory holding repro/")
    cases = [tuple(case.split(":")) for case in args.case or []] or [
        (name, batch) for name in sorted(SHAPES) for batch in BATCHES
    ]
    for case in cases:
        if len(case) != 2 or case[0] not in SHAPES or case[1] not in BATCHES:
            parser.error("unknown case {}".format(":".join(case)))
    print(report(compare(args.against.resolve(), args.pairs, cases)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
