"""Batch-assembly micro-benchmarks on the ``lr_sim`` shape.

``benchmarks/e2e`` puts assembly on the clock as a share of a whole
round; this file times the three pieces on their own — the
``CSRMatrix.take_rows`` gather, the in-memory store's one-gather
``assemble_batch`` and the shard store's block-grouped walk over its
mapped blocks — at three batch sizes, so a regression of
the gather back to per-row or per-block work shows up as a jump in
``BENCH_assembly.json`` at the size where it bites.  Each runs on
one-hot values (``unit``: pattern matrices with no values array, so no
value is gathered or made; the fixture asserts it) and on Gaussian
ones (``gaussian``: every value is gathered).
"""

from __future__ import annotations

import pytest

from repro.datasets import make_classification
from repro.partition import TwoPhaseIndex
from repro.partition.column import make_assignment
from repro.partition.dispatch import dispatch_block_based
from repro.sim.cluster import SimulatedCluster
from repro.sim.presets import CLUSTER1
from repro.store import ColumnShardStore

#: the e2e ``lr_sim`` workload: 50k rows x 100k features, 30 nnz a row, K = 4
ROWS, FEATURES, NNZ_PER_ROW, WORKERS, BLOCK = 50_000, 100_000, 30, 4, 2048

BATCH_SIZES = (100, 1_000, 10_000)


@pytest.fixture(scope="module", params=["unit", "gaussian"])
def shape(request, tmp_path_factory):
    data = make_classification(
        ROWS, FEATURES, nnz_per_row=NNZ_PER_ROW,
        binary_features=request.param == "unit", seed=1,
    )
    assignment = make_assignment("round_robin", FEATURES, WORKERS)
    memory, block_sizes, _ = dispatch_block_based(
        data, assignment, SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        block_size=BLOCK,
    )
    on_disk = ColumnShardStore.from_dataset(
        data, tmp_path_factory.mktemp("bench_assembly") / "store",
        n_workers=WORKERS, block_size=BLOCK,
    )
    shard = on_disk.worker_store(0)
    index = TwoPhaseIndex(block_sizes, base_seed=1)
    # what the unit case times is the pattern path, in memory and on disk
    pattern = request.param == "unit"
    assert (memory[0].shard.data is None) == pattern
    assert (shard.assemble_batch(index.sample(0, 100))[0].data is None) == pattern
    shard.clear()
    yield memory[0], shard, index
    shard.clear()


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_bench_take_rows(benchmark, shape, batch):
    memory, _, index = shape
    rows = index.to_global_rows(index.sample(0, batch))
    taken = benchmark(memory.shard.take_rows, rows)
    assert taken.n_rows == batch


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_bench_assemble_in_memory(benchmark, shape, batch):
    memory, _, index = shape
    features, labels = benchmark(memory.assemble_batch, index.sample(0, batch))
    assert features.n_rows == labels.size == batch


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_bench_assemble_shard_store(benchmark, shape, batch):
    memory, shard, index = shape
    draws = index.sample(0, batch)
    features, labels = benchmark(shard.assemble_batch, draws)
    assert features == memory.assemble_batch(draws)[0]
    assert labels.size == batch
