"""Workload definitions and the benchmark's own input generator.

The program under test never sees the seed: :func:`generate` turns it
into a :class:`~repro.datasets.dataset.Dataset` (numpy only) and the
workloads hand that dataset to the public ColumnSGD API.  Every record
carries :func:`checksum` of the generated arrays, so two records can
prove they measured the same input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.datasets.dataset import Dataset
from repro.linalg import CSRMatrix
from repro.models import FactorizationMachine, LogisticRegression
from repro.optim import SGD
from repro.storage.serialization import sparse_row_bytes

#: logical workers of every workload (``CLUSTER1.with_workers(K)``)
K = 4
#: OS processes hosting the K workers on ``backend="local"`` (nproc is 2)
LOCAL_PROCESSES = 2
ZIPF_EXPONENT = 1.1
LABEL_NOISE = 0.05


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a shape, a model, a backend, and why."""

    name: str
    why: str
    rows: int
    features: int
    nnz_per_row: int
    batch_size: int
    model: str            # 'lr' | 'fm'
    learning_rate: float
    backend: str          # 'sim' | 'local'
    store: bool           # train out of an on-disk column-shard store
    check_rounds: int     # rounds of the output-check phase (fixed)
    pair: Optional[str]   # the sim/in-memory control this must equal
    #: seed -> full-train loss after ``check_rounds`` rounds on seed
    #: code; the quality target is 1.01x this.  Seeds without an entry
    #: fall back to "loss decreased and equals the pair's".
    ref_check_loss: Dict[int, float]

    def make_model(self):
        if self.model == "fm":
            return FactorizationMachine(n_factors=16)
        return LogisticRegression()

    def make_optimizer(self):
        return SGD(self.learning_rate)

    def scaled(self, divisor: int) -> "Workload":
        """The ``--quick`` shape: rows / divisor, nothing pinned."""
        return replace(
            self, rows=max(self.rows // divisor, 4 * self.batch_size), ref_check_loss={})


_LR = dict(
    rows=50_000, features=100_000, nnz_per_row=30, batch_size=1000,
    model="lr", learning_rate=0.5, check_rounds=60,
)
_FM = dict(
    rows=20_000, features=100_000, nnz_per_row=100, batch_size=500,
    model="fm", learning_rate=0.05, check_rounds=30,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lr_sim",
            why="ROADMAP baseline shape: batch assembly dominates the round, "
                "kernels are ~10%, no transport, no store; control for lr_store",
            backend="sim", store=False, pair=None,
            ref_check_loss={5: 0.5892814078007714}, **_LR,
        ),
        Workload(
            name="lr_store",
            why="same data and model read through the on-disk shard store with an "
                "LRU holding half a shard: store reads/decodes/evictions and the shuffle write",
            backend="sim", store=True, pair="lr_sim",
            ref_check_loss={5: 0.5892814078007714}, **_LR,
        ),
        Workload(
            name="fm_sim",
            why="FM with 17-wide statistics: kernels, model and optimizer dominate, "
                "assembly is a minority; an assembly gain should barely move it",
            backend="sim", store=False, pair=None,
            ref_check_loss={5: 0.6837856881218133}, **_FM,
        ),
        Workload(
            name="fm_local",
            why="fm_sim on 2 real worker processes: the only workload where codec, "
                "pipes and master reduce run for real; gives the multiprocess speedup",
            backend="local", store=False, pair="fm_sim",
            ref_check_loss={5: 0.6837856881218133}, **_FM,
        ),
    )
}


def generate(workload: Workload, seed: int) -> Dataset:
    """Zipf(1.1) binary features, Poisson row lengths, planted model.

    Column ids are drawn from a bounded Zipf law (column 0 the most
    popular) and de-duplicated per row, so the realised density is a
    little under ``nnz_per_row``; labels are the sign of a planted
    Gaussian model's centred margin with 5% flipped.
    """
    rng = np.random.default_rng(seed)
    n, m = workload.rows, workload.features
    lengths = np.maximum(rng.poisson(workload.nnz_per_row, size=n), 1)
    cdf = np.cumsum(1.0 / np.arange(1, m + 1) ** ZIPF_EXPONENT)
    cols = np.searchsorted(cdf, rng.random(int(lengths.sum())) * cdf[-1])
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys = np.sort(rows * m + np.minimum(cols, m - 1))  # ordered by (row, col)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    indices = keys % m
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // m, minlength=n), out=indptr[1:])
    data = np.ones(indices.size, dtype=np.float64)

    planted = rng.normal(size=m)
    margin = np.add.reduceat(planted[indices], indptr[:-1])
    labels = np.where(margin > np.median(margin), 1.0, -1.0)
    labels[rng.random(n) < LABEL_NOISE] *= -1.0
    return Dataset(
        CSRMatrix(indptr, indices, data, m), labels,
        name="zipf-{}x{}-seed{}".format(n, m, seed),
    )


def checksum(dataset: Dataset) -> str:
    """SHA-256 over ``indptr/indices/data/labels``."""
    digest = hashlib.sha256()
    features = dataset.features
    for array in (features.indptr, features.indices, features.data, dataset.labels):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def dataset_bytes(dataset: Dataset) -> int:
    """In-memory footprint of the CSR arrays + labels."""
    features = dataset.features
    return int(
        features.indptr.nbytes + features.indices.nbytes
        + features.data.nbytes + dataset.labels.nbytes
    )


def store_budget_bytes(dataset: Dataset, block_size: int) -> int:
    """``memory_budget_bytes`` of the store workload: an eighth of the data.

    Each worker's LRU then holds about half its shard.  The shuffle
    writer cuts a block short once its row buffer reaches a third of the
    budget, which changes the block layout and with it every draw — so
    the budget never goes below what a full block needs (this only binds
    on the ``--quick`` shape).
    """
    per_row = sparse_row_bytes(0)
    per_nnz = sparse_row_bytes(1) - per_row
    block_buffer = block_size * (per_row + per_nnz * dataset.nnz / dataset.n_rows)
    return max(dataset_bytes(dataset) // 8, int(3.3 * block_buffer))
