"""Sparse dataset transforms (pure functions; datasets are immutable)."""

from __future__ import annotations

import numpy as np

from repro.datasets.dataset import Dataset
from repro.linalg import CSRMatrix
from repro.utils.rng import mix64
from repro.utils.validation import check_positive


def hash_features(dataset: Dataset, n_buckets: int, seed: int = 0) -> Dataset:
    """The hashing trick: project features into ``n_buckets`` dimensions.

    Each original feature id maps to bucket ``h(id) % n_buckets``; a
    second hash flips the value's sign so colliding features cancel in
    expectation (Weinberger et al., 2009).  Values of features landing
    in the same bucket within one row are summed.
    """
    check_positive(n_buckets, "n_buckets")
    features = dataset.features
    mixed = mix64(features.indices.astype(np.uint64) * np.uint64(2 * seed + 1))
    buckets = (mixed % np.uint64(n_buckets)).astype(np.int64)
    signs = np.where((mixed >> np.uint64(32)) & np.uint64(1), 1.0, -1.0)
    values = features.values() * signs

    # Rebuild CSR row by row, merging duplicate buckets inside each row.
    indptr = [0]
    out_indices = []
    out_values = []
    for i in range(features.n_rows):
        lo, hi = features.indptr[i], features.indptr[i + 1]
        row_buckets = buckets[lo:hi]
        row_values = values[lo:hi]
        if row_buckets.size:
            uniq, inverse = np.unique(row_buckets, return_inverse=True)
            summed = np.zeros(uniq.size)
            np.add.at(summed, inverse, row_values)
            keep = summed != 0.0
            out_indices.append(uniq[keep])
            out_values.append(summed[keep])
            indptr.append(indptr[-1] + int(keep.sum()))
        else:
            indptr.append(indptr[-1])
    hashed = CSRMatrix(
        np.asarray(indptr, dtype=np.int64),
        np.concatenate(out_indices) if out_indices else np.empty(0, dtype=np.int64),
        np.concatenate(out_values) if out_values else np.empty(0),
        n_buckets,
    )
    return Dataset(hashed, dataset.labels, name="{}-hashed{}".format(dataset.name, n_buckets))


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale each row to unit L2 norm (all-zero rows are left alone)."""
    features = dataset.features
    norms_sq = np.zeros(features.n_rows)
    rows_of = np.repeat(np.arange(features.n_rows), features.row_nnz())
    values = features.values()
    np.add.at(norms_sq, rows_of, values ** 2)
    norms = np.sqrt(norms_sq)
    norms[norms == 0.0] = 1.0
    scaled = CSRMatrix(
        features.indptr.copy(),
        features.indices.copy(),
        values / norms[rows_of],
        features.n_cols,
    )
    return Dataset(scaled, dataset.labels, name=dataset.name)

