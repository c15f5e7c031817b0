"""Dataset splitting."""

from __future__ import annotations

from typing import Tuple

from repro.datasets.dataset import Dataset
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_probability


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, seed=None
) -> Tuple[Dataset, Dataset]:
    """Split a seeded permutation of the rows into (train, test).

    Both splits are non-empty as long as the dataset has >= 2 rows.
    """
    check_probability(test_fraction, "test_fraction")
    if dataset.n_rows < 2:
        raise ValueError("need at least 2 rows to split, got {}".format(dataset.n_rows))
    n_test = int(round(dataset.n_rows * test_fraction))
    n_test = min(max(n_test, 1), dataset.n_rows - 1)
    order = rng_from_seed(seed).permutation(dataset.n_rows)
    test_rows = order[:n_test]
    train_rows = order[n_test:]
    return dataset.take(train_rows), dataset.take(test_rows)
