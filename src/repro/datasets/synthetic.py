"""Synthetic sparse dataset generators with planted ground truth.

Each generator draws a ground-truth model ``w*`` and sparse feature rows,
then labels examples from the model (with :data:`LABEL_NOISE`), so
SGD runs on these datasets show genuine convergence — the property the
paper's Figures 4, 8 and 13 depend on.

Feature sparsity follows the power-law popularity typical of the paper's
CTR datasets (avazu/kddb/kdd12): a small set of hot features appears in
most rows while the long tail is rare.  A Zipf exponent of 0 recovers
uniform feature sampling.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.dataset import Dataset
from repro.linalg import CSRMatrix
from repro.linalg.ops import row_dots
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive

#: Share of labels flipped (binary) or redrawn (multiclass) at random.
LABEL_NOISE = 0.05
#: Standard deviation of the planted model's weights.
MODEL_SCALE = 1.0


def _feature_distribution(n_features: int, zipf_exponent: float, rng) -> np.ndarray:
    """Popularity distribution over features (descending, shuffled)."""
    if zipf_exponent <= 0.0:
        return np.full(n_features, 1.0 / n_features)
    ranks = np.arange(1, n_features + 1, dtype=np.float64)
    weights = ranks ** (-zipf_exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def _sample_rows(
    n_rows: int,
    n_features: int,
    nnz_per_row: int,
    zipf_exponent: float,
    binary_features: bool,
    rng,
) -> CSRMatrix:
    """Draw a sparse design matrix with ~``nnz_per_row`` entries per row."""
    probs = _feature_distribution(n_features, zipf_exponent, rng)
    # Precompute the CDF once; per-draw sampling is then one searchsorted,
    # which keeps the per-row duplicate-retry loop cheap even for skewed
    # (Zipf) popularity where collisions are common.
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0

    def draw(count):
        return np.searchsorted(cdf, rng.random(count), side="right")

    lengths = np.maximum(1, rng.poisson(nnz_per_row, size=n_rows))
    lengths = np.minimum(lengths, n_features)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    total = int(indptr[-1])
    all_indices = np.empty(total, dtype=np.int64)
    # Draw in one bulk pass, then dedupe per row (rows are short).
    draws = draw(total)
    cursor = 0
    for i in range(n_rows):
        want = int(lengths[i])
        row = np.unique(draws[cursor:cursor + want])
        cursor += want
        while row.size < want:
            extra = draw(2 * (want - row.size))
            row = np.unique(np.concatenate([row, extra]))
        all_indices[indptr[i]:indptr[i] + want] = row[:want]
    if binary_features:
        data = np.ones(total, dtype=np.float64)
    else:
        data = rng.normal(0.0, 1.0, size=total)
        data[data == 0.0] = 1.0
    return CSRMatrix(indptr, all_indices, data, n_features)


def _planted_model(n_features: int, rng) -> np.ndarray:
    return rng.normal(0.0, MODEL_SCALE, size=n_features)


def make_classification(
    n_rows: int,
    n_features: int,
    nnz_per_row: int = 20,
    zipf_exponent: float = 1.1,
    binary_features: bool = True,
    seed=None,
    name: str = "synthetic-binary",
) -> Dataset:
    """Sparse binary classification with labels in {-1, +1}.

    Labels are ``sign(x . w*)`` flipped with probability
    :data:`LABEL_NOISE`.
    ``binary_features=True`` mimics one-hot CTR data (avazu/kddb/kdd12);
    ``False`` draws Gaussian feature values.
    """
    check_positive(n_rows, "n_rows")
    check_positive(n_features, "n_features")
    check_positive(nnz_per_row, "nnz_per_row")
    rng = rng_from_seed(seed)
    features = _sample_rows(n_rows, n_features, nnz_per_row, zipf_exponent, binary_features, rng)
    truth = _planted_model(n_features, rng)
    margins = row_dots(features, truth)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    flips = rng.random(n_rows) < LABEL_NOISE
    labels[flips] *= -1.0
    return Dataset(features, labels, name=name)


def make_regression(
    n_rows: int,
    n_features: int,
    nnz_per_row: int = 20,
    zipf_exponent: float = 1.1,
    noise_std: float = 0.1,
    seed=None,
    name: str = "synthetic-regression",
) -> Dataset:
    """Sparse regression: ``y = x . w* + N(0, noise_std)``."""
    check_positive(n_rows, "n_rows")
    check_positive(n_features, "n_features")
    check_positive(nnz_per_row, "nnz_per_row")
    rng = rng_from_seed(seed)
    features = _sample_rows(n_rows, n_features, nnz_per_row, zipf_exponent, False, rng)
    truth = _planted_model(n_features, rng)
    labels = row_dots(features, truth) + rng.normal(0.0, noise_std, size=n_rows)
    return Dataset(features, labels, name=name)


def make_multiclass(
    n_rows: int,
    n_features: int,
    n_classes: int,
    nnz_per_row: int = 20,
    zipf_exponent: float = 1.1,
    seed=None,
    name: str = "synthetic-multiclass",
) -> Dataset:
    """Sparse multiclass data with labels in {0, ..., n_classes-1}.

    Labels are argmax over per-class planted models, with a
    :data:`LABEL_NOISE` chance of resampling uniformly.
    """
    check_positive(n_rows, "n_rows")
    check_positive(n_features, "n_features")
    check_positive(n_classes, "n_classes")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2, got {}".format(n_classes))
    rng = rng_from_seed(seed)
    features = _sample_rows(n_rows, n_features, nnz_per_row, zipf_exponent, True, rng)
    truth = rng.normal(0.0, 1.0, size=(n_features, n_classes))
    scores = row_dots(features, truth)
    labels = scores.argmax(axis=1).astype(np.float64)
    flips = rng.random(n_rows) < LABEL_NOISE
    labels[flips] = rng.integers(0, n_classes, size=int(flips.sum()))
    return Dataset(features, labels, name=name)
