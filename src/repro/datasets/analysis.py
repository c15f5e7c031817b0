"""Dataset inspection utilities.

Quick structural summaries a practitioner checks before training:
feature popularity (the Zipf skew driving partition balance), row
length distribution (batch compute variance), and label balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.datasets.dataset import Dataset
from repro.utils.format import ascii_table

#: Share of the features, hottest first, that :func:`popularity_skew`
#: and the report's head line measure.
HEAD_FRACTION = 0.01


def feature_frequencies(dataset: Dataset) -> np.ndarray:
    """Occurrences of each feature across rows (length ``n_features``)."""
    return np.bincount(dataset.features.indices, minlength=dataset.n_features)


def label_distribution(dataset: Dataset) -> Dict[float, int]:
    """Counts per distinct label value."""
    values, counts = np.unique(dataset.labels, return_counts=True)
    return {float(v): int(c) for v, c in zip(values, counts)}


def row_length_stats(dataset: Dataset) -> Dict[str, float]:
    """min/mean/median/max of non-zeros per row."""
    lengths = dataset.features.row_nnz()
    if lengths.size == 0:
        return {"min": 0.0, "mean": 0.0, "median": 0.0, "max": 0.0}
    return {
        "min": float(lengths.min()),
        "mean": float(lengths.mean()),
        "median": float(np.median(lengths)),
        "max": float(lengths.max()),
    }


def popularity_skew(dataset: Dataset) -> float:
    """Share of all non-zeros held by the hottest :data:`HEAD_FRACTION`
    of features — near that fraction for uniform data, near 1.0 for
    heavily skewed CTR data."""
    freq = np.sort(feature_frequencies(dataset))[::-1]
    head = max(1, int(round(freq.size * HEAD_FRACTION)))
    total = freq.sum()
    return float(freq[:head].sum() / total) if total else 0.0


@dataclass(frozen=True)
class DatasetReport:
    """Bundle of the summaries above."""

    name: str
    n_rows: int
    n_features: int
    nnz: int
    sparsity: float
    labels: Dict[float, int]
    row_lengths: Dict[str, float]
    head1pct_share: float

    def render(self) -> str:
        """Multi-line ASCII report."""
        rows = [
            ("rows", "{:,}".format(self.n_rows)),
            ("features", "{:,}".format(self.n_features)),
            ("nnz", "{:,}".format(self.nnz)),
            ("sparsity", "{:.6f}".format(self.sparsity)),
            ("labels", ", ".join(
                "{:g}: {:,}".format(v, c) for v, c in sorted(self.labels.items())
            )),
            ("nnz/row", "min {min:.0f} / mean {mean:.1f} / median {median:.0f} "
                        "/ max {max:.0f}".format(**self.row_lengths)),
            ("hottest 1% of features hold", "{:.1%} of non-zeros".format(
                self.head1pct_share)),
        ]
        return "dataset {!r}\n{}".format(self.name, ascii_table(["property", "value"], rows))


def describe(dataset: Dataset) -> DatasetReport:
    """Compute the full report for a dataset."""
    return DatasetReport(
        name=dataset.name,
        n_rows=dataset.n_rows,
        n_features=dataset.n_features,
        nnz=dataset.nnz,
        sparsity=dataset.sparsity(),
        labels=label_distribution(dataset),
        row_lengths=row_length_stats(dataset),
        head1pct_share=popularity_skew(dataset),
    )
