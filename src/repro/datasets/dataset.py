"""The :class:`Dataset` container: labels + CSR features + statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError
from repro.linalg import CSRMatrix
from repro.utils.rng import rng_from_seed


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics in the shape of the paper's Table II."""

    name: str
    n_instances: int
    n_features: int
    nnz: int
    sparsity: float  # fraction of *zero* cells, the paper's rho
    size_bytes: int  # LIBSVM-text footprint estimate

    def as_row(self) -> tuple:
        """Row for a Table II style report."""
        return (
            self.name,
            "{:,}".format(self.n_instances),
            "{:,}".format(self.n_features),
            "{:,}".format(self.nnz),
            "{:.6f}".format(self.sparsity),
            "{:.1f} MB".format(self.size_bytes / 1e6),
        )


class Dataset:
    """Labelled sparse dataset: ``features`` is CSR, ``labels`` is float64.

    Binary classification uses labels in {-1, +1}; multiclass uses
    {0, ..., K-1}; regression uses arbitrary floats.  The class is
    deliberately dumb storage — all distribution logic lives in
    :mod:`repro.partition` and :mod:`repro.storage`.
    """

    def __init__(self, features: CSRMatrix, labels, name: str = "dataset"):
        labels = np.asarray(labels, dtype=np.float64)
        if labels.ndim != 1:
            raise DataError("labels must be 1-D")
        if labels.size != features.n_rows:
            raise DataError(
                "got {} labels for {} rows".format(labels.size, features.n_rows)
            )
        self.features = features
        self.labels = labels
        self.name = name

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of examples."""
        return self.features.n_rows

    @property
    def n_features(self) -> int:
        """Number of feature columns (the model dimension ``m``)."""
        return self.features.n_cols

    @property
    def nnz(self) -> int:
        """Stored non-zeros in the feature matrix."""
        return self.features.nnz

    def sparsity(self) -> float:
        """Fraction of zero cells — the paper's ``rho``."""
        return 1.0 - self.features.density()

    def stats(self) -> DatasetStats:
        """Table II style statistics (size estimated as LIBSVM text)."""
        # label (~3 bytes) + per-nnz "index:value " (~12 bytes) + newline
        size = self.n_rows * 4 + self.nnz * 12
        return DatasetStats(
            name=self.name,
            n_instances=self.n_rows,
            n_features=self.n_features,
            nnz=self.nnz,
            sparsity=self.sparsity(),
            size_bytes=size,
        )

    # ------------------------------------------------------------------
    def take(self, row_ids) -> "Dataset":
        """Sub-dataset of the given rows (repetition allowed)."""
        row_ids = np.asarray(row_ids)
        features = self.features.take_rows(row_ids)  # rejects non-integer ids
        return Dataset(features, self.labels[row_ids.astype(np.int64)], self.name)

    def slice(self, start: int, stop: int) -> "Dataset":
        """Contiguous row range ``[start, stop)``."""
        return Dataset(self.features.slice_rows(start, stop), self.labels[start:stop], self.name)

    def shuffled(self, seed=None) -> "Dataset":
        """A row-permuted copy (global shuffle)."""
        rng = rng_from_seed(seed)
        order = rng.permutation(self.n_rows)
        return self.take(order)

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return "Dataset(name={!r}, rows={}, features={}, nnz={})".format(
            self.name, self.n_rows, self.n_features, self.nnz
        )
