"""Column assignment schemes.

An assignment maps every global feature id to exactly one worker and
gives each worker a local, dense re-indexing of its columns.  Data and
model use the *same* assignment — that is the collocation property the
whole framework rests on.

Three schemes, mirroring the options the paper mentions for Algorithm 4's
"predefined partitioning scheme":

* round-robin — column ``j`` goes to worker ``j % K`` (the default; best
  balance for power-law feature popularity);
* range — contiguous ``m/K`` slabs;
* hash — ``hash(j) % K`` with a mixing function.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.linalg import CSRMatrix
from repro.utils.rng import mix64
from repro.utils.validation import check_in, check_positive


class ColumnAssignment:
    """Base class: global column -> worker, plus local index bookkeeping."""

    def __init__(self, n_features: int, n_workers: int):
        check_positive(n_features, "n_features")
        check_positive(n_workers, "n_workers")
        if n_workers > n_features:
            raise PartitionError(
                "cannot spread {} features over {} workers".format(n_features, n_workers)
            )
        self.n_features = int(n_features)
        self.n_workers = int(n_workers)
        self._columns_of: List[np.ndarray] = self._build_columns()
        owners = np.empty(self.n_features, dtype=np.int64)
        seen = 0
        for worker, cols in enumerate(self._columns_of):
            if cols.size and np.any(np.diff(cols) <= 0):
                raise PartitionError("columns_of({}) must be sorted unique".format(worker))
            owners[cols] = worker
            seen += cols.size
        if seen != self.n_features:
            raise PartitionError(
                "assignment covers {} of {} columns".format(seen, self.n_features)
            )
        self._owner = owners
        self._local = None  # global -> local table, built by the first local_of

    # -- scheme-specific -------------------------------------------------
    def _build_columns(self) -> List[np.ndarray]:
        raise NotImplementedError

    # -- shared API -------------------------------------------------------
    def columns_of(self, worker: int) -> np.ndarray:
        """Sorted global column ids owned by ``worker`` (local -> global)."""
        return self._columns_of[worker]

    def local_dim(self, worker: int) -> int:
        """Number of columns (model parameters) on ``worker``."""
        return int(self._columns_of[worker].size)

    def worker_of(self, columns) -> np.ndarray:
        """Owning worker of each global column id (vectorised)."""
        columns = np.asarray(columns, dtype=np.int64)
        return self._owner[columns]

    def local_of(self, columns) -> np.ndarray:
        """Local id of each global column on its owning worker (vectorised).

        The twin of :meth:`worker_of`: ``columns_of(worker_of(j))[local_of(j)]
        == j``.  Only loaders ask, so the table is built on first use;
        schemes whose local id is arithmetic override this and hold none.
        """
        if self._local is None:
            local = np.empty(self.n_features, dtype=np.int64)
            for cols in self._columns_of:
                local[cols] = np.arange(cols.size)
            self._local = local
        return self._local[np.asarray(columns, dtype=np.int64)]

    def split(self, features: CSRMatrix) -> List[CSRMatrix]:
        """Cut a CSR block into the K workers' local-id projections.

        One :meth:`~repro.linalg.CSRMatrix.split_columns` pass; piece
        ``k`` is the block projected onto ``columns_of(k)``.
        """
        return features.split_columns(
            self.worker_of(features.indices), self.local_of(features.indices), self.local_dims()
        )

    def local_dims(self) -> List[int]:
        """Per-worker column counts."""
        return [self.local_dim(k) for k in range(self.n_workers)]

    def __repr__(self) -> str:
        return "{}(m={}, K={})".format(type(self).__name__, self.n_features, self.n_workers)


class RoundRobinAssignment(ColumnAssignment):
    """Column ``j`` -> worker ``j % K``; local index is ``j // K``."""

    def _build_columns(self) -> List[np.ndarray]:
        return [
            np.arange(k, self.n_features, self.n_workers, dtype=np.int64)
            for k in range(self.n_workers)
        ]

    def local_of(self, columns) -> np.ndarray:
        return np.asarray(columns, dtype=np.int64) // self.n_workers


class RangeAssignment(ColumnAssignment):
    """Contiguous slabs of ``ceil(m/K)`` columns per worker."""

    def _build_columns(self) -> List[np.ndarray]:
        bounds = np.linspace(0, self.n_features, self.n_workers + 1).astype(np.int64)
        self._bounds = bounds
        return [
            np.arange(bounds[k], bounds[k + 1], dtype=np.int64)
            for k in range(self.n_workers)
        ]

    def local_of(self, columns) -> np.ndarray:
        columns = np.asarray(columns, dtype=np.int64)
        return columns - self._bounds[self._owner[columns]]


class HashAssignment(ColumnAssignment):
    """Column ``j`` -> ``mix64(j) % K`` (SplitMix64)."""

    def _build_columns(self) -> List[np.ndarray]:
        x = mix64(np.arange(self.n_features, dtype=np.uint64))
        owner = (x % np.uint64(self.n_workers)).astype(np.int64)
        return [
            np.flatnonzero(owner == k).astype(np.int64) for k in range(self.n_workers)
        ]


_SCHEMES = {
    "round_robin": RoundRobinAssignment,
    "range": RangeAssignment,
    "hash": HashAssignment,
}


def make_assignment(scheme: str, n_features: int, n_workers: int) -> ColumnAssignment:
    """Factory over the three schemes (``'round_robin'`` is the default)."""
    check_in(scheme, _SCHEMES, "scheme")
    return _SCHEMES[scheme](n_features, n_workers)
