"""A minimal immutable sparse vector.

Stored as sorted ``indices`` (int64) with matching ``values`` (float64)
and a logical dimension ``dim``.  Instances are value objects: operations
return new vectors and never mutate the operands.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.errors import DimensionMismatchError
from repro.linalg.counters import OP_COUNTERS


class SparseVector:
    """Sparse vector with sorted indices and explicit dimension.

    Parameters
    ----------
    indices:
        Feature indices (any integer array-like).  Must be unique and in
        ``[0, dim)``; they are sorted on construction.
    values:
        Values aligned with ``indices``.  Explicit zeros are dropped.
    dim:
        Logical dimensionality of the vector.
    """

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim: int):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1:
            raise ValueError("indices and values must be 1-D")
        if indices.shape != values.shape:
            raise DimensionMismatchError(indices.shape, values.shape, "indices/values length")
        if dim < 0:
            raise ValueError("dim must be >= 0, got {}".format(dim))
        if indices.size:
            if indices.min() < 0 or indices.max() >= dim:
                raise ValueError(
                    "indices must lie in [0, {}), got range [{}, {}]".format(
                        dim, indices.min(), indices.max()
                    )
                )
            order = np.argsort(indices, kind="stable")
            indices = indices[order]
            values = values[order]
            if np.any(indices[1:] == indices[:-1]):
                raise ValueError("duplicate indices in sparse vector")
            keep = values != 0.0
            if not keep.all():
                indices = indices[keep]
                values = values[keep]
        self.indices = indices
        self.values = values
        self.dim = int(dim)
        OP_COUNTERS.add_flops(self.indices.size)  # validation + sort scan

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "SparseVector":
        """Build from a dense array, keeping non-zero entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise ValueError("dense input must be 1-D")
        OP_COUNTERS.add_flops(dense.size)  # full scan for non-zeros
        idx = np.nonzero(dense)[0]
        return cls(idx, dense[idx], dense.size)

    @classmethod
    def empty(cls, dim: int) -> "SparseVector":
        """The all-zero vector of dimension ``dim``."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), dim)

    # ------------------------------------------------------------------
    # properties and basic ops
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array."""
        OP_COUNTERS.add_densify(self.dim)
        OP_COUNTERS.add_flops(self.nnz)
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    def dot(self, dense: np.ndarray) -> float:
        """Inner product with a dense vector of matching dimension."""
        dense = np.asarray(dense)
        if dense.shape != (self.dim,):
            raise DimensionMismatchError((self.dim,), dense.shape, "vector shape")
        if not self.nnz:
            return 0.0
        OP_COUNTERS.add_flops(2 * self.nnz)  # gather + multiply-add
        return float(np.dot(self.values, dense[self.indices]))

    def scale(self, alpha: float) -> "SparseVector":
        """Return ``alpha * self``."""
        if alpha == 0.0:
            return SparseVector.empty(self.dim)
        OP_COUNTERS.add_flops(self.nnz)
        OP_COUNTERS.add_alloc(2 * self.nnz)
        return SparseVector(self.indices.copy(), self.values * alpha, self.dim)

    def items(self) -> Iterable[Tuple[int, float]]:
        """Iterate ``(index, value)`` pairs in index order."""
        return zip(self.indices.tolist(), self.values.tolist())

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):  # value objects with numpy payloads are unhashable
        raise TypeError("SparseVector is unhashable")

    def __repr__(self) -> str:
        preview = ", ".join(
            "{}:{:g}".format(i, v) for i, v in list(self.items())[:4]
        )
        suffix = ", ..." if self.nnz > 4 else ""
        return "SparseVector(dim={}, nnz={}, [{}{}])".format(self.dim, self.nnz, preview, suffix)
