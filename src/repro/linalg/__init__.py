"""Sparse linear algebra substrate.

The whole reproduction runs on two structures implemented here from
scratch on top of numpy arrays:

* :class:`SparseVector` — an (indices, values, dim) triple used for single
  examples and for sparse gradients;
* :class:`CSRMatrix` — Compressed Sparse Row storage for datasets, data
  shards, and worksets (the paper uses CSR for shipped worksets too).

Kernels needed by SGD (per-row dot products against a dense model,
gradient accumulation ``X^T c``, both over a trailing width axis for
MLR's classes and FM's factors) live in :mod:`repro.linalg.ops`, beside
:class:`RowGradient` — the compact gradient the accumulate kernels
return and every optimizer applies.
"""

from repro.linalg.counters import OP_COUNTERS, OpCounters
from repro.linalg.sparse_vector import SparseVector
from repro.linalg.csr import CSRMatrix
from repro.linalg.ops import (
    EVERY_ROW,
    RowGradient,
    row_dots,
    accumulate_rows,
    accumulate_rows_squared,
    row_dots_squared,
)

__all__ = [
    "OP_COUNTERS",
    "OpCounters",
    "SparseVector",
    "CSRMatrix",
    "EVERY_ROW",
    "RowGradient",
    "row_dots",
    "accumulate_rows",
    "accumulate_rows_squared",
    "row_dots_squared",
]
