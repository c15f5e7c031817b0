"""Serialization sizes and the row-block layout of the source file.

The paper assumes training data sits in HDFS, partitioned by rows.  Data
loading experiments (Fig 7, Fig 11a) are dominated by bytes read, objects
serialized, and shuffle traffic — so this package holds the byte model
(and the wire codec built on it) and the row blocks a load walks; the
load cost itself is :mod:`repro.partition.dispatch`'s.
"""

from repro.storage.serialization import (
    OBJECT_OVERHEAD_BYTES,
    sparse_row_bytes,
    csr_matrix_bytes,
    dense_vector_bytes,
    workset_bytes,
)
from repro.storage.blocks import Block

__all__ = [
    "OBJECT_OVERHEAD_BYTES",
    "sparse_row_bytes",
    "csr_matrix_bytes",
    "dense_vector_bytes",
    "workset_bytes",
    "Block",
]
