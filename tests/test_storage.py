"""Unit tests for repro.storage: serialization sizes and block layout."""

import pytest

from repro.datasets import make_classification
from repro.storage import (
    OBJECT_OVERHEAD_BYTES,
    Block,
    csr_matrix_bytes,
    dense_vector_bytes,
    sparse_row_bytes,
    workset_bytes,
)
from repro.storage.blocks import split_into_blocks


class TestSerialization:
    def test_sparse_row_scaling(self):
        assert sparse_row_bytes(10) - sparse_row_bytes(0) == 10 * 12

    def test_object_overhead_charged_once(self):
        assert dense_vector_bytes(0) == OBJECT_OVERHEAD_BYTES

    def test_dense_vector(self):
        assert dense_vector_bytes(100) == OBJECT_OVERHEAD_BYTES + 800

    def test_csr_beats_per_row_objects(self):
        """CSR batching amortises the per-object overhead — the Fig 7 story."""
        n_rows, nnz = 1000, 20_000
        per_row = n_rows * sparse_row_bytes(nnz // n_rows)
        blocked = csr_matrix_bytes(n_rows, nnz, with_labels=True)
        assert blocked < per_row

    def test_workset_includes_block_id(self):
        assert workset_bytes(10, 50) == 8 + csr_matrix_bytes(10, 50, with_labels=True)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sparse_row_bytes(-1)


class TestBlocks:
    def test_split_exact(self):
        blocks = split_into_blocks(100, 25)
        assert len(blocks) == 4
        assert all(b.n_rows == 25 for b in blocks)

    def test_split_remainder(self):
        blocks = split_into_blocks(10, 4)
        assert [b.n_rows for b in blocks] == [4, 4, 2]

    def test_split_empty(self):
        assert split_into_blocks(0, 4) == []

    def test_block_ids_dense(self):
        blocks = split_into_blocks(10, 3)
        assert [b.block_id for b in blocks] == [0, 1, 2, 3]

    def test_materialize(self):
        data = make_classification(20, 10, seed=1)
        block = Block(0, 5, 10)
        rows = block.materialize(data)
        assert rows.n_rows == 5
