"""Property-based tests on partitioning and sampling components."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import TwoPhaseIndex, make_assignment
from repro.storage.blocks import split_into_blocks
from repro.storage.serialization import (
    csr_matrix_bytes,
    dense_vector_bytes,
    sparse_row_bytes,
)


class TestAssignmentProperties:
    @given(
        m=st.integers(1, 500),
        k=st.integers(1, 32),
        scheme=st.sampled_from(["round_robin", "range", "hash"]),
    )
    @settings(max_examples=80)
    def test_partition_of_columns(self, m, k, scheme):
        """Every column is owned by exactly one worker, and ownership is
        consistent between columns_of and worker_of."""
        if k > m:
            return
        asg = make_assignment(scheme, m, k)
        owners = asg.worker_of(np.arange(m))
        assert owners.min() >= 0 and owners.max() < k
        total = 0
        for w in range(k):
            cols = asg.columns_of(w)
            total += cols.size
            assert np.all(owners[cols] == w)
        assert total == m

    @given(
        m=st.integers(1, 500),
        k=st.integers(1, 32),
        scheme=st.sampled_from(["round_robin", "range", "hash"]),
    )
    @settings(max_examples=80)
    def test_local_of_inverts_columns_of(self, m, k, scheme):
        """``(worker_of, local_of)`` is the inverse of ``columns_of``."""
        if k > m:
            return
        asg = make_assignment(scheme, m, k)
        for w in range(k):
            assert np.array_equal(
                asg.local_of(asg.columns_of(w)), np.arange(asg.local_dim(w))
            )
        ids = np.arange(m)
        owners, locals_ = asg.worker_of(ids), asg.local_of(ids)
        back = [asg.columns_of(w)[j] for w, j in zip(owners, locals_)]
        assert back == ids.tolist()

    @given(m=st.integers(2, 400), k=st.integers(1, 16))
    @settings(max_examples=50)
    def test_round_robin_balance_tight(self, m, k):
        if k > m:
            return
        dims = make_assignment("round_robin", m, k).local_dims()
        assert max(dims) - min(dims) <= 1


class TestBlockProperties:
    @given(n=st.integers(0, 5000), size=st.integers(1, 512))
    @settings(max_examples=80)
    def test_blocks_tile_rows_exactly(self, n, size):
        blocks = split_into_blocks(n, size)
        assert sum(b.n_rows for b in blocks) == n
        cursor = 0
        for b in blocks:
            assert b.start == cursor
            cursor = b.stop
        assert cursor == n

    @given(n=st.integers(1, 5000), size=st.integers(1, 512))
    @settings(max_examples=50)
    def test_all_blocks_full_except_last(self, n, size):
        blocks = split_into_blocks(n, size)
        for b in blocks[:-1]:
            assert b.n_rows == size
        assert 1 <= blocks[-1].n_rows <= size


class TestIndexProperties:
    @given(
        sizes=st.lists(st.integers(1, 50), min_size=1, max_size=10),
        seed=st.integers(0, 1000),
        batch=st.integers(1, 64),
        iteration=st.integers(0, 500),
    )
    @settings(max_examples=60)
    def test_draws_valid_and_deterministic(self, sizes, seed, batch, iteration):
        layout = {i: s for i, s in enumerate(sizes)}
        index = TwoPhaseIndex(layout, base_seed=seed)
        draws = index.sample(iteration, batch)
        assert np.array_equal(
            draws, TwoPhaseIndex(layout, base_seed=seed).sample(iteration, batch)
        )
        assert len(draws) == batch
        for block_id, offset in draws:
            assert 0 <= offset < layout[block_id]
        rows = index.to_global_rows(draws)
        assert rows.min() >= 0 and rows.max() < sum(sizes)

    @given(
        sizes=st.lists(st.integers(1, 50), min_size=1, max_size=8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30)
    def test_global_rows_bijective_with_draws(self, sizes, seed):
        """(block, offset) -> global row is injective over the layout."""
        layout = {i: s for i, s in enumerate(sizes)}
        index = TwoPhaseIndex(layout, base_seed=seed)
        all_draws = [(b, o) for b, s in layout.items() for o in range(s)]
        rows = index.to_global_rows(all_draws)
        assert len(set(rows.tolist())) == sum(sizes)


class TestSerializationProperties:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_sizes_monotone_in_nnz(self, a, b):
        lo, hi = sorted((a, b))
        assert sparse_row_bytes(lo) <= sparse_row_bytes(hi)
        assert csr_matrix_bytes(10, lo) <= csr_matrix_bytes(10, hi)
        assert dense_vector_bytes(lo) <= dense_vector_bytes(hi)

    @given(st.integers(1, 1000), st.integers(0, 50_000))
    @settings(max_examples=60)
    def test_csr_never_worse_than_per_row_objects(self, rows, nnz):
        """The compression claim behind Fig 7, as a universal property."""
        per_row = rows * sparse_row_bytes(max(nnz // rows, 0))
        assert csr_matrix_bytes(rows, (nnz // rows) * rows, with_labels=True) <= per_row + sparse_row_bytes(0)
