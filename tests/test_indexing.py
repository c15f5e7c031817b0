"""Unit tests for the two-phase sampling index."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition import TwoPhaseIndex


class TestTwoPhaseIndex:
    @pytest.fixture
    def index(self):
        return TwoPhaseIndex({0: 10, 1: 10, 2: 5}, base_seed=7)

    def test_row_count(self, index):
        assert index.n_rows == 25
        assert index.n_blocks == 3

    def test_deterministic_across_callers(self, index):
        other = TwoPhaseIndex({0: 10, 1: 10, 2: 5}, base_seed=7)
        assert np.array_equal(index.sample(3, 20), other.sample(3, 20))

    def test_different_iterations_differ(self, index):
        assert not np.array_equal(index.sample(0, 20), index.sample(1, 20))

    def test_different_seeds_differ(self, index):
        other = TwoPhaseIndex({0: 10, 1: 10, 2: 5}, base_seed=8)
        assert not np.array_equal(index.sample(0, 20), other.sample(0, 20))

    def test_draws_in_range(self, index):
        sizes = {0: 10, 1: 10, 2: 5}
        for block_id, offset in index.sample(0, 200):
            assert block_id in sizes
            assert 0 <= offset < sizes[block_id]

    def test_rows_approximately_uniform(self):
        index = TwoPhaseIndex({0: 50, 1: 50}, base_seed=1)
        counts = np.zeros(100)
        for t in range(60):
            rows = index.to_global_rows(index.sample(t, 100))
            np.add.at(counts, rows, 1)
        # 6000 draws over 100 rows: each row ~60 expected
        assert counts.min() > 20
        assert counts.max() < 120

    def test_block_weighting_by_size(self):
        index = TwoPhaseIndex({0: 90, 1: 10}, base_seed=2)
        draws = index.sample(0, 2000)
        share_big = sum(1 for b, _ in draws if b == 0) / len(draws)
        assert 0.85 < share_big < 0.95

    def test_to_global_rows(self, index):
        assert index.to_global_rows([(0, 3)]).tolist() == [3]
        assert index.to_global_rows([(1, 0)]).tolist() == [10]
        assert index.to_global_rows([(2, 4)]).tolist() == [24]

    def test_to_global_rows_validation(self, index):
        with pytest.raises(PartitionError, match="unknown block"):
            index.to_global_rows([(9, 0)])
        with pytest.raises(PartitionError, match="offset"):
            index.to_global_rows([(2, 5)])

    def test_empty_layout_rejected(self):
        with pytest.raises(PartitionError):
            TwoPhaseIndex({})

    def test_zero_size_block_rejected(self):
        with pytest.raises(PartitionError):
            TwoPhaseIndex({0: 0})

    def test_batch_size_positive(self, index):
        with pytest.raises(ValueError):
            index.sample(0, 0)

    @pytest.mark.parametrize(
        "sizes", [{0: 10, 1: 10, 2: 5}, {0: 5, 3: 1, 7: 900, 9: 13}, {4: 1}]
    )
    def test_draws_are_generator_choice_draw_for_draw(self, sizes):
        """The precomputed inverse CDF reproduces ``rng.choice(p=...)``
        exactly, so every trajectory keeps its batches."""
        from repro.utils.rng import iteration_seed, rng_from_seed

        index = TwoPhaseIndex(sizes, base_seed=11)
        ids = np.asarray(sorted(sizes))
        rows = np.asarray([sizes[b] for b in ids])
        for t in range(200):
            rng = rng_from_seed(iteration_seed(11, t))
            pos = rng.choice(ids.size, size=257, p=rows / rows.sum())
            expected = np.stack([ids[pos], rng.integers(0, rows[pos])], axis=1)
            np.testing.assert_array_equal(index.sample(t, 257), expected)

    def test_every_call_draws_afresh_the_same_batch(self, index):
        draws = index.sample(4, 20)
        again = index.sample(4, 20)
        assert again is not draws and again.flags.writeable  # the caller's own
        np.testing.assert_array_equal(again, draws)
