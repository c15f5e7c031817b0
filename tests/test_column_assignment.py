"""Unit tests for column assignment schemes."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition import (
    HashAssignment,
    RangeAssignment,
    RoundRobinAssignment,
    make_assignment,
)


ALL_SCHEMES = ["round_robin", "range", "hash"]


class TestInvariants:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("m,k", [(10, 3), (100, 8), (17, 17), (64, 1)])
    def test_covers_every_column_once(self, scheme, m, k):
        asg = make_assignment(scheme, m, k)
        seen = np.concatenate([asg.columns_of(w) for w in range(k)])
        assert sorted(seen.tolist()) == list(range(m))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_worker_of_consistent_with_columns_of(self, scheme):
        asg = make_assignment(scheme, 50, 4)
        for w in range(4):
            assert np.all(asg.worker_of(asg.columns_of(w)) == w)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_columns_sorted(self, scheme):
        asg = make_assignment(scheme, 40, 3)
        for w in range(3):
            cols = asg.columns_of(w)
            assert np.all(np.diff(cols) > 0) or cols.size <= 1

    @pytest.mark.parametrize("scheme", ["round_robin", "range"])
    def test_balance(self, scheme):
        asg = make_assignment(scheme, 1000, 8)
        dims = asg.local_dims()
        assert max(dims) / (sum(dims) / len(dims)) < 1.01

    def test_local_dims_sum(self):
        asg = make_assignment("hash", 97, 5)
        assert sum(asg.local_dims()) == 97


class TestSchemes:
    def test_round_robin_layout(self):
        asg = RoundRobinAssignment(10, 3)
        assert asg.columns_of(0).tolist() == [0, 3, 6, 9]
        assert asg.columns_of(2).tolist() == [2, 5, 8]

    def test_range_layout(self):
        asg = RangeAssignment(10, 2)
        assert asg.columns_of(0).tolist() == list(range(5))
        assert asg.columns_of(1).tolist() == list(range(5, 10))

    def test_hash_deterministic(self):
        a = HashAssignment(100, 4)
        b = HashAssignment(100, 4)
        for w in range(4):
            assert np.array_equal(a.columns_of(w), b.columns_of(w))

    def test_more_workers_than_columns(self):
        with pytest.raises(PartitionError):
            RoundRobinAssignment(3, 5)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_assignment("zigzag", 10, 2)

    def test_repr(self):
        assert "m=10" in repr(RoundRobinAssignment(10, 2))
