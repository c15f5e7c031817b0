"""Unit tests for repro.datasets.Dataset and the synthetic generators."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    make_classification,
    make_multiclass,
)
from repro.errors import DataError
from repro.linalg import CSRMatrix


class TestDataset:
    def test_rejects_label_mismatch(self):
        with pytest.raises(DataError):
            Dataset(CSRMatrix.empty(3, 4), np.zeros(2))

    def test_rejects_2d_labels(self):
        with pytest.raises(DataError):
            Dataset(CSRMatrix.empty(2, 4), np.zeros((2, 1)))

    def test_basic_accessors(self, tiny_binary):
        assert tiny_binary.n_rows == 300
        assert tiny_binary.n_features == 120
        assert len(tiny_binary) == 300
        assert 0.0 < tiny_binary.sparsity() < 1.0

    def test_take_and_slice(self, tiny_binary):
        sub = tiny_binary.take([5, 5, 0])
        assert sub.n_rows == 3
        assert sub.labels[0] == sub.labels[1] == tiny_binary.labels[5]
        assert tiny_binary.slice(10, 20).n_rows == 10

    def test_shuffled_preserves_pairs(self, tiny_binary):
        shuffled = tiny_binary.shuffled(seed=3)
        assert shuffled.n_rows == tiny_binary.n_rows
        # row multiset is preserved: match each shuffled row back
        orig = {tuple(tiny_binary.features.row(i).indices.tolist()): tiny_binary.labels[i]
                for i in range(tiny_binary.n_rows)}
        for i in range(0, shuffled.n_rows, 37):
            key = tuple(shuffled.features.row(i).indices.tolist())
            assert key in orig

    def test_stats_shape(self, tiny_binary):
        stats = tiny_binary.stats()
        assert stats.n_instances == 300
        assert stats.nnz == tiny_binary.nnz
        assert 0 < stats.sparsity < 1
        assert len(stats.as_row()) == 6

    def test_repr(self, tiny_binary):
        assert "rows=300" in repr(tiny_binary)


class TestGenerators:
    def test_classification_deterministic(self):
        a = make_classification(100, 50, seed=9)
        b = make_classification(100, 50, seed=9)
        assert a.features == b.features
        assert np.array_equal(a.labels, b.labels)

    def test_classification_labels_are_pm1(self, tiny_binary):
        assert set(np.unique(tiny_binary.labels)) == {-1.0, 1.0}

    def test_classification_binary_features(self):
        data = make_classification(50, 40, binary_features=True, seed=1)
        assert np.all(data.features.data == 1.0)

    def test_classification_gaussian_features(self):
        data = make_classification(50, 40, binary_features=False, seed=1)
        assert not np.all(data.features.data == 1.0)

    def test_nnz_per_row_respected(self):
        data = make_classification(200, 1000, nnz_per_row=15, seed=2)
        mean_nnz = data.nnz / data.n_rows
        assert 10 < mean_nnz < 20

    def test_zipf_skews_popularity(self):
        data = make_classification(500, 200, nnz_per_row=10, zipf_exponent=1.3, seed=4)
        counts = np.bincount(data.features.indices, minlength=200)
        # a hot head: top feature much more popular than median
        assert counts.max() > 5 * max(np.median(counts), 1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_classification(0, 10)

    def test_regression_labels_real(self, tiny_regression):
        assert tiny_regression.labels.dtype == np.float64
        assert np.std(tiny_regression.labels) > 0

    def test_multiclass_range(self, tiny_multiclass):
        labels = tiny_multiclass.labels
        assert labels.min() >= 0 and labels.max() < 4

    def test_multiclass_rejects_single_class(self):
        with pytest.raises(ValueError):
            make_multiclass(10, 10, n_classes=1)

    def test_rows_have_at_least_one_feature(self, tiny_binary):
        assert tiny_binary.features.row_nnz().min() >= 1
