"""Tests for repro.preprocess."""

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.preprocess import hash_features, normalize_rows


class TestHashFeatures:
    def test_dimensions_and_labels(self, tiny_binary):
        hashed = hash_features(tiny_binary, n_buckets=64, seed=1)
        assert hashed.n_features == 64
        assert hashed.n_rows == tiny_binary.n_rows
        assert np.array_equal(hashed.labels, tiny_binary.labels)

    def test_deterministic(self, tiny_binary):
        a = hash_features(tiny_binary, 64, seed=1)
        b = hash_features(tiny_binary, 64, seed=1)
        assert a.features == b.features

    def test_seed_changes_mapping(self, tiny_binary):
        a = hash_features(tiny_binary, 64, seed=1)
        b = hash_features(tiny_binary, 64, seed=2)
        assert a.features != b.features

    def test_row_l1_mass_never_grows(self, tiny_binary):
        """Sign hashing keeps each value's magnitude; only collisions
        inside a row can cancel some of it."""
        hashed = hash_features(tiny_binary, 64)
        for i in range(0, tiny_binary.n_rows, 29):
            original = np.abs(tiny_binary.features.row(i).values).sum()
            assert np.abs(hashed.features.row(i).values).sum() <= original + 1e-12

    def test_indices_within_buckets(self, tiny_binary):
        hashed = hash_features(tiny_binary, 32)
        if hashed.features.nnz:
            assert hashed.features.indices.max() < 32

    def test_trainable_after_hashing(self):
        """End-to-end: hash a wide dataset down and train on it."""
        from repro.core import train_columnsgd
        from repro.models import LogisticRegression
        from repro.optim import SGD
        from repro.sim import CLUSTER1, SimulatedCluster

        data = make_classification(1500, 50_000, nnz_per_row=10, seed=3)
        hashed = hash_features(data, n_buckets=4096, seed=3)
        result = train_columnsgd(
            hashed, LogisticRegression(), SGD(1.0),
            SimulatedCluster(CLUSTER1.with_workers(4)),
            batch_size=200, iterations=60, eval_every=60, block_size=256,
        )
        assert result.final_loss() < 0.95 * np.log(2)

    def test_rejects_bad_buckets(self, tiny_binary):
        with pytest.raises(ValueError):
            hash_features(tiny_binary, 0)


class TestNormalizeRows:
    def test_unit_norms(self, tiny_binary):
        normalized = normalize_rows(tiny_binary)
        for i in range(0, tiny_binary.n_rows, 37):
            row = normalized.features.row(i)
            if row.nnz:
                assert np.linalg.norm(row.values) == pytest.approx(1.0)

    def test_preserves_sparsity_pattern(self, tiny_binary):
        normalized = normalize_rows(tiny_binary)
        assert np.array_equal(
            normalized.features.indices, tiny_binary.features.indices
        )

    def test_original_untouched(self, tiny_binary):
        before = tiny_binary.features.data.copy()
        normalize_rows(tiny_binary)
        assert np.array_equal(tiny_binary.features.data, before)

