"""Unit tests for repro.metrics."""

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.errors import DataError
from repro.metrics import accuracy, evaluate_classifier, log_loss, roc_auc, train_test_split
from repro.metrics.classification import THRESHOLD


LABELS = np.array([1.0, 1.0, -1.0, -1.0])
PROBS = np.array([0.9, 0.4, 0.2, 0.6])


class TestAccuracy:
    def test_value(self):
        assert accuracy(LABELS, PROBS) == pytest.approx(0.5)

    def test_threshold(self):
        # a probability equal to the threshold is a positive decision
        at = np.full(4, THRESHOLD)
        assert accuracy(LABELS, at) == pytest.approx(0.5)
        assert accuracy(LABELS[:2], at[:2]) == 1.0

    def test_perfect(self):
        assert accuracy(LABELS, np.array([0.9, 0.8, 0.1, 0.2])) == 1.0

    def test_rejects_bad_labels(self):
        with pytest.raises(DataError):
            accuracy(np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            accuracy(np.array([]), np.array([]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            accuracy(np.array([1.0]), np.array([0.5, 0.5]))


class TestLogLoss:
    def test_perfect_is_zero(self):
        assert log_loss(np.array([1.0, -1.0]), np.array([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_uninformative_is_log2(self):
        assert log_loss(LABELS, np.full(4, 0.5)) == pytest.approx(np.log(2))

    def test_clipping_prevents_inf(self):
        value = log_loss(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(value)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(LABELS, np.array([0.9, 0.8, 0.1, 0.2])) == 1.0

    def test_reversed_ranking(self):
        assert roc_auc(LABELS, np.array([0.1, 0.2, 0.9, 0.8])) == 0.0

    def test_random_is_half(self, rng):
        labels = rng.choice([-1.0, 1.0], 2000)
        scores = rng.random(2000)
        assert roc_auc(labels, scores) == pytest.approx(0.5, abs=0.05)

    def test_ties_get_midranks(self):
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc(labels, scores) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc(np.array([1.0, 1.0]), np.array([0.5, 0.6]))

    def test_invariant_to_monotone_transform(self, rng):
        labels = rng.choice([-1.0, 1.0], 300)
        scores = rng.normal(size=300)
        assert roc_auc(labels, scores) == pytest.approx(
            roc_auc(labels, np.exp(scores)), abs=1e-12
        )


class TestSplit:
    def test_sizes(self, tiny_binary):
        train, test = train_test_split(tiny_binary, test_fraction=0.2, seed=1)
        assert test.n_rows == 60
        assert train.n_rows == 240

    def test_deterministic(self, tiny_binary):
        a = train_test_split(tiny_binary, seed=2)
        b = train_test_split(tiny_binary, seed=2)
        assert np.array_equal(a[0].labels, b[0].labels)

    def test_never_empty(self, tiny_binary):
        train, test = train_test_split(tiny_binary, test_fraction=0.0)
        assert test.n_rows == 1
        train, test = train_test_split(tiny_binary, test_fraction=1.0)
        assert train.n_rows == 1

    def test_too_small(self, tiny_binary):
        with pytest.raises(ValueError):
            train_test_split(tiny_binary.slice(0, 1))


class TestEvaluateBundles:
    def test_classifier_report(self):
        from repro.core import train_columnsgd
        from repro.models import LogisticRegression
        from repro.optim import SGD
        from repro.sim import CLUSTER1, SimulatedCluster

        data = make_classification(1500, 200, nnz_per_row=10, seed=9)
        train, test = train_test_split(data, test_fraction=0.25, seed=9)
        result = train_columnsgd(
            train, LogisticRegression(), SGD(1.0),
            SimulatedCluster(CLUSTER1.with_workers(4)),
            batch_size=200, iterations=80, eval_every=0, block_size=256,
        )
        report = evaluate_classifier(LogisticRegression(), result.final_params, test)
        assert report["accuracy"] > 0.7
        assert report["auc"] > 0.75
        assert report["log_loss"] < np.log(2)

