"""Tests for experiment sweeps and dataset analysis utilities."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.datasets.analysis import (
    describe,
    feature_frequencies,
    label_distribution,
    popularity_skew,
    row_length_stats,
)
from repro.experiments import ExperimentSpec, run_system
from repro.sim import CLUSTER1


@pytest.fixture(scope="module")
def spec_and_data():
    data = make_classification(600, 300, nnz_per_row=8, seed=50, name="avazu")
    spec = ExperimentSpec(
        dataset="avazu", model="lr", batch_size=64, iterations=6,
        eval_every=3, learning_rate=1.0, cluster=CLUSTER1.with_workers(4),
        seed=50, explicit_data=data,
    )
    return spec, data


class TestSweeps:
    """One knob varied per run, through ``run_system`` on a derived spec."""

    def test_batch_size_sweep(self, spec_and_data):
        spec, data = spec_and_data
        results = {
            b: run_system(replace(spec, batch_size=b), "columnsgd", data)
            for b in (16, 128)
        }
        assert results[16].batch_size == 16
        assert results[128].batch_size == 128

    def test_worker_sweep(self, spec_and_data):
        spec, data = spec_and_data
        results = {
            k: run_system(
                replace(spec, cluster=spec.cluster.with_workers(k)), "columnsgd", data
            )
            for k in (2, 4)
        }
        assert results[2].n_workers == 2
        assert results[4].n_workers == 4

    def test_learning_rate_sweep_and_best(self, spec_and_data):
        spec, data = spec_and_data
        results = {
            lr: run_system(replace(spec, learning_rate=lr), "columnsgd", data)
            for lr in (1e-9, 1.0)
        }
        assert results[1.0].final_loss() < results[1e-9].final_loss()

    def test_sweep_does_not_mutate_spec(self, spec_and_data):
        spec, data = spec_and_data
        run_system(replace(spec, batch_size=16), "columnsgd", data)
        assert spec.batch_size == 64

    def test_best_rate_requires_evaluations(self, spec_and_data):
        spec, data = spec_and_data
        silent = replace(spec, eval_every=0)
        assert run_system(silent, "columnsgd", data).final_loss() is None


class TestAnalysis:
    def test_feature_frequencies_sum_to_nnz(self, tiny_binary):
        freq = feature_frequencies(tiny_binary)
        assert freq.sum() == tiny_binary.nnz
        assert freq.size == tiny_binary.n_features

    def test_label_distribution(self, tiny_binary):
        dist = label_distribution(tiny_binary)
        assert set(dist) == {-1.0, 1.0}
        assert sum(dist.values()) == tiny_binary.n_rows

    def test_row_length_stats(self, tiny_binary):
        stats = row_length_stats(tiny_binary)
        assert stats["min"] >= 1
        assert stats["min"] <= stats["median"] <= stats["max"]

    def test_popularity_skew_uniform_vs_zipf(self):
        uniform = make_classification(800, 300, nnz_per_row=8,
                                      zipf_exponent=0.0, seed=51)
        zipf = make_classification(800, 300, nnz_per_row=8,
                                   zipf_exponent=1.4, seed=51)
        assert popularity_skew(zipf) > 2 * popularity_skew(uniform)

    def test_describe_render(self, tiny_binary):
        report = describe(tiny_binary)
        text = report.render()
        assert "rows" in text
        assert "{:,}".format(tiny_binary.nnz) in text
        assert report.head1pct_share <= 1.0
