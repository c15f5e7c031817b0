"""Tests for cluster presets and the consolidated report builder."""

import pytest

from repro.experiments import build_report, collect_results, write_report
from repro.experiments.paper_report import ARTIFACT_ORDER
from repro.sim import CROSS_AZ, EDGE, MODERN_RACK, PRESETS, SimulatedCluster


class TestPresets:
    def test_all_presets_valid_specs(self):
        for name, spec in PRESETS.items():
            cluster = SimulatedCluster(spec)
            assert cluster.n_workers == spec.n_workers
            assert cluster.network.bandwidth > 0

    def test_lookup(self):
        assert PRESETS["modern-rack"] is MODERN_RACK
        assert PRESETS["cross-az"] is CROSS_AZ
        assert "gpu-pod" not in PRESETS

    def test_presets_span_the_design_space(self):
        assert MODERN_RACK.bandwidth_bytes_per_s > 50 * EDGE.bandwidth_bytes_per_s
        assert CROSS_AZ.latency_s > 5 * MODERN_RACK.latency_s

    def test_training_runs_on_every_preset(self, tiny_binary):
        from repro.core import train_columnsgd
        from repro.models import LogisticRegression
        from repro.optim import SGD

        for name in ("modern-rack", "cross-az", "edge"):
            cluster = SimulatedCluster(PRESETS[name])
            result = train_columnsgd(
                tiny_binary, LogisticRegression(), SGD(0.5), cluster,
                batch_size=32, iterations=3, eval_every=0, block_size=64,
            )
            assert result.n_iterations == 3


class TestReport:
    def seed_results(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig7_data_loading.txt").write_text("=== fig7 ===\nstuff\n")
        (results / "table1_paper_scale.txt").write_text("=== t1 ===\nstuff\n")
        (results / "ablation_custom.txt").write_text("=== custom ===\nstuff\n")
        return results

    def test_collect_orders_paper_artifacts_first(self, tmp_path):
        results = self.seed_results(tmp_path)
        names = [p.stem for p in collect_results(results)]
        assert names == ["table1_paper_scale", "fig7_data_loading", "ablation_custom"]

    def test_build_report_includes_everything(self, tmp_path):
        results = self.seed_results(tmp_path)
        text = build_report(results)
        for token in ("reproduction report", "=== t1 ===", "=== custom ==="):
            assert token in text

    def test_empty_results_dir(self, tmp_path):
        assert "no results found" in build_report(tmp_path / "nope")

    def test_write_report(self, tmp_path):
        results = self.seed_results(tmp_path)
        out = tmp_path / "REPORT.txt"
        text = write_report(results, output=out)
        assert out.read_text() == text

    def test_artifact_order_has_no_duplicates(self):
        assert len(ARTIFACT_ORDER) == len(set(ARTIFACT_ORDER))

    def test_real_results_report_when_present(self):
        import pathlib

        results = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
        if not results.is_dir():
            pytest.skip("benchmarks not yet run")
        text = build_report(results)
        assert "table1" in text
