"""Experiment harness: uniform runners and report rendering.

Thin glue between the trainers and the ``benchmarks/`` scripts: build a
system, run it on a profile's synthetic stand-in, collect
:class:`~repro.core.results.TrainingResult` objects, and render the
paper's tables/series as ASCII.
"""

from repro.experiments.runner import (
    ExperimentSpec,
    run_system,
    run_comparison,
)
from repro.experiments.report import (
    convergence_table,
    iteration_time_table,
    loss_series,
    render_curve,
)
from repro.experiments.gantt import (
    fault_timeline,
    render_engine_trace,
    render_iteration_gantt,
)
from repro.experiments.paper_report import build_report, collect_results, write_report

__all__ = [
    "ExperimentSpec",
    "run_system",
    "run_comparison",
    "convergence_table",
    "iteration_time_table",
    "loss_series",
    "render_curve",
    "fault_timeline",
    "render_engine_trace",
    "render_iteration_gantt",
    "build_report",
    "collect_results",
    "write_report",
]
