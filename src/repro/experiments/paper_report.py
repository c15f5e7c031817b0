"""Consolidated reproduction report.

Benchmarks drop one text block per artifact into
``benchmarks/results/``; this module stitches them into a single
ordered report (paper artifacts first, ablations after) so a reviewer
reads the whole reproduction top to bottom.  Exposed on the CLI as
``python -m repro report``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

#: Preferred ordering: the paper's artifacts in paper order, then extras.
ARTIFACT_ORDER = [
    "table1_paper_scale",
    "table1_validation",
    "table2_paper",
    "table2_scaled",
    "table3_learning_rates",
    "fig4a_convergence_vs_batch",
    "fig4b_time_vs_batch",
    "fig7_data_loading",
    "fig8_avazu_lr",
    "fig8_avazu_svm",
    "fig8_kddb_lr",
    "fig8_kddb_svm",
    "fig8_kdd12_lr",
    "fig8_kdd12_svm",
    "table4_analytic_paper_scale",
    "table4_simulated_scaled",
    "table5_fm_analytic",
    "table5_oom_demo",
    "fig9_stragglers",
    "fig9_gantt",
    "fig10_model_size",
    "fig11_cluster_size",
    "fig13_fault_tolerance",
    "fig13_ft_asymmetry",
]


def collect_results(results_dir) -> List[Path]:
    """Result files in report order (known artifacts first, then the
    rest alphabetically)."""
    results_dir = Path(str(results_dir))
    if not results_dir.is_dir():
        return []
    available = {p.stem: p for p in results_dir.glob("*.txt")}
    ordered = [available.pop(name) for name in ARTIFACT_ORDER if name in available]
    ordered.extend(available[name] for name in sorted(available))
    return ordered


#: Header line of the stitched report.
REPORT_TITLE = "ColumnSGD reproduction report"


def build_report(results_dir) -> str:
    """Concatenate all result blocks under one header."""
    parts = [REPORT_TITLE, "=" * len(REPORT_TITLE), ""]
    files = collect_results(results_dir)
    if not files:
        parts.append(
            "(no results found — run `pytest benchmarks/ --benchmark-only` first)"
        )
    for path in files:
        parts.append(path.read_text().strip())
        parts.append("")
    return "\n".join(parts)


def write_report(results_dir, output: Optional[str] = None) -> str:
    """Build the report and optionally persist it; returns the text."""
    text = build_report(results_dir)
    if output:
        Path(str(output)).write_text(text)
    return text
