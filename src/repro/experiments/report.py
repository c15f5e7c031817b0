"""ASCII rendering of results: tables and loss curves.

Every benchmark prints through these helpers so ``bench_output.txt``
reads like the paper's tables and figures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.results import TrainingResult
from repro.utils.format import ascii_table, format_duration


def iteration_time_table(results: Dict[str, TrainingResult]) -> str:
    """Table IV/V style: per-iteration seconds + speedup vs ColumnSGD."""
    ref_key = _find_key(results, "columnsgd")
    ref = results[ref_key].avg_iteration_seconds() if ref_key else None
    rows = []
    for name, result in results.items():
        seconds = result.avg_iteration_seconds()
        speedup = "-"
        if ref and name != ref_key and seconds > 0:
            speedup = "{:.1f}x".format(seconds / ref)
        rows.append((result.system, "{:.4f}".format(seconds), speedup))
    return ascii_table(["system", "per-iteration (s)", "vs ColumnSGD"], rows)


def convergence_table(results: Dict[str, TrainingResult], threshold: float) -> str:
    """Fig 8's horizontal-line comparison: time to reach a target loss."""
    rows = []
    for name, result in results.items():
        reached = result.time_to_loss(threshold)
        rows.append(
            (
                result.system,
                "{:.4f}".format(result.final_loss()) if result.final_loss() is not None else "n/a",
                format_duration(reached) if reached is not None else "never",
            )
        )
    return ascii_table(
        ["system", "final loss", "time to loss<={:g}".format(threshold)], rows
    )


def loss_series(result: TrainingResult, max_points: int = 12) -> str:
    """Compact ``t=...s loss=...`` series for one run."""
    points = result.losses()
    if len(points) > max_points:
        step = max(1, len(points) // max_points)
        points = points[::step] + [points[-1]]
    return " ".join(
        "({}, {:.4f})".format(format_duration(t), loss) for _, t, loss in points
    )


def render_curve(
    values: Sequence[float], width: int = 60, height: int = 12, label: str = ""
) -> str:
    """Plain-ASCII line chart (loss curves in bench output)."""
    values = [float(v) for v in values]
    if not values:
        return "(no data)"
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    grid = [[" "] * width for _ in range(height)]
    n = len(values)
    for i, v in enumerate(values):
        x = int(i * (width - 1) / max(n - 1, 1))
        y = int((hi - v) / span * (height - 1))
        grid[y][x] = "*"
    lines: List[str] = []
    for r, row in enumerate(grid):
        edge = "{:>10.4f} |".format(hi - r * span / (height - 1)) if r % 3 == 0 else "           |"
        lines.append(edge + "".join(row))
    lines.append("           +" + "-" * width)
    if label:
        lines.append("            " + label)
    return "\n".join(lines)


def _find_key(results: Dict[str, TrainingResult], reference: str):
    for key in results:
        if key.lower() == reference.lower():
            return key
    return None
