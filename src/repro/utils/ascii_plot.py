"""Terminal line plots for learning curves and transfer series.

The experiment renderers use these to show curve *shapes* (the paper's
figures) without a plotting dependency: a fixed-size character grid with
axis labels, supporting multiple named series.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["ascii_plot"]

_SERIES_MARKS = "*+ox#@%&"


def ascii_plot(
    series: Dict[str, List[Tuple[float, float]]],
    width: int = 72,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named (x, y) series on one character grid.

    Each series gets a distinct mark; a legend maps marks to names.  Points
    are nearest-cell rasterized; later series overwrite earlier ones where
    they collide (acceptable for shape comparison).

    >>> plot = ascii_plot({"loss": [(0, 2.0), (1, 1.0), (2, 0.5)]}, width=12, height=4)
    >>> plot.splitlines()[3]
    ' 0.5|           *'
    >>> plot.splitlines()[-1].strip()
    '* = loss'
    """
    if not series:
        raise ValueError("need at least one series")
    if width < 10 or height < 4:
        raise ValueError("plot area too small")

    all_points = [p for pts in series.values() for p in pts]
    if not all_points:
        raise ValueError("series contain no points")
    xs = [x for x, _ in all_points]
    ys = [y for _, y in all_points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, points) in enumerate(series.items()):
        mark = _SERIES_MARKS[idx % len(_SERIES_MARKS)]
        for x, y in points:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = mark

    lines = []
    top_label = f"{y_hi:.4g}"
    bottom_label = f"{y_lo:.4g}"
    margin = max(len(top_label), len(bottom_label), len(y_label)) + 1
    for row_idx, row in enumerate(grid):
        if row_idx == 0:
            prefix = top_label.rjust(margin)
        elif row_idx == height - 1:
            prefix = bottom_label.rjust(margin)
        elif row_idx == height // 2:
            prefix = y_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(prefix + "|" + "".join(row))
    lines.append(" " * margin + "+" + "-" * width)
    x_axis = f"{x_lo:.4g}".ljust(width - 12) + f"{x_hi:.4g} {x_label}"
    lines.append(" " * (margin + 1) + x_axis)
    legend = "   ".join(
        f"{_SERIES_MARKS[i % len(_SERIES_MARKS)]} = {name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)
