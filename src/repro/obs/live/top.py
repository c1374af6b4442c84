"""``repro top`` — the live view: the ``repro analyze`` report of what
the rings have delivered so far, refreshed.

This module owns everything the CLI command needs except the clock: the
frame renderer over :meth:`TelemetryAggregator.snapshot` (one header
line over :func:`~repro.obs.analysis.render_analysis_text`) and the
refresh loop.  It reads live rings only; a finished run's trace file is
read by ``repro analyze``.

Determinism: ``repro.obs`` is inside the determinism lint zone, so no
wall clock or sleep is read here — ``repro.cli`` injects ``now_fn`` and
``sleep_fn``.  Given the same record stream and the same injected
timestamps, the dashboard output is reproducible.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.obs.analysis.report import render_analysis_text
from repro.obs.live.aggregate import TelemetryAggregator

__all__ = ["render_frame", "run_dashboard"]

#: ANSI: clear screen + cursor home (the refresh between frames).
_CLEAR = "\x1b[2J\x1b[H"


def render_frame(snapshot: dict) -> str:
    """One refresh: a header line, then the analysis report."""
    totals = snapshot["totals"]
    return (
        f"repro top — live telemetry ({totals['records']} records, "
        f"{totals['dropped_records']} dropped)\n"
        + render_analysis_text(snapshot)
    )


def run_dashboard(
    aggregator: TelemetryAggregator,
    *,
    now_fn: Callable[[], float],
    sleep_fn: Callable[[float], None],
    write: Callable[[str], None],
    interval_s: float = 1.0,
    duration_s: Optional[float] = None,
    once: bool = False,
    as_json: bool = False,
    clear_screen: bool = True,
    stop_when: Optional[Callable[[], bool]] = None,
) -> dict:
    """Poll + render until the duration elapses (or ``stop_when`` fires).

    Returns the final snapshot (what ``--json`` prints).  With ``once``
    the aggregator is polled a single time and one frame is emitted —
    the CI/scripting mode.  A snapshot analyses every record retained so
    far, so ``--json`` takes only the last one.
    """
    started = now_fn()
    while True:
        now = now_fn()
        aggregator.poll()
        done = (
            once
            or (duration_s is not None and now - started >= duration_s)
            or (stop_when is not None and stop_when())
        )
        if done or not as_json:
            snapshot = aggregator.snapshot()
            if as_json:
                write(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
            else:
                frame = render_frame(snapshot)
                if clear_screen and not once:
                    frame = _CLEAR + frame
                write(frame + "\n")
        if done:
            return snapshot
        sleep_fn(interval_s)
