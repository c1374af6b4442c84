"""``repro top`` — the live telemetry dashboard (render + refresh loop).

This module owns everything the CLI command needs except the clock: the
text renderer over :meth:`TelemetryAggregator.snapshot` and the refresh
loop.  It reads live rings only; a finished run's trace file is read by
``repro analyze``.

Determinism: ``repro.obs`` is inside the determinism lint zone, so no
wall clock or sleep is read here — ``repro.cli`` injects ``now_fn`` and
``sleep_fn``.  Given the same record stream and the same injected
timestamps, the dashboard output is reproducible.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional

from repro.obs.live.aggregate import TelemetryAggregator
from repro.utils.tables import TextTable

__all__ = ["render_dashboard", "run_dashboard"]

#: ANSI: clear screen + cursor home (the refresh between frames).
_CLEAR = "\x1b[2J\x1b[H"


def _fmt(value: Optional[float], pattern: str = "{:.2f}") -> str:
    return "-" if value is None else pattern.format(value)


def render_dashboard(snapshot: dict) -> str:
    """The refreshing terminal view over one aggregator snapshot."""
    totals = snapshot.get("totals", {})
    lines: List[str] = [
        "repro top — live telemetry "
        f"({totals.get('records', 0)} records, "
        f"{totals.get('dropped_records', 0)} dropped)",
        "",
    ]

    workers = snapshot.get("workers", {})
    table = TextTable(
        ["worker", "iters", "rate/s", "aborts", "staleness", "seen(s)"],
        title="workers",
    )
    for worker_id in sorted(workers, key=int):
        entry = workers[worker_id]
        table.add_row([
            worker_id,
            str(entry.get("iterations", 0)),
            _fmt(entry.get("rate_per_s")),
            str(entry.get("aborts", 0)),
            _fmt(entry.get("staleness"), "{:.1f}"),
            _fmt(entry.get("last_seen_s_ago")),
        ])
    lines.append(table.render())

    phases = snapshot.get("phases", {})
    if phases:
        phase_table = TextTable(
            ["phase", "count", "total s"], title="phase breakdown"
        )
        for name, entry in phases.items():
            phase_table.add_row([
                name, str(entry["count"]), f"{entry['total_s']:.3f}",
            ])
        lines.append("")
        lines.append(phase_table.render())

    gauges = snapshot.get("gauges", {})
    if gauges:
        gauge_table = TextTable(["source", "gauge", "value"], title="gauges")
        for source, values in gauges.items():
            for name, value in values.items():
                gauge_table.add_row([source, name, f"{value:g}"])
        lines.append("")
        lines.append(gauge_table.render())

    detectors = snapshot.get("detectors", {})
    straggler = detectors.get("straggler", {})
    storm = detectors.get("abort_storm", {})
    lines.append("")
    lines.append(
        "detectors: stragglers="
        + (str(straggler.get("stragglers", [])) or "[]")
        + f" | abort_storm storming={storm.get('storming', False)}"
        + f" storms={storm.get('storm_count', 0)}"
        + f" ratio={_fmt(storm.get('abort_ratio'))}"
    )

    rings = snapshot.get("rings", {})
    if rings:
        ring_bits = ", ".join(
            f"{source}: {stats['pushed']} pushed/{stats['dropped']} dropped"
            for source, stats in rings.items()
        )
        lines.append(f"rings: {ring_bits}")
    return "\n".join(lines)


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
    the CI/scripting mode.
    """
    started = now_fn()
    while True:
        now = now_fn()
        aggregator.poll(now)
        snapshot = aggregator.snapshot(now)
        done = (
            once
            or (duration_s is not None and now - started >= duration_s)
            or (stop_when is not None and stop_when())
        )
        if not as_json:
            frame = render_dashboard(snapshot)
            if clear_screen and not once:
                frame = _CLEAR + frame
            write(frame + "\n")
        if done:
            if as_json:
                write(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
            return snapshot
        sleep_fn(interval_s)
