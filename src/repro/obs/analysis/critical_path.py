"""Critical-path extraction and time attribution.

The attribution model walks one worker track over the run window and
classifies every second into exactly one category, so the categories
always sum to the walked window (the acceptance invariant ``repro
analyze`` is tested against):

* ``compute`` — clean (un-aborted) gradient computation;
* ``network`` — pull and push spans (wire time + server service);
* ``abort_wasted_work`` — the head of an aborted compute span, up to the
  moment the scheduler decided to re-sync: speculation's sunk cost;
* ``scheduler_decision`` — the tail of an aborted compute span between
  the re-sync decision and the abort landing on the worker (decision
  latency + control-message flight), recovered from the decision flow
  arrow (``args.decision``) the scheduler stages;
* ``sync_wait`` — everything else: barrier/bound parking, pull-delay
  gating, and the tail after a worker's last event (an in-flight
  iteration cut off by the horizon emits no span).

The *critical path* walks the track that determined the makespan (the
worker whose last event ends latest); :func:`per_worker_breakdown` runs
the same walk on every worker for the covering decomposition.  Per-epoch
splits clip the attributed pieces at the scheduler's ``epoch_retuned``
instants.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.obs.analysis.graph import TS_TOLERANCE, AnalyzedSpan, RunSegment

__all__ = ["ATTRIBUTION_CATEGORIES", "critical_path", "per_worker_breakdown"]

#: Every attributed second lands in exactly one of these.
ATTRIBUTION_CATEGORIES = (
    "compute",
    "network",
    "sync_wait",
    "scheduler_decision",
    "abort_wasted_work",
)

#: leaf span names attributed as wire/server time
_NETWORK_SPANS = frozenset({"pull", "push"})


def _decision_times(run: RunSegment) -> Dict[Tuple[str, float], float]:
    """(dst_track, rounded abort ts) → scheduler decision time.

    The scheduler stages one flow origin per re-sync decision
    (``args.decision``), closed at the abort point, so every honoured
    abort has exactly one arrow; its source timestamp is when the
    scheduler committed to the re-sync.
    """
    decisions: Dict[Tuple[str, float], float] = {}
    for flow in run.flows:
        if flow.args.get("decision"):
            decisions[(flow.dst_track, round(flow.dst_ts, 7))] = flow.src_ts
    return decisions


def _decision_for(
    decisions: Dict[Tuple[str, float], float], span: AnalyzedSpan
) -> Optional[float]:
    exact = decisions.get((span.track, round(span.end, 7)))
    if exact is not None:
        return exact
    for (track, ts), decided in decisions.items():
        if track == span.track and abs(ts - span.end) <= TS_TOLERANCE:
            return decided
    return None


def _walk_track(
    spans: List[AnalyzedSpan],
    window: Tuple[float, float],
    decisions: Dict[Tuple[str, float], float],
) -> List[Tuple[str, float, float]]:
    """Attribute ``window`` over a track's leaf spans.

    Returns ``(category, start, end)`` pieces that tile the window
    exactly: gaps become ``sync_wait``, overlaps are clipped (the DES
    never overlaps spans on one track; clipping keeps synthetic traces
    from double-counting).
    """
    start, end = window
    pieces: List[Tuple[str, float, float]] = []
    cursor = start
    for span in spans:
        if span.cat == "iteration" or span.name == "iteration":
            continue  # container span: its children are the leaves
        piece_start = max(span.start, cursor)
        piece_end = min(span.end, end)
        if piece_end <= piece_start:
            continue
        if piece_start > cursor:
            pieces.append(("sync_wait", cursor, piece_start))
        if span.name in _NETWORK_SPANS:
            pieces.append(("network", piece_start, piece_end))
        elif span.name == "compute" and span.args.get("aborted"):
            decided = _decision_for(decisions, span)
            if decided is None or decided <= piece_start:
                pieces.append(("abort_wasted_work", piece_start, piece_end))
            elif decided >= piece_end:
                pieces.append(("abort_wasted_work", piece_start, piece_end))
            else:
                pieces.append(("abort_wasted_work", piece_start, decided))
                pieces.append(("scheduler_decision", decided, piece_end))
        elif span.name == "compute":
            pieces.append(("compute", piece_start, piece_end))
        else:
            # unknown leaf span (future instrumentation): count it as
            # compute-side busy time rather than dropping the interval
            pieces.append(("compute", piece_start, piece_end))
        cursor = max(cursor, piece_end)
    if cursor < end:
        pieces.append(("sync_wait", cursor, end))
    return pieces


def _aggregate(
    pieces: List[Tuple[str, float, float]],
) -> Dict[str, float]:
    totals = {category: 0.0 for category in ATTRIBUTION_CATEGORIES}
    for category, start, end in pieces:
        totals[category] += end - start
    return totals


def _aggregate_by_epoch(
    pieces: List[Tuple[str, float, float]], edges: List[float]
) -> List[Dict[str, float]]:
    """Distribute pieces over the epoch windows ``edges`` in one pass.

    A per-epoch clip-and-rescan is quadratic when the tuner retunes
    thousands of times; here each piece is bisected to its first epoch
    and split forward only as far as it actually extends.
    """
    totals = [
        {category: 0.0 for category in ATTRIBUTION_CATEGORIES}
        for _ in range(len(edges) - 1)
    ]
    last = len(edges) - 2
    for category, start, end in pieces:
        index = min(max(bisect.bisect_right(edges, start) - 1, 0), last)
        while index <= last and edges[index] < end:
            lo = max(start, edges[index])
            hi = min(end, edges[index + 1])
            if hi > lo:
                totals[index][category] += hi - lo
            index += 1
    return totals


def _epoch_boundaries(run: RunSegment, window: Tuple[float, float]) -> List[float]:
    """Epoch split points: the scheduler's retune instants inside the window."""
    times = sorted(
        i.ts for i in run.named_instants("epoch_retuned")
        if window[0] < i.ts < window[1]
    )
    return times


def _critical_track(run: RunSegment) -> Optional[str]:
    """The worker track whose last leaf event ends latest (makespan)."""
    best: Optional[Tuple[float, int]] = None
    best_track: Optional[str] = None
    for order, track in enumerate(run.worker_tracks()):
        spans = [
            s for s in run.track_spans(track)
            if not (s.cat == "iteration" or s.name == "iteration")
        ]
        if not spans:
            continue
        last_end = max(s.end for s in spans)
        # later end wins; ties go to the earlier worker id for determinism
        key = (last_end, -order)
        if best is None or key > best:
            best = key
            best_track = track
    return best_track


def critical_path(run: RunSegment) -> Dict[str, object]:
    """Attribute the run window along the makespan-determining worker.

    The ``by_category`` seconds sum to ``total_s`` exactly (modulo float
    addition); ``epochs`` re-aggregates the same pieces between the
    scheduler's retune instants.
    """
    track = _critical_track(run)
    window = run.window()
    if track is None:
        return {
            "track": None,
            "total_s": 0.0,
            "by_category": {c: 0.0 for c in ATTRIBUTION_CATEGORIES},
            "epochs": [],
        }
    decisions = _decision_times(run)
    pieces = _walk_track(run.track_spans(track), window, decisions)
    boundaries = _epoch_boundaries(run, window)
    edges = [window[0]] + boundaries + [window[1]]
    epochs = [
        {
            "epoch": epoch_index,
            "start_s": edges[epoch_index],
            "end_s": edges[epoch_index + 1],
            "by_category": by_category,
        }
        for epoch_index, by_category in enumerate(
            _aggregate_by_epoch(pieces, edges)
        )
    ]
    return {
        "track": track,
        "total_s": window[1] - window[0],
        "by_category": _aggregate(pieces),
        "epochs": epochs,
    }


def per_worker_breakdown(run: RunSegment) -> Dict[str, Dict[str, object]]:
    """The same attribution walk on every worker track (covering view)."""
    window = run.window()
    decisions = _decision_times(run)
    breakdown: Dict[str, Dict[str, object]] = {}
    for track in run.worker_tracks():
        pieces = _walk_track(run.track_spans(track), window, decisions)
        breakdown[track] = {
            "total_s": window[1] - window[0],
            "by_category": _aggregate(pieces),
        }
    return breakdown
