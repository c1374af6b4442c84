"""Worker-loop phase percentiles and straggler / abort-storm verdicts,
derived from the worker spans and instants a trace already holds.

Phases: the duration of every worker-track ``pull``, ``compute``,
``push`` and ``iteration`` span, with a ``compute`` span that carries
``aborted: true`` counted as ``compute_aborted``.  Server tracks reuse
the names ``pull`` and ``push``, so only worker tracks count.

Detectors: the :mod:`repro.obs.straggler` pair, fed in time order — the
end of each worker ``push`` span goes to both detectors, each worker
``abort`` instant to the abort-storm detector.  This is the only place
they are built: ``repro top``'s live snapshot is this same analysis of
the records delivered so far, so a live view and a post-hoc analysis
judge the same events.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.analysis.graph import WORKER_TRACK_RE, RunSegment
from repro.obs.metrics import summary_stats
from repro.obs.straggler import AbortStormDetector, StragglerDetector

__all__ = ["PHASES", "phase_stats", "detector_reports"]

#: The worker-loop phases, in loop order.
PHASES = ("pull", "compute", "compute_aborted", "push", "iteration")


def phase_stats(run: RunSegment) -> Dict[str, dict]:
    """count/mean/p50/p90/p99/max seconds of each of :data:`PHASES`."""
    durations: Dict[str, List[float]] = {name: [] for name in PHASES}
    workers = set(run.worker_tracks())
    for span in run.spans:
        if span.track in workers:
            name = span.name
            if name == "compute" and span.args.get("aborted"):
                name = "compute_aborted"
            if name in durations:
                durations[name].append(span.end - span.start)
    return {
        name: summary_stats(values, (50, 90, 99))
        for name, values in durations.items()
    }


def detector_reports(run: RunSegment) -> Dict[str, dict]:
    """The straggler and abort-storm verdicts over the run's worker events.

    The worker count is the run's ``workers`` metadata, or else the
    number of worker tracks.
    """
    tracks = run.worker_tracks()
    worker_of = {track: int(WORKER_TRACK_RE.match(track).group(1)) for track in tracks}
    #: (ts, worker, is_abort), sorted into the order the detectors see
    feed: List[Tuple[float, int, bool]] = [
        (span.end, worker_of[span.track], False)
        for span in run.spans
        if span.name == "push" and span.track in worker_of
    ]
    feed.extend(
        (instant.ts, worker_of[instant.track], True)
        for instant in run.named_instants("abort")
        if instant.track in worker_of
    )
    feed.sort()
    num_workers = run.meta.get("workers")
    if not isinstance(num_workers, int) or num_workers < 1:
        num_workers = max(len(tracks), 1)
    straggler = StragglerDetector(num_workers)
    abort_storm = AbortStormDetector()
    for ts, worker, is_abort in feed:
        if is_abort:
            abort_storm.record_abort(ts)
        else:
            straggler.record_push(worker, ts)
            abort_storm.record_push(ts)
    return {"straggler": straggler.report(), "abort_storm": abort_storm.report()}
