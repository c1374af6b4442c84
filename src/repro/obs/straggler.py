"""Online straggler and abort-storm detection from push timing streams.

The straggler study of the parameter-server literature (see PAPERS.md)
identifies per-worker timing skew as *the* signal worth surfacing: a
straggler's pushes arrive at longer intervals than its peers', which
under SpecSync both wastes peer work (stale reads) and triggers abort
cascades.  :class:`StragglerDetector` flags workers whose mean push
interval is a z-score outlier against the population of per-worker
means; :class:`AbortStormDetector` watches the recent abort/push mix
for re-sync storms (aborts feeding aborts).

Both detectors are fed timestamps by the caller and never read a clock,
so on the DES substrate their reports are deterministic for a fixed
seed.  One caller builds and feeds them:
:func:`repro.obs.analysis.phases.detector_reports`, with the end of each
worker ``push`` span and each worker ``abort`` instant of a run.  It
serves ``repro analyze`` post hoc and ``repro top`` live, whose snapshot
is the analysis of the records delivered so far.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["StragglerDetector", "AbortStormDetector"]


class StragglerDetector:
    """Flags workers whose push intervals are z-score outliers.

    Per worker, the last ``window`` push intervals are retained; a worker
    with at least ``min_samples`` intervals whose mean interval sits more
    than ``z_threshold`` standard deviations *above* the population mean
    (slower than peers) is reported as a straggler.
    """

    def __init__(
        self,
        num_workers: int,
        window: int = 16,
        z_threshold: float = 2.0,
        min_samples: int = 3,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        self.num_workers = num_workers
        self.window = window
        self.z_threshold = z_threshold
        self.min_samples = min_samples
        self._last_push: Dict[int, float] = {}
        self._intervals: Dict[int, Deque[float]] = {
            w: deque(maxlen=window) for w in range(num_workers)
        }
        self.total_pushes = 0

    def record_push(self, worker_id: int, ts: float) -> Optional[float]:
        """Record a push from ``worker_id`` at ``ts``; returns the interval
        since that worker's previous push (None for its first push)."""
        self.total_pushes += 1
        previous = self._last_push.get(worker_id)
        self._last_push[worker_id] = ts
        if previous is None:
            return None
        interval = ts - previous
        # A worker id beyond the configured count (a replayed trace with
        # more workers than expected) gets a window on the fly rather
        # than crashing the feed; only ids < num_workers are z-scored.
        intervals = self._intervals.get(worker_id)
        if intervals is None:
            intervals = deque(maxlen=self.window)
            self._intervals[worker_id] = intervals
        intervals.append(interval)
        return interval

    def mean_interval(self, worker_id: int) -> Optional[float]:
        """Mean of the retained intervals for ``worker_id`` (None if too few)."""
        intervals = self._intervals.get(worker_id)
        if intervals is None or len(intervals) < self.min_samples:
            return None
        return sum(intervals) / len(intervals)

    def z_scores(self) -> Dict[int, float]:
        """Per-worker z-score of mean interval vs the population of means.

        Empty until at least two workers have ``min_samples`` intervals;
        all-zero when the population has no spread.
        """
        means = {
            worker: mean
            for worker in range(self.num_workers)
            if (mean := self.mean_interval(worker)) is not None
        }
        if len(means) < 2:
            return {}
        population = list(means.values())
        mu = sum(population) / len(population)
        variance = sum((m - mu) ** 2 for m in population) / len(population)
        sigma = math.sqrt(variance)
        # Zero-variance guard, relative to the population mean: workers
        # pushing at constant (or float-rounding-identical) intervals
        # have no spread to score against, and dividing by a denormal
        # sigma would manufacture huge z-scores (or NaN at exactly 0)
        # from noise far below timer resolution.
        if sigma <= abs(mu) * 1e-9:
            return {worker: 0.0 for worker in means}
        return {worker: (mean - mu) / sigma for worker, mean in means.items()}

    def stragglers(self) -> List[int]:
        """Worker ids currently flagged (z-score above threshold), sorted."""
        return sorted(
            worker
            for worker, z in self.z_scores().items()
            if z > self.z_threshold
        )

    def report(self) -> dict:
        """JSON-ready deterministic verdict: per-worker means/z-scores and
        the flagged straggler set."""
        z = self.z_scores()
        return {
            "num_workers": self.num_workers,
            "total_pushes": self.total_pushes,
            "z_threshold": self.z_threshold,
            "mean_intervals": {
                str(worker): mean
                for worker in range(self.num_workers)
                if (mean := self.mean_interval(worker)) is not None
            },
            "z_scores": {str(worker): z[worker] for worker in sorted(z)},
            "stragglers": self.stragglers(),
        }

    def __repr__(self) -> str:
        return (
            f"StragglerDetector(num_workers={self.num_workers}, "
            f"pushes={self.total_pushes}, stragglers={self.stragglers()})"
        )


class AbortStormDetector:
    """Flags abort storms: aborts dominating recent protocol activity.

    Keeps the last ``window`` protocol events (pushes and aborts); the
    storm flag raises when aborts make up at least ``ratio_threshold`` of
    the window *and* at least ``min_aborts`` aborts are present — the
    signature of re-syncs feeding further re-syncs rather than progress.
    """

    def __init__(
        self,
        window: int = 32,
        ratio_threshold: float = 0.5,
        min_aborts: int = 4,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 0 < ratio_threshold <= 1:
            raise ValueError(
                f"ratio_threshold must be in (0, 1], got {ratio_threshold}"
            )
        self.window = window
        self.ratio_threshold = ratio_threshold
        self.min_aborts = min_aborts
        #: recent protocol events: (timestamp, is_abort)
        self._events: Deque[tuple] = deque(maxlen=window)
        #: aborts among ``_events``, kept in step by ``_record``
        self._window_aborts = 0
        self.total_pushes = 0
        self.total_aborts = 0
        self.storm_count = 0
        self._in_storm = False

    def record_push(self, ts: float) -> None:
        """Record a successful push at ``ts``."""
        self.total_pushes += 1
        self._record(ts, False)

    def record_abort(self, ts: float) -> None:
        """Record an abort/re-sync at ``ts``."""
        self.total_aborts += 1
        self._record(ts, True)

    def _record(self, ts: float, is_abort: bool) -> None:
        events = self._events
        if len(events) == self.window and events[0][1]:
            self._window_aborts -= 1  # the append below evicts an abort
        events.append((ts, is_abort))
        self._window_aborts += is_abort
        storming = self.storming()
        if storming and not self._in_storm:
            self.storm_count += 1
        self._in_storm = storming

    def abort_ratio(self) -> Optional[float]:
        """Fraction of the windowed events that are aborts (None when empty)."""
        if not self._events:
            return None
        return self._window_aborts / len(self._events)

    def storming(self) -> bool:
        """True while the windowed abort ratio exceeds the threshold."""
        if self._window_aborts < self.min_aborts:
            return False
        return self._window_aborts / len(self._events) >= self.ratio_threshold

    def report(self) -> dict:
        """JSON-ready deterministic verdict: totals, windowed ratio, and
        how many distinct storms were entered."""
        return {
            "window": self.window,
            "ratio_threshold": self.ratio_threshold,
            "total_pushes": self.total_pushes,
            "total_aborts": self.total_aborts,
            "abort_ratio": self.abort_ratio(),
            "storming": self.storming(),
            "storm_count": self.storm_count,
        }

    def __repr__(self) -> str:
        return (
            f"AbortStormDetector(pushes={self.total_pushes}, "
            f"aborts={self.total_aborts}, storming={self.storming()})"
        )
