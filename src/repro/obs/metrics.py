"""A small metrics registry: named counters, gauges, and histograms.

Instruments are created lazily by name and live for the length of one
collection (a run, an experiment).  The registry is shared between the
DES and the runtime backends, so instrument *creation* is guarded by a
lock; single increments/observations are intentionally plain attribute
updates — under CPython's GIL an occasional lost increment from two
racing runtime threads is acceptable for telemetry, and the DES path is
single-threaded anyway.

Snapshots are deterministic: instruments render sorted by name, so a
seeded DES run produces byte-identical metric reports.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "summary_stats"]

#: Default histogram bucket upper bounds (seconds-flavored but unitless):
#: covers microseconds to hours with ~3 buckets per decade.
_DEFAULT_BUCKETS = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
    for base in (1.0, 2.5, 5.0)
)


class Counter:
    """A monotonically increasing named value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease: {amount}")
        self.value += amount

    def snapshot(self) -> float:
        """Current value."""
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value:g})"


class Gauge:
    """A named value that may move in either direction (queue depth, rate)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def snapshot(self) -> float:
        """Current value."""
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value:g})"


class Histogram:
    """Aggregates observations: count/sum/min/max, exact percentiles, buckets.

    ``observe`` keeps the running count, left-to-right sum, min and max,
    retains the raw value and bumps one bucket found by bisection (the
    first bound with ``value <= bound``; past the last bound, and NaN,
    land in the overflow bucket).  ``snapshot`` derives the rest: the mean
    from the running sum, and *exact* nearest-rank p50/p90/p99 from one
    sort of the retained values rather than bucket-interpolated estimates
    — collections here are bounded by one run's instrumentation volume,
    which keeps retaining them affordable.
    """

    def __init__(self, name: str, buckets: Optional[tuple] = None) -> None:
        self.name = name
        self.bounds = tuple(buckets) if buckets is not None else _DEFAULT_BUCKETS
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self._values.append(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # NaN compares false against every bound: overflow, not bucket 0.
        index = bisect_left(self.bounds, value) if value == value else -1
        self.bucket_counts[index] += 1

    @property
    def mean(self) -> Optional[float]:
        """Mean of all observations (None when empty)."""
        if self.count == 0:
            return None
        return self.total / self.count

    def percentile(self, q: float) -> Optional[float]:
        """Exact nearest-rank percentile ``q`` in [0, 100] (None when empty)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return _nearest_rank(sorted(self._values), q)

    def snapshot(self) -> dict:
        """Aggregate view: count/sum/min/max/mean, p50/p90/p99, non-empty buckets.

        ``buckets`` maps the upper bound (``"+inf"`` for overflow) to its
        count, listing only non-empty buckets so snapshots stay compact.
        """
        buckets: Dict[str, int] = {}
        for index, bound in enumerate(self.bounds):
            if self.bucket_counts[index]:
                buckets[f"{bound:g}"] = self.bucket_counts[index]
        if self.bucket_counts[-1]:
            buckets["+inf"] = self.bucket_counts[-1]
        ordered = sorted(self._values)
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": _nearest_rank(ordered, 50),
            "p90": _nearest_rank(ordered, 90),
            "p99": _nearest_rank(ordered, 99),
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean})"


def _nearest_rank(ordered: List[float], q: float) -> Optional[float]:
    """The ``q``-th nearest-rank percentile of sorted values (None when empty)."""
    if not ordered:
        return None
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def summary_stats(values: List[float], percentiles: Tuple[int, ...]) -> Dict[str, object]:
    """count/mean/max plus ``p<q>`` for each ``q``, by the :class:`Histogram`'s
    exact nearest-rank rule; every value but the count is None when empty."""
    ordered = sorted(values)
    count = len(ordered)
    stats: Dict[str, object] = {
        "count": count, "mean": sum(ordered) / count if count else None,
    }
    for q in percentiles:
        stats[f"p{q}"] = _nearest_rank(ordered, q)
    stats["max"] = ordered[-1] if count else None
    return stats


class MetricsRegistry:
    """Lazily-created named instruments with a deterministic snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram(name))
        return histogram

    def snapshot(self) -> dict:
        """All instruments, sorted by name — JSON-ready and deterministic."""
        return {
            "counters": {
                name: self._counters[name].snapshot()
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].snapshot()
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    def render_text(self) -> str:
        """Human-readable snapshot: counters, then gauges, then histograms,
        each section alphabetical — stable-ordered for golden comparisons."""
        lines: List[str] = []
        snap = self.snapshot()
        for name, value in snap["counters"].items():
            lines.append(f"counter   {name} = {value:g}")
        for name, value in snap["gauges"].items():
            lines.append(f"gauge     {name} = {value:g}")
        for name, agg in snap["histograms"].items():
            mean = f"{agg['mean']:.6g}" if agg["mean"] is not None else "-"
            p50 = f"{agg['p50']:.6g}" if agg["p50"] is not None else "-"
            p99 = f"{agg['p99']:.6g}" if agg["p99"] is not None else "-"
            lines.append(
                f"histogram {name}: count={agg['count']} mean={mean} "
                f"p50={p50} p99={p99} min={agg['min']} max={agg['max']}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
