"""The low-overhead deterministic profiler: phases, hot-path counters, series.

Mirrors the tracer's design (see :mod:`repro.obs.core`):

1. **Disabled is free.**  ``profiler_for`` hands out the shared
   :data:`NULL_PROFILER` while no collector is enabled; every method on
   it is an empty body, and sites that would build expensive arguments
   guard on ``profiler.enabled`` first.
2. **Clock-agnostic.**  A :class:`Profiler` is bound to a
   :class:`~repro.obs.clock.Clock` — a ``VirtualClock`` inside the DES
   (phase durations in virtual seconds, fully deterministic) or an
   injected wall clock in the runtime backends.  This module itself
   never reads a clock, so it stays inside the determinism lint zone.
3. **Deterministic snapshots.**  :class:`PerfProfile` renders sorted by
   name with exact percentiles, so two identical seeded DES runs produce
   byte-identical perf snapshots.

Phase durations land in :class:`~repro.obs.metrics.Histogram` instances
(p50/p90/p99 in every snapshot), hot paths in ``Counter``s, per-worker
signals in :class:`~repro.obs.timeseries.WindowedSeries`, and detector
verdicts in free-form ``reports``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Union

from repro.obs.clock import Clock
from repro.obs.metrics import Counter, Histogram
from repro.obs.timeseries import WindowedSeries

__all__ = [
    "PERF_SCHEMA_VERSION",
    "PerfProfile",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "profiler_for",
]

#: Version stamp embedded in every perf snapshot so downstream consumers
#: (``repro analyze``, the bench compare gate) can detect drift.
PERF_SCHEMA_VERSION = 1


class PerfProfile:
    """The shared perf sink: phase histograms, counters, series, reports.

    One profile spans one collection (it lives on the
    :class:`~repro.obs.core.TraceCollector`); profilers for any number
    of clocks feed it.  Instrument creation is lock-guarded like the
    metrics registry; recording is plain attribute updates.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._phases: Dict[str, Histogram] = {}
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, WindowedSeries] = {}
        #: free-form named payloads (detector verdicts), JSON-ready
        self.reports: Dict[str, dict] = {}

    def phase(self, name: str) -> Histogram:
        """The phase-duration histogram named ``name``, created on first use."""
        phase = self._phases.get(name)
        if phase is None:
            with self._lock:
                phase = self._phases.setdefault(name, Histogram(name))
        return phase

    def counter(self, name: str) -> Counter:
        """The hot-path counter named ``name``, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def series(self, name: str, window: int = 256) -> WindowedSeries:
        """The windowed series named ``name``, created on first use."""
        series = self._series.get(name)
        if series is None:
            with self._lock:
                series = self._series.setdefault(
                    name, WindowedSeries(name, window=window)
                )
        return series

    def add_report(self, name: str, payload: dict) -> None:
        """Attach a named JSON-ready payload (e.g. a detector verdict)."""
        self.reports[name] = payload

    @property
    def empty(self) -> bool:
        """True when nothing has been recorded."""
        return not (
            self._phases or self._counters or self._series or self.reports
        )

    def snapshot(self) -> dict:
        """All perf data, sorted by name — JSON-ready and deterministic."""
        return {
            "schema_version": PERF_SCHEMA_VERSION,
            "phases": {
                name: self._phases[name].snapshot()
                for name in sorted(self._phases)
            },
            "counters": {
                name: self._counters[name].snapshot()
                for name in sorted(self._counters)
            },
            "series": {
                name: self._series[name].snapshot()
                for name in sorted(self._series)
            },
            "reports": {
                name: self.reports[name] for name in sorted(self.reports)
            },
        }

    def __repr__(self) -> str:
        return (
            f"PerfProfile(phases={len(self._phases)}, "
            f"counters={len(self._counters)}, series={len(self._series)}, "
            f"reports={len(self.reports)})"
        )


class _PhaseScope:
    """Context manager timing a lexically-scoped phase (wall backends)."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseScope":
        self._start = self._profiler.clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler.phase(self._name, start=self._start)
        return False


class Profiler:
    """A clock-bound handle onto a :class:`PerfProfile`."""

    #: instrumentation sites may guard expensive argument construction
    enabled = True

    def __init__(self, profile: PerfProfile, clock: Clock) -> None:
        self.profile = profile
        self.clock = clock

    def phase(self, name: str, start: float, end: Optional[float] = None) -> None:
        """Record one ``[start, end]`` phase duration (``end`` defaults to now)."""
        stop = self.clock.now() if end is None else end
        self.profile.phase(name).observe(stop - start)

    def measure(self, name: str) -> _PhaseScope:
        """Phase as a ``with`` block — for lexically-scoped operations."""
        return _PhaseScope(self, name)

    def hit(self, name: str, amount: float = 1.0) -> None:
        """Increment the hot-path counter ``name``."""
        self.profile.counter(name).inc(amount)

    def sample(self, name: str, value: float, ts: Optional[float] = None) -> None:
        """Append one sample to the series ``name`` (``ts`` defaults to now)."""
        self.profile.series(name).append(
            self.clock.now() if ts is None else ts, value
        )

    def report(self, name: str, payload: dict) -> None:
        """Attach a named JSON-ready payload to the profile."""
        self.profile.add_report(name, payload)

    def __repr__(self) -> str:
        return f"Profiler(domain={self.clock.domain!r}, profile={self.profile!r})"


class _NullScope:
    """Shared stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullProfiler:
    """The disabled fast path: every method is an empty body.

    A single shared instance (:data:`NULL_PROFILER`) is handed to every
    instrumentation site while no collector is enabled — the per-call
    cost is one attribute lookup plus one no-op call, bounded by the
    overhead-guard test.
    """

    enabled = False

    def phase(self, *_args, **_kwargs) -> None:
        """No-op."""

    def measure(self, *_args, **_kwargs) -> _NullScope:
        """No-op context manager (shared, stateless)."""
        return _NULL_SCOPE

    def hit(self, *_args, **_kwargs) -> None:
        """No-op."""

    def sample(self, *_args, **_kwargs) -> None:
        """No-op."""

    def report(self, *_args, **_kwargs) -> None:
        """No-op."""

    def __repr__(self) -> str:
        return "NullProfiler()"


#: Shared disabled profiler — what ``profiler_for`` returns when
#: observability is off.  Instrumented classes may import it as a default.
NULL_PROFILER = NullProfiler()

#: Either flavor — what instrumented code should annotate with.
ProfilerLike = Union[Profiler, NullProfiler]


def profiler_for(clock: Clock) -> ProfilerLike:
    """A profiler on the active collector's profile, or the shared null
    profiler when observability is disabled."""
    from repro.obs.core import current_collector

    collector = current_collector()
    if collector is None:
        return NULL_PROFILER
    return Profiler(collector.perf, clock)
