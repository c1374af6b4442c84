"""The tracing core: spans, instants, flows, and the collector they feed.

Design constraints, in order:

1. **Disabled is free.**  Observability is off by default; every
   instrumentation site calls methods on a :class:`NullTracer` whose
   bodies are empty.  Sites that would *build* expensive arguments guard
   on ``tracer.enabled`` first.
2. **Clock-agnostic.**  A :class:`Tracer` is bound to a
   :class:`~repro.obs.clock.Clock`; inside the DES that is a
   :class:`~repro.obs.clock.VirtualClock` and every stamp is virtual
   time, in the runtime backends an injected wall clock.  Records carry
   their clock domain so the exporter never mixes the two timelines.
3. **Deterministic.**  With a fixed seed, a DES run appends records in
   event order, so two runs produce identical collections (this is
   covered by the replay sanitizer — the tracer itself is tapped into
   the same multi-tap bus).

Spans in the DES are not lexically scoped (a pull starts in one event
callback and ends in another), so the primary span API takes an explicit
``start`` timestamp: the instrumented code remembers when the operation
began and emits one complete span when it ends.  The runtime backends,
where operations *are* lexically scoped, use :meth:`Tracer.measure`.

Causality (the paper's re-sync decisions) is recorded with *pending
flows*: the scheduler registers one flow origin per re-sync decision
under a key, and the engine closes the key at the abort point — one
arrow per honoured abort.  The peer pushes behind a decision are already
in the trace as ``notify`` instants, so they get no arrows of their own.
Origins whose re-sync arrived too late are never closed and never
exported.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SpanRecord",
    "InstantRecord",
    "FlowRecord",
    "TraceCollector",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "enable",
    "disable",
    "current_collector",
    "tracer_for",
    "collecting",
]

#: Hashable identity of a pending flow, e.g. ``("resync", worker_id, it)``.
FlowKey = Tuple[object, ...]


class SpanRecord(NamedTuple):
    """One completed operation on a track: ``[start, end]`` in seconds."""

    domain: str
    track: str
    name: str
    cat: str
    start: float
    end: float
    args: Optional[dict] = None


class InstantRecord(NamedTuple):
    """One point event on a track."""

    domain: str
    track: str
    name: str
    cat: str
    ts: float
    args: Optional[dict] = None


class FlowRecord(NamedTuple):
    """A causal arrow from one (track, time) to another."""

    domain: str
    name: str
    cat: str
    src_track: str
    src_ts: float
    dst_track: str
    dst_ts: float
    args: Optional[dict] = None


class _FlowOrigin(NamedTuple):
    """A registered-but-unclosed flow source."""

    domain: str
    track: str
    name: str
    cat: str
    ts: float
    args: Optional[dict] = None


class TraceCollector:
    """The shared sink: records, metrics, pending flows, run metadata.

    One collector spans one logical collection (a run, a comparison, an
    experiment); tracers for any number of clocks feed it.  Appends use
    ``list.append`` (atomic under the GIL) so runtime threads need no
    lock on the hot path; the pending-flow table, which is read-modify-
    write, takes one.
    """

    def __init__(self) -> None:
        self.records: List[Union[SpanRecord, InstantRecord, FlowRecord]] = []
        self.metrics = MetricsRegistry()
        #: free-form run context (workload, scheme, seed) for the export
        self.metadata: Dict[str, object] = {}
        self._flow_lock = threading.Lock()
        self._pending_flows: Dict[FlowKey, List[_FlowOrigin]] = {}

    # ------------------------------------------------------------------
    def append(self, record: Union[SpanRecord, InstantRecord, FlowRecord]) -> None:
        """Add one finished record."""
        self.records.append(record)

    def register_flow_origin(self, key: FlowKey, origin: _FlowOrigin) -> None:
        """Remember a causal source until ``close_flows(key)`` lands."""
        with self._flow_lock:
            self._pending_flows.setdefault(key, []).append(origin)
        # Flow accounting: every origin is either closed into an arrow,
        # discarded (late re-sync), or still pending at export.  Lazily
        # created so empty collections stay metric-free.
        self.metrics.counter("obs.flow_origins_registered").inc()

    def close_flows(
        self, key: FlowKey, domain: str, track: str, ts: float
    ) -> int:
        """Materialize every origin under ``key`` as a flow into (track, ts).

        Returns the number of arrows drawn; 0 when the key was never
        registered (a flow end with no recorded cause is not an error —
        the cause-side instrumentation may be disabled).
        """
        with self._flow_lock:
            origins = self._pending_flows.pop(key, [])
        if origins:
            self.metrics.counter("obs.flow_arrows_closed").inc(len(origins))
            self.records.extend(
                [
                    FlowRecord(o.domain, o.name, o.cat, o.track, o.ts, track, ts, o.args)
                    for o in origins
                ]
            )
        return len(origins)

    def discard_flows(self, key: FlowKey) -> None:
        """Drop pending origins under ``key`` without exporting them."""
        with self._flow_lock:
            dropped = self._pending_flows.pop(key, None)
        if dropped:
            self.metrics.counter("obs.flow_origins_discarded").inc(len(dropped))

    @property
    def pending_flow_count(self) -> int:
        """Registered-but-unclosed flow origins (dropped at export)."""
        with self._flow_lock:
            return sum(len(v) for v in self._pending_flows.values())

    def __repr__(self) -> str:
        return (
            f"TraceCollector(records={len(self.records)}, "
            f"pending_flows={self.pending_flow_count})"
        )


class _SpanScope:
    """Context manager measuring a lexically-scoped span (wall backends)."""

    __slots__ = ("_tracer", "_track", "_name", "_cat", "_args", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        track: str,
        name: str,
        cat: str,
        args: Optional[dict],
    ) -> None:
        self._tracer = tracer
        self._track = track
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanScope":
        self._start = self._tracer.clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.span(
            self._track, self._name, start=self._start,
            cat=self._cat, args=self._args,
        )
        return False


class Tracer:
    """A clock-bound handle onto a :class:`TraceCollector`."""

    #: instrumentation sites may guard expensive argument construction
    enabled = True

    def __init__(self, collector: TraceCollector, clock: Clock) -> None:
        self.collector = collector
        self.clock = clock
        self._domain = clock.domain

    # ------------------------------------------------------------------
    # Spans and instants
    # ------------------------------------------------------------------
    def span(
        self,
        track: str,
        name: str,
        start: float,
        end: Optional[float] = None,
        cat: str = "span",
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed ``[start, end]`` span (``end`` defaults to now)."""
        self.collector.append(
            SpanRecord(
                self._domain, track, name, cat, start,
                self.clock.now() if end is None else end, args,
            )
        )

    def instant(
        self,
        track: str,
        name: str,
        ts: Optional[float] = None,
        cat: str = "instant",
        args: Optional[dict] = None,
    ) -> None:
        """Record a point event (``ts`` defaults to now)."""
        self.collector.append(
            InstantRecord(
                self._domain, track, name, cat,
                self.clock.now() if ts is None else ts, args,
            )
        )

    def measure(
        self,
        track: str,
        name: str,
        cat: str = "span",
        args: Optional[dict] = None,
    ) -> _SpanScope:
        """Span as a ``with`` block — for lexically-scoped (wall) operations."""
        return _SpanScope(self, track, name, cat, args)

    # ------------------------------------------------------------------
    # Causal flows
    # ------------------------------------------------------------------
    def flow_begin(
        self,
        key: FlowKey,
        track: str,
        name: str,
        ts: Optional[float] = None,
        cat: str = "flow",
        args: Optional[dict] = None,
    ) -> None:
        """Register a causal source under ``key`` (closed by ``flow_end``)."""
        self.collector.register_flow_origin(
            key,
            _FlowOrigin(self._domain, track, name, cat,
                        self.clock.now() if ts is None else ts, args),
        )

    def flow_end(self, key: FlowKey, track: str, ts: Optional[float] = None) -> int:
        """Draw arrows from every origin under ``key`` to here; returns count."""
        return self.collector.close_flows(
            key,
            domain=self._domain,
            track=track,
            ts=self.clock.now() if ts is None else ts,
        )

    def flow_discard(self, key: FlowKey) -> None:
        """Forget pending origins under ``key`` (decision not honored)."""
        self.collector.discard_flows(key)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name``."""
        self.collector.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        self.collector.metrics.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its current level (queue depth etc.)."""
        self.collector.metrics.gauge(name).set(value)

    def __repr__(self) -> str:
        return f"Tracer(domain={self._domain!r}, collector={self.collector!r})"


_NULL_SCOPE = nullcontext()


class NullTracer:
    """The disabled fast path: every method is an empty body.

    A single shared instance (:data:`NULL_TRACER`) is handed to every
    instrumentation site while no collector is enabled, so the per-call
    cost of disabled observability is one attribute lookup plus one
    no-op method call — bounded by the overhead-guard benchmark.
    """

    enabled = False

    def span(self, *_args, **_kwargs) -> None:
        """No-op."""

    def instant(self, *_args, **_kwargs) -> None:
        """No-op."""

    def measure(self, *_args, **_kwargs):
        """No-op context manager (shared, stateless)."""
        return _NULL_SCOPE

    def flow_begin(self, *_args, **_kwargs) -> None:
        """No-op."""

    def flow_end(self, *_args, **_kwargs) -> int:
        """No-op (no arrows drawn)."""
        return 0

    def flow_discard(self, *_args, **_kwargs) -> None:
        """No-op."""

    def count(self, *_args, **_kwargs) -> None:
        """No-op."""

    def observe(self, *_args, **_kwargs) -> None:
        """No-op."""

    def gauge(self, *_args, **_kwargs) -> None:
        """No-op."""

    def __repr__(self) -> str:
        return "NullTracer()"


#: Shared disabled tracer — what ``tracer_for`` returns when observability
#: is off.  Instrumented classes may also import it as a default.
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Process-wide enablement
# ----------------------------------------------------------------------
#: The active collector, or None when observability is disabled.  Like
#: the Simulator's tap bus this is process-wide on purpose: engines are
#: constructed deep inside workload/experiment code the enabling caller
#: never sees.
_ACTIVE: Optional[TraceCollector] = None
_SIM_TAP = None


def enable(collector: TraceCollector) -> None:
    """Turn observability on: subsequent ``tracer_for`` calls are live.

    Also installs a simulator tap (on the multi-tap bus, so the replay
    sanitizer can run concurrently) that counts fired DES events into
    the ``sim.events_fired`` metric.
    """
    global _ACTIVE, _SIM_TAP
    if _ACTIVE is not None:
        raise RuntimeError("an observability collector is already enabled")
    from repro.events.simulator import Simulator

    counter = collector.metrics.counter("sim.events_fired")

    def _tap(_time: float, _seq: int, _fn, _tap_args: tuple) -> None:
        counter.inc()

    Simulator.install_tap(_tap)
    _SIM_TAP = _tap
    _ACTIVE = collector


def disable() -> None:
    """Turn observability off (no-op when already off)."""
    global _ACTIVE, _SIM_TAP
    if _SIM_TAP is not None:
        from repro.events.simulator import Simulator

        Simulator.remove_tap(_SIM_TAP)
        _SIM_TAP = None
    _ACTIVE = None


def current_collector() -> Optional[TraceCollector]:
    """The enabled collector, or None."""
    return _ACTIVE


def tracer_for(clock: Clock) -> Union[Tracer, NullTracer]:
    """A tracer on the active collector, or the shared null tracer."""
    if _ACTIVE is None:
        return NULL_TRACER
    return Tracer(_ACTIVE, clock)


@contextmanager
def collecting(
    collector: Optional[TraceCollector] = None,
) -> Iterator[TraceCollector]:
    """Enable observability for a block; yields the (possibly new) collector."""
    active = collector if collector is not None else TraceCollector()
    enable(active)
    try:
        yield active
    finally:
        disable()
