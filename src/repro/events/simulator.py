"""The discrete-event simulator: a virtual clock over a binary heap of
plain tuples (``HeapEntry``), which ``heapq`` orders by C tuple comparison."""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Tuple

from repro.events.event import Event

__all__ = ["Simulator", "SimulationError", "EventTap"]

#: Signature of an event tap: ``tap(time, seq, fn, args)`` called for every
#: event immediately before it fires.  See :meth:`Simulator.install_tap`.
EventTap = Callable[[float, int, Callable, tuple], None]


#: One heap entry: ``(time, seq, handle, fn, args)``.  ``seq`` is unique, so
#: comparison is decided by the first two fields and never reaches the rest.
#: ``handle`` is the :class:`Event` that ``schedule``/``schedule_at`` returned
#: (consulted for cancellation), or None for ``defer``.
HeapEntry = Tuple[float, int, Optional[Event], Callable, tuple]


class SimulationError(Exception):
    """Raised on invalid simulator usage (negative or NaN delays, time travel)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, worker.start)
        sim.run(until=3600.0)

    Events scheduled for the same instant fire in scheduling order.  The
    clock only moves when an event fires; ``schedule`` with delay 0 fires the
    callback on the next ``step`` without advancing time, which is how
    instantaneous hand-offs (e.g. a worker reacting to a delivered message)
    are expressed.
    """

    #: Class-wide tap bus observing every fired event (see
    #: :meth:`install_tap`).  Class-level so instrumentation reaches
    #: simulators constructed deep inside engine code the caller never
    #: sees.  An immutable tuple: installs/removals swap the whole bus,
    #: so a tap firing mid-step never sees a half-updated list, and the
    #: empty-bus fast path is a single truthiness check.
    _taps: Tuple[EventTap, ...] = ()

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: list[HeapEntry] = []
        self._seq = 0
        self._events_fired = 0
        self._running = False

    # ------------------------------------------------------------------
    # Instrumentation tap
    # ------------------------------------------------------------------
    @classmethod
    def install_tap(cls, tap: EventTap) -> None:
        """Add a tap to the process-wide event tap bus.

        Each tap is called as ``tap(time, seq, fn, args)`` for every
        event, on every simulator instance, immediately *before* the
        callback runs — so a crashing callback still leaves its event on
        record.  Multiple taps may be installed (the replay-determinism
        sanitizer and the ``repro.obs`` tracer coexist this way); they
        fire in installation order, which keeps dispatch deterministic.
        Installing the same tap object twice is an error.
        """
        if tap in cls._taps:
            raise SimulationError("this event tap is already installed")
        cls._taps = cls._taps + (tap,)

    @classmethod
    def remove_tap(cls, tap: Optional[EventTap] = None) -> None:
        """Remove ``tap`` from the bus, or **all** taps when called bare.

        No-op if the tap (or any tap) is not installed.  The bare form
        is the historical single-slot API and what test harnesses use to
        guarantee a clean bus.
        """
        if tap is None:
            cls._taps = ()
        else:
            cls._taps = tuple(t for t in cls._taps if t is not tap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay`` virtual seconds from now."""
        # ``not >=`` also refuses NaN, which as a heap key would fire first
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event = Event(float(time), self._seq)
        heapq.heappush(self._heap, (event.time, event.seq, event, fn, args))
        self._seq += 1
        return event

    def defer(self, delay: float, fn: Callable, *args) -> None:
        """Fire-and-forget :meth:`schedule`: no Event handle is returned.

        Nothing outside the simulator can cancel the event, so none is
        built: the heap entry is the whole cost, and once it fires the
        simulator holds no reference to ``fn`` or ``args``.  Use
        :meth:`schedule` whenever the caller needs the handle.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        heapq.heappush(self._heap, (self.now + delay, self._seq, None, fn, args))
        self._seq += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the queue is empty."""
        entry = self._peek()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        self._fire(entry)
        return True

    def _fire(self, entry: HeapEntry) -> None:
        """Dispatch one popped, non-canceled entry."""
        time, seq, handle, fn, args = entry
        self.now = time
        if handle is not None:
            handle.fired = True
        self._events_fired += 1
        taps = Simulator._taps
        if taps:
            for tap in taps:
                tap(time, seq, fn, args)
        fn(*args)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or a predicate holds.

        ``until`` is inclusive: events at exactly ``until`` still fire, and
        the clock is left at ``until`` if the horizon was hit (so back-to-back
        ``run`` calls resume cleanly).  ``stop_when`` is checked after every
        fired event.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        fired = 0
        # The loop pops the entry it just peeked: binding the heap and
        # dispatching inline avoids the peek-then-step double scan (and
        # the per-iteration self._heap lookups) of the naive form.
        heap = self._heap
        pop = heapq.heappop
        fire = self._fire
        try:
            while heap:
                entry = heap[0]
                handle = entry[2]
                if handle is not None and handle.canceled:
                    pop(heap)
                    continue
                if until is not None and entry[0] > until:
                    self.now = max(self.now, until)
                    break
                pop(heap)
                fire(entry)
                fired += 1
                if stop_when is not None and stop_when():
                    break
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False

    def _peek(self) -> Optional[HeapEntry]:
        """Return the next pending entry without firing it (skips canceled)."""
        heap = self._heap
        while heap:
            handle = heap[0][2]
            if handle is None or not handle.canceled:
                return heap[0]
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of events still scheduled (excluding canceled ones)."""
        handles = (entry[2] for entry in self._heap)
        return sum(1 for handle in handles if handle is None or not handle.canceled)

    @property
    def events_fired(self) -> int:
        """Total number of events fired so far."""
        return self._events_fired

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None if the queue is empty."""
        entry = self._peek()
        return entry[0] if entry is not None else None

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6g}, pending={self.pending_count}, "
            f"fired={self._events_fired})"
        )
