"""Cancellation handles for the simulation kernel (ordering lives in the
simulator's tuple heap entries, not here)."""

from __future__ import annotations

__all__ = ["Event", "EventCanceled"]


class EventCanceled(Exception):
    """Raised when interacting with an event that has been canceled."""


class Event:
    """Handle to one scheduled callback, as returned by ``Simulator.schedule``.

    ``(time, seq)`` is the key the simulator orders by: ``seq`` is a
    monotonically increasing sequence number assigned at scheduling, which
    makes the ordering a total order and keeps simultaneous events in
    scheduling order.  Events can be canceled before they fire (lazy
    deletion: the heap entry stays, the simulator skips it on pop).
    """

    __slots__ = ("time", "seq", "canceled", "fired")

    def __init__(self, time: float, seq: int):
        self.time = time
        self.seq = seq
        self.canceled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Canceling a fired event is an error."""
        if self.fired:
            raise EventCanceled(f"cannot cancel event at t={self.time}: already fired")
        self.canceled = True

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor canceled."""
        return not (self.canceled or self.fired)

    def __repr__(self) -> str:
        state = "canceled" if self.canceled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6g}, seq={self.seq}, {state})"
