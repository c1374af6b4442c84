"""Clock abstraction: the tracer never decides where time comes from.

Observability spans the repo's two execution substrates (see
``docs/architecture.md``): the discrete-event simulator runs on a
*virtual* clock, the ``repro.runtime`` backends on *wall* time.  A span
stamped with the wrong clock is worse than no span — it silently breaks
determinism (a wall read inside the DES) or produces nonsense timelines
(virtual stamps on real threads).  So every :class:`~repro.obs.core.Tracer`
is constructed around an explicit clock carrying its **domain**, and this
module deliberately contains no wall-clock call: wall time enters only as
a ``now_fn`` injected by the runtime backends, and two same-seed DES runs
export byte-identical traces (``tests/test_obs_perfetto.py``).
"""

from __future__ import annotations

from typing import Callable, Protocol

__all__ = ["Clock", "VirtualClock", "FunctionClock", "VIRTUAL", "WALL"]

#: Clock-domain labels; exported traces keep the domains on separate
#: Perfetto "processes" so virtual and wall microseconds never mix.
VIRTUAL = "virtual"
WALL = "wall"


class Clock(Protocol):
    """What a tracer needs from a time source."""

    #: one of :data:`VIRTUAL` / :data:`WALL`
    domain: str

    def now(self) -> float:
        """Current time in seconds (virtual or wall, per ``domain``)."""


class VirtualClock:
    """Reads the virtual clock of a :class:`repro.events.Simulator`."""

    domain = VIRTUAL

    def __init__(self, sim) -> None:
        self._sim = sim

    def now(self) -> float:
        """Current virtual time of the wrapped simulator."""
        return self._sim.now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._sim.now:.6g})"


class FunctionClock:
    """Wraps an injected ``now_fn`` — how wall time reaches the tracer.

    Runtime backends pass ``time.monotonic`` here; the DES never
    constructs one.  Keeping the wall read at the *call site* keeps
    ``repro.obs`` free of wall-clock reads.
    """

    def __init__(self, now_fn: Callable[[], float], domain: str = WALL) -> None:
        self._now_fn = now_fn
        self.domain = domain

    def now(self) -> float:
        """Current time from the injected function."""
        return self._now_fn()

    def __repr__(self) -> str:
        return f"FunctionClock(domain={self.domain!r})"
