"""Real-time threaded backend.

The discrete-event simulator is the primary substrate for experiments; this
package runs the *same protocol* — pull / compute / push workers, a shared
versioned store, and the SpecSync scheduler with notify / re-sync — on real
threads with wall-clock timers.  It exists to validate that nothing in
SpecSync depends on virtual-time conveniences: the scheduler class is
literally the one from :mod:`repro.core.scheduler`, driven by
``time.monotonic`` and one scheduler thread over a deadline heap instead of
the event heap.  That thread starts with the first scheduled check, is woken
only by a check due earlier than the one it sleeps towards, and is joined
when the run closes the scheduler — which then re-raises the first exception
a check raised, so a run never carries on with speculation silently dead.

Iteration times are scaled down (milliseconds instead of seconds) so a
whole multi-iteration run finishes in well under a second of wall time.
"""

from repro.runtime.threaded import (
    ThreadedParameterServer,
    ThreadedRun,
    ThreadedRunResult,
    ThreadedWorker,
)
from repro.runtime.multiprocess import MultiprocessRun, MultiprocessRunResult

__all__ = [
    "ThreadedParameterServer",
    "ThreadedRun",
    "ThreadedRunResult",
    "ThreadedWorker",
    "MultiprocessRun",
    "MultiprocessRunResult",
]
