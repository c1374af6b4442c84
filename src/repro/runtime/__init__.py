"""Real-time backends: the same protocol on threads and on OS processes.

The discrete-event simulator is the primary substrate for experiments; this
package runs the *same protocol* on wall-clock time, to validate that
nothing in SpecSync depends on virtual-time conveniences.  The worker's
protocol state is the machine the simulator drives
(:class:`repro.ps.loop.WorkerLoop`); :class:`repro.runtime.worker.Worker` is
its one blocking driver, and a backend only supplies what carries it:
``threaded`` a locked in-process server and ``threading`` events,
``multiprocess`` queues, shared-memory stores and ``multiprocessing``
events.  The scheduler is literally :mod:`repro.core.scheduler`, driven by
``time.monotonic`` and one scheduler thread over a deadline heap instead of
the event heap.  A check or a worker loop that raises fails the run, after
everything is joined, instead of leaving it silently one part short.

Iteration times are scaled down (milliseconds instead of seconds) so a
whole multi-iteration run finishes in well under a second of wall time.
"""

from repro.runtime.threaded import (
    ThreadedParameterServer,
    ThreadedRun,
    ThreadedRunResult,
)
from repro.runtime.multiprocess import MultiprocessRun, MultiprocessRunResult

__all__ = [
    "ThreadedParameterServer",
    "ThreadedRun",
    "ThreadedRunResult",
    "MultiprocessRun",
    "MultiprocessRunResult",
]
