"""Raw event traces of a training run.

The recorder captures every pull, push, and abort with its virtual
timestamp.  These are the "workload traces" the paper collects for its
Section III empirical study, and the raw material for PAP analysis and the
SpecSync adaptive tuner.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = ["PullEvent", "PushEvent", "AbortEvent", "PushHistory", "TraceRecorder"]


class PullEvent(NamedTuple):
    """A worker received a parameter snapshot."""

    time: float
    worker_id: int
    version: int
    iteration: int
    is_restart: bool  # True when the pull follows an abort


class PushEvent(NamedTuple):
    """The store applied a worker's gradient."""

    time: float
    worker_id: int
    version_after: int
    snapshot_version: int
    staleness: int
    iteration: int


class AbortEvent(NamedTuple):
    """A worker aborted an in-flight iteration for a re-sync."""

    time: float
    worker_id: int
    iteration: int
    wasted_compute_s: float


class PushHistory:
    """Time-ordered (time, worker) push log answering what Algorithm 2's
    re-sync check and the PAP study (Fig. 3) both ask: how many pushes
    landed in ``(start, end]``, not counting one worker's own?

    Peers = all pushes − own pushes, two bisections each, so a count is
    O(log n) however many workers pushed in the window.  Timestamps may
    repeat (the threaded clock's do) but must not go backwards.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self._workers: List[int] = []  # parallel to self.times
        self._times_of: Dict[int, List[float]] = defaultdict(list)

    def append(self, time: float, worker_id: int) -> None:
        """Log one push (``time`` must not precede the last one logged)."""
        self.times.append(time)
        self._workers.append(worker_id)
        self._times_of[worker_id].append(time)

    def count_between(
        self, start: float, end: float, exclude_worker: Optional[int] = None
    ) -> int:
        """Pushes in (start, end], minus ``exclude_worker``'s if given."""
        times = self.times
        lo = bisect_right(times, start)
        count = bisect_right(times, end, lo) - lo
        if count and exclude_worker is not None:
            own = self._times_of.get(exclude_worker, ())
            lo = bisect_right(own, start)
            count -= bisect_right(own, end, lo) - lo
        return count

    def since(self, index: int) -> List[Tuple[float, int]]:
        """(time, worker) of every push logged from position ``index`` on."""
        return list(zip(self.times[index:], self._workers[index:]))


class TraceRecorder:
    """Append-only trace store with the index structures analyses need."""

    def __init__(self):
        self.pulls: List[PullEvent] = []
        self.pushes: List[PushEvent] = []
        self.aborts: List[AbortEvent] = []
        self._push_history = PushHistory()  # of self.pushes, caught up on query

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_pull(self, event: PullEvent) -> None:
        """Record a delivered pull snapshot."""
        self.pulls.append(event)

    def record_push(self, event: PushEvent) -> None:
        """Record an applied push (must arrive in time order)."""
        if self.pushes and event.time < self.pushes[-1].time:
            raise ValueError("pushes must be recorded in time order")
        self.pushes.append(event)

    def record_abort(self, event: AbortEvent) -> None:
        """Record a speculative abort."""
        self.aborts.append(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pushes_in_window(
        self, start: float, end: float, exclude_worker: Optional[int] = None
    ) -> int:
        """Number of pushes applied in (start, end], optionally excluding one
        worker's own pushes — the PAP count for that worker.
        """
        # Nothing asks during a run, so recording does not pay for the
        # index: it is extended here by the pushes recorded since last asked.
        history = self._push_history
        for event in self.pushes[len(history.times):]:
            history.append(event.time, event.worker_id)
        return history.count_between(start, end, exclude_worker)

    def push_times(self) -> List[float]:
        """All push timestamps, in order."""
        return [event.time for event in self.pushes]

    def pulls_by_worker(self) -> Dict[int, List[PullEvent]]:
        """Pull events grouped per worker, preserving time order."""
        grouped: Dict[int, List[PullEvent]] = {}
        for event in self.pulls:
            grouped.setdefault(event.worker_id, []).append(event)
        return grouped

    def pushes_by_worker(self) -> Dict[int, List[PushEvent]]:
        """Push events grouped per worker, preserving time order."""
        grouped: Dict[int, List[PushEvent]] = {}
        for event in self.pushes:
            grouped.setdefault(event.worker_id, []).append(event)
        return grouped

    def mean_staleness(self) -> float:
        """Average missed-update count over all pushes."""
        if not self.pushes:
            return 0.0
        return sum(p.staleness for p in self.pushes) / len(self.pushes)

    def total_wasted_compute(self) -> float:
        """Virtual seconds of computation discarded by aborts."""
        return sum(a.wasted_compute_s for a in self.aborts)

    def __repr__(self) -> str:
        return (
            f"TraceRecorder(pulls={len(self.pulls)}, pushes={len(self.pushes)}, "
            f"aborts={len(self.aborts)})"
        )
