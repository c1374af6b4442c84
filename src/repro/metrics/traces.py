"""Raw event traces of a training run.

The recorder captures every pull, push, and abort with its virtual
timestamp.  These are the "workload traces" the paper collects for its
Section III empirical study, and the raw material for PAP analysis and the
SpecSync adaptive tuner.

A run records one event per protocol step, so each kind is held as typed
columns (an ``array`` per field) rather than one object per event; the
``pulls`` / ``pushes`` / ``aborts`` views build the NamedTuple rows on
access, and the aggregate queries read the columns directly.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import defaultdict
from itertools import starmap
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

__all__ = [
    "PullEvent", "PushEvent", "AbortEvent", "PushHistory", "Rows", "TraceRecorder",
]


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
        times = self.times
        if times and time < times[-1]:
            raise ValueError(
                f"pushes must be logged in time order: {time} < {times[-1]}"
            )
        times.append(time)
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


Row = TypeVar("Row", bound=tuple)


class Rows(Sequence[Row]):
    """The rows of one event kind: a sequence view over its typed columns.

    Indexing and iteration build each row on access; :meth:`column` hands
    out one field's values without building any row.
    """

    def __init__(self, make: Callable[..., Row], fields: Tuple[str, ...],
                 columns: Tuple[array, ...]):
        self._make = make
        self._fields = fields
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(starmap(self._make, zip(*(c[index] for c in self._columns))))
        return self._make(*[c[index] for c in self._columns])

    def __iter__(self) -> Iterator[Row]:
        return starmap(self._make, zip(*self._columns))

    def column(self, field: str) -> array:
        """A copy of one field's values, in recording order."""
        return self._columns[self._fields.index(field)][:]

    def pop(self) -> Row:
        """Remove and return the newest row."""
        row = self[-1]
        for column in self._columns:
            column.pop()
        return row

    def __repr__(self) -> str:
        return f"Rows({self._make.__name__}, {len(self)})"


def _pull_row(time: float, worker_id: int, version: int, iteration: int,
              is_restart: int) -> PullEvent:
    return PullEvent(time, worker_id, version, iteration, bool(is_restart))


class TraceRecorder:
    """Append-only trace store with the index structures analyses need.

    The ``record_*`` methods take an event's fields and append them to its
    columns; ``pulls``, ``pushes`` and ``aborts`` are the row views.
    """

    def __init__(self):
        pull_columns = tuple(array(code) for code in "diiiB")
        push_columns = tuple(array(code) for code in "diiiii")
        abort_columns = tuple(array(code) for code in "diid")
        self.pulls: Rows[PullEvent] = Rows(_pull_row, PullEvent._fields, pull_columns)
        self.pushes: Rows[PushEvent] = Rows(PushEvent, PushEvent._fields, push_columns)
        self.aborts: Rows[AbortEvent] = Rows(AbortEvent, AbortEvent._fields, abort_columns)
        self._pull_appends = tuple(column.append for column in pull_columns)
        self._push_appends = tuple(column.append for column in push_columns)
        self._abort_appends = tuple(column.append for column in abort_columns)
        self._push_times, self._push_workers = push_columns[0], push_columns[1]
        self._push_staleness = push_columns[4]
        self._abort_wasted = abort_columns[3]
        self._push_history = PushHistory()  # of self.pushes, caught up on query

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_pull(self, time: float, worker_id: int, version: int,
                    iteration: int, is_restart: bool) -> None:
        """Record a delivered pull snapshot."""
        a_time, a_worker, a_version, a_iteration, a_restart = self._pull_appends
        a_time(time)
        a_worker(worker_id)
        a_version(version)
        a_iteration(iteration)
        a_restart(is_restart)

    def record_push(self, time: float, worker_id: int, version_after: int,
                    snapshot_version: int, staleness: int, iteration: int) -> None:
        """Record an applied push (must arrive in time order)."""
        times = self._push_times
        if times and time < times[-1]:
            raise ValueError("pushes must be recorded in time order")
        a_time, a_worker, a_version, a_snapshot, a_staleness, a_iteration = (
            self._push_appends
        )
        a_time(time)
        a_worker(worker_id)
        a_version(version_after)
        a_snapshot(snapshot_version)
        a_staleness(staleness)
        a_iteration(iteration)

    def record_abort(self, time: float, worker_id: int, iteration: int,
                     wasted_compute_s: float) -> None:
        """Record a speculative abort."""
        a_time, a_worker, a_iteration, a_wasted = self._abort_appends
        a_time(time)
        a_worker(worker_id)
        a_iteration(iteration)
        a_wasted(wasted_compute_s)

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
        logged = len(history.times)
        for time, worker_id in zip(self._push_times[logged:], self._push_workers[logged:]):
            history.append(time, worker_id)
        return history.count_between(start, end, exclude_worker)

    def push_times(self) -> List[float]:
        """All push timestamps, in order."""
        return self._push_times.tolist()

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
        staleness = self._push_staleness
        if not staleness:
            return 0.0
        return sum(staleness) / len(staleness)

    def total_wasted_compute(self) -> float:
        """Virtual seconds of computation discarded by aborts."""
        return sum(self._abort_wasted)

    def __repr__(self) -> str:
        return (
            f"TraceRecorder(pulls={len(self.pulls)}, pushes={len(self.pushes)}, "
            f"aborts={len(self.aborts)})"
        )
