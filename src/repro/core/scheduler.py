"""The SpecSync central scheduler (paper Section V, Algorithm 2).

The scheduler is the piece that replaces all-to-all push broadcasting: every
worker reports each completed iteration with a tiny ``notify`` message, and
the scheduler — holding the only global view of the push history — decides
per worker whether a ``re-sync`` is warranted.

On ``notify`` from worker *i* at time *t* (the worker pulls and starts its
next iteration immediately):

1. append *t* to the push history;
2. schedule a check at *t* + ABORT_TIME;
3. at the check, count pushes from peers in (*t*, *t* + ABORT_TIME]; if the
   count reaches ``m × ABORT_RATE``, instruct worker *i* to re-sync.

Epoch boundaries (every worker pushed at least once since the last
boundary) trigger hyperparameter retuning via the plugged-in tuner.

The class is engine-agnostic: it talks to the outside world through three
callbacks (schedule a timer, read the clock, send a re-sync), which keeps it
unit-testable without a simulation and reusable by the threaded runtime.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.tuning import EpochTrace, HyperparamTuner
from repro.metrics.traces import PushHistory
from repro.obs.core import NULL_TRACER, NullTracer, Tracer
from repro.obs.log import get_logger
from repro.obs.tracks import SCHEDULER_TRACK, resync_flow_key

__all__ = ["SpecSyncScheduler"]

#: What the scheduler accepts as a tracer (live or the shared no-op).
TracerLike = Union[Tracer, NullTracer]


class SpecSyncScheduler:
    """Centralized speculation for all workers."""

    def __init__(
        self,
        num_workers: int,
        tuner: HyperparamTuner,
        schedule_fn: Callable[[float, Callable], None],
        now_fn: Callable[[], float],
        send_resync_fn: Callable[[int, int, int], None],
        span_window: int = 8,
        tracer: Optional[TracerLike] = None,
        self_track: str = SCHEDULER_TRACK,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.tuner = tuner
        self._schedule = schedule_fn
        self._now = now_fn
        self._send_resync = send_resync_fn
        #: Observability: the host (DES policy / runtime adapter) passes a
        #: tracer bound to *its* clock, plus its own track name, so
        #: the engine-agnostic scheduler never chooses a clock domain.
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self._self_track = self_track
        self._log = get_logger("scheduler")

        self.hyperparams: Optional[SpecSyncHyperparams] = tuner.initial()

        # Global push history (time-ordered, append-only); a check's peer
        # count is four bisections on it, whatever the cluster size.
        self._history = PushHistory()

        # Per-worker history for iteration-span estimation.
        self._last_push: Dict[int, float] = {}
        self._span_samples: Dict[int, deque] = {
            w: deque(maxlen=span_window) for w in range(num_workers)
        }

        # Current-epoch state: its pushes are the history from this index on.
        self._epoch_start = 0
        self._epoch_seen: set = set()

        # Stats for reports.
        self.epochs_completed = 0
        self.checks_run = 0
        self.resyncs_sent = 0
        self.hyperparam_log: List[Tuple[float, Optional[SpecSyncHyperparams]]] = []

    # ------------------------------------------------------------------
    # Protocol entry point
    # ------------------------------------------------------------------
    def handle_notify(self, worker_id: int, iteration: int) -> None:
        """A worker finished an iteration and pushed (Algorithm 2, scheduler
        ``HandleNotification``).  ``iteration`` is the index of the *next*
        iteration the worker is starting — the one a re-sync would abort.

        Raises:
            ValueError: if ``worker_id`` is outside ``[0, num_workers)`` —
                a wiring bug in the runtime, not a recoverable condition,
                so it must surface instead of corrupting epoch state.
        """
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"unknown worker id {worker_id}")
        now = self._now()
        if self.tracer.enabled:
            self.tracer.instant(
                self._self_track, "notify",
                args={"worker": worker_id, "iteration": iteration},
            )
            self.tracer.count("scheduler.notifies")
        self._record_push(now, worker_id)
        self._advance_epoch(now, worker_id)

        if self.hyperparams is None:
            return
        threshold = self.hyperparams.threshold_count(self.num_workers)
        self._schedule(
            self.hyperparams.abort_time_s,
            lambda: self._check_resync(worker_id, now, iteration, threshold),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record_push(self, time: float, worker_id: int) -> None:
        self._history.append(time, worker_id)
        previous = self._last_push.get(worker_id)
        if previous is not None and time > previous:
            self._span_samples[worker_id].append(time - previous)
        self._last_push[worker_id] = time
        self._epoch_seen.add(worker_id)

    def _advance_epoch(self, now: float, worker_id: int) -> None:
        if len(self._epoch_seen) < self.num_workers:
            return
        # Every worker pushed this epoch, and push times never go backwards,
        # so each one's last push overall is its latest in the epoch.
        trace = EpochTrace(
            num_workers=self.num_workers,
            pushes=self._history.since(self._epoch_start),
            last_push_by_worker=dict(self._last_push),
            iteration_spans={
                w: sum(samples) / len(samples)
                for w, samples in self._span_samples.items()
                if samples
            },
        )
        self.hyperparams = self.tuner.retune(trace)
        self.epochs_completed += 1
        if self.tracer.enabled:
            self.tracer.instant(
                self._self_track, "epoch_retuned",
                args={"epoch": self.epochs_completed,
                      "hyperparams": str(self.hyperparams)},
            )
        self._log.debug(
            "epoch %d retuned: %s", self.epochs_completed, self.hyperparams
        )
        self.hyperparam_log.append((now, self.hyperparams))
        self._epoch_start = len(self._history.times)
        self._epoch_seen = set()

    def _check_resync(
        self,
        worker_id: int,
        window_start: float,
        iteration: int,
        threshold: float,
    ) -> None:
        """Algorithm 2, ``CheckResync``: fire a re-sync if enough peers pushed."""
        self.checks_run += 1
        now = self._now()
        count = self._history.count_between(window_start, now, worker_id)
        if self.tracer.enabled:
            self.tracer.count("scheduler.checks")
        if count >= threshold:
            self.resyncs_sent += 1
            if self.tracer.enabled:
                self._trace_resync_decision(
                    worker_id, window_start, iteration, threshold, count, now
                )
            self._log.debug(
                "re-sync worker %d (iteration %d): %d peer pushes in "
                "(%.6g, %.6g] >= threshold %.3g",
                worker_id, iteration, count, window_start, now, threshold,
            )
            # The triggering peer-push count travels with the re-sync so
            # the abort instant (and the analytics ledger) can attribute
            # the decision without reconstructing the window.
            self._send_resync(worker_id, iteration, count)

    def _trace_resync_decision(
        self,
        worker_id: int,
        window_start: float,
        iteration: int,
        threshold: float,
        count: int,
        now: float,
    ) -> None:
        """Emit the decision event and stage its one causal-flow origin.

        The engine closes the key at the abort point; a re-sync that
        arrives too late discards it, so only honoured aborts grow an
        arrow.  The pushes that triggered the decision are the other
        workers' ``notify`` instants in (``window_start``, now].
        """
        self.tracer.instant(
            self._self_track, "resync_decision", cat="abort",
            args={"worker": worker_id, "iteration": iteration,
                  "peer_pushes": count, "threshold": threshold,
                  "window_start": round(window_start, 9)},
        )
        self.tracer.count("scheduler.resyncs_sent")
        self.tracer.flow_begin(
            resync_flow_key(worker_id, iteration), self._self_track, "abort",
            ts=now, cat="abort", args={"decision": True, "peer_pushes": count},
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def estimated_span(self, worker_id: int) -> Optional[float]:
        """Current iteration-span estimate for a worker (mean of recent gaps)."""
        samples = self._span_samples.get(worker_id)
        if not samples:
            return None
        return sum(samples) / len(samples)

    def summary(self) -> dict:
        """Counters for run reports (epochs, checks, re-syncs, hyperparams)."""
        return {
            "epochs_completed": self.epochs_completed,
            "checks_run": self.checks_run,
            "resyncs_sent": self.resyncs_sent,
            "current_hyperparams": str(self.hyperparams) if self.hyperparams else None,
        }

    def __repr__(self) -> str:
        return (
            f"SpecSyncScheduler(m={self.num_workers}, epochs={self.epochs_completed}, "
            f"resyncs={self.resyncs_sent}, hp={self.hyperparams})"
        )
