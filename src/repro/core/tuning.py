"""Adaptive hyperparameter tuning — the paper's Algorithm 1.

At the beginning of each epoch the scheduler estimates, for every candidate
speculation window Δ:

* **freshness gain** ũ_i(Δ): the number of pushes by peers that worker i
  would have uncovered by deferring its last iteration of the previous
  epoch by Δ (Eq. 5 — replayed from the push trace);
* **freshness loss** l̃_i(Δ) = Δ·(m−1)/T_i (Eq. 6 — the expected number of
  peers that would miss worker i's delayed push under uniform pull
  arrivals);

and picks the Δ maximizing the improvement estimate
F̃(Δ) = Σ_i (ũ_i(Δ) − l̃_i(Δ))  (Eq. 7).

Because ũ_i is a step function increasing only when Δ crosses a push-gap,
the optimum lies where a window right-aligns with a push; the candidate set
is therefore the pairwise time differences between pushes in the epoch
(O(n²) values for n pushes).  The scan is *not* exact: the set is cut down
to ``max_candidates`` (512) evenly spaced values, and an MF epoch at m = 40
already holds 40–151 pushes (up to ~11k differences), so every epoch there
is subsampled.  The exact sweep is ROADMAP item 2.  ABORT_RATE is then set
to Δ*·(m−1)/(T̄·m) so a re-sync only fires when the realized gain exceeds
the estimated loss (Algorithm 1, line 7).

Cost.  All k ≤ ``max_candidates`` candidates are evaluated at once by one
batched kernel (:func:`freshness_gains` / :func:`freshness_curve`): per
worker, one binary search of the k window ends against the epoch's n push
times — O(m·k·log n) comparisons per epoch in m NumPy calls, next to an
O(n) pass per worker that picks out its own pushes — instead of a Python
loop over every (candidate, worker) pair.  Building the candidate set is
still O(n²), but in NumPy: the pairwise differences are computed a block
of rows at a time, rounded with ``np.rint``, then sorted once and
deduplicated — two orders of magnitude below a Python ``round()`` per
pair.  That is what lets the scheduler run the scan on the notify path
(Table II's "negligible"), up to m = 1000 workers.  Every scalar entry
point (:func:`estimate_freshness_gain`, :func:`freshness_improvement`)
and the analysis ledger's F̃(Δ) curve call the same kernel.

Two details are fixed on purpose, because the chosen (ABORT_TIME,
ABORT_RATE) feeds back into the simulation and one differing bit changes
every later event: the per-worker terms are *accumulated in worker-id
order*, vector by vector, so each candidate's F̃ is the same sequence of
float additions a scalar ``for worker: total += …`` loop performs (a
matrix ``sum(axis=0)`` would add pairwise, in another order); and every
candidate is the double Python's ``round(d, 9)`` returns — the correctly
rounded decimal.  ``np.round`` scales, rounds and divides, and the scaled
product can land on the other side of a half (0.348620133 by ``round``,
0.348620132 by ``np.round``).  So ``rint(d·1e9)/1e9`` is used only where
the product is provably on the right side, and the few entries within
2⁻⁵⁰ (relative) of a half, or too large to hold a fraction, go through
``round()`` itself (:func:`_round_9`).  Ties go to the first — shortest —
maximizing window (``np.argmax``).
"""

from __future__ import annotations

import abc
import time as _time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.hyperparams import SpecSyncHyperparams

__all__ = [
    "EpochTrace",
    "freshness_gains",
    "freshness_curve",
    "estimate_freshness_gain",
    "estimate_freshness_loss",
    "freshness_improvement",
    "candidate_windows",
    "tune_hyperparams",
    "HyperparamTuner",
    "FixedTuner",
    "AdaptiveTuner",
]


#: Candidate windows Δ⃗ as the kernel accepts them.
Windows = Union[Sequence[float], np.ndarray]


@dataclass
class EpochTrace:
    """What the scheduler observed during one epoch.

    Everything here is scheduler-observable in a real deployment: notify
    messages carry (sender, timestamp), and iteration spans are gaps between
    a worker's consecutive notifies — no worker-side instrumentation needed.
    """

    num_workers: int
    #: (time, worker_id) of every push notification, in time order.
    pushes: List[Tuple[float, int]] = field(default_factory=list)
    #: worker_id -> timestamp of that worker's last push in the epoch
    #: (the reference point: its next pull happened right after).
    last_push_by_worker: Dict[int, float] = field(default_factory=dict)
    #: worker_id -> estimated iteration span T_i.
    iteration_spans: Dict[int, float] = field(default_factory=dict)

    def push_times(self) -> List[float]:
        """All push timestamps of the epoch, in order."""
        return [t for t, _ in self.pushes]

    def mean_span(self) -> Optional[float]:
        """Mean iteration span across workers (None when unknown)."""
        if not self.iteration_spans:
            return None
        spans = self.iteration_spans.values()
        return sum(spans) / len(spans)


def freshness_gains(
    trace: EpochTrace,
    windows: Windows,
    worker_ids: Optional[Iterable[int]] = None,
) -> Dict[int, np.ndarray]:
    """ũ_i(Δ⃗) (Eq. 5) for every Δ in ``windows`` at once, per worker.

    The batched kernel every freshness estimate goes through.  For worker
    i with reference point p_i (its last push of the previous epoch — its
    next pull followed immediately), the pushes in (p_i, p_i + Δ] are one
    ``searchsorted`` of the window ends against the epoch's push times
    minus the rank of p_i; the same difference over the worker's *own*
    pushes is subtracted, leaving the peers'.  A worker that never pushed
    has no reference point and uncovers nothing.

    Returns ``worker_id -> int64 vector`` aligned with ``windows``, for
    ``worker_ids`` (default: every worker of the trace).
    """
    deltas = np.asarray(windows, dtype=np.float64)
    if deltas.size and float(deltas.min()) < 0:
        raise ValueError(f"windows must be >= 0, got {float(deltas.min())}")
    times = np.asarray(trace.push_times(), dtype=np.float64)
    owners = np.asarray([w for _, w in trace.pushes], dtype=np.int64)
    if worker_ids is None:
        worker_ids = range(trace.num_workers)
    gains: Dict[int, np.ndarray] = {}
    searchsorted = np.searchsorted
    for worker_id in worker_ids:
        reference = trace.last_push_by_worker.get(worker_id)
        if reference is None:
            gains[worker_id] = np.zeros(deltas.shape, dtype=np.int64)
            continue
        ends = reference + deltas
        own = times[owners == worker_id]
        gains[worker_id] = (
            searchsorted(times, ends, "right")
            - searchsorted(times, reference, "right")
        ) - (
            searchsorted(own, ends, "right")
            - searchsorted(own, reference, "right")
        )
    return gains


def freshness_curve(trace: EpochTrace, windows: Windows) -> np.ndarray:
    """F̃(Δ⃗) = Σ_i (ũ_i(Δ⃗) − l̃_i(Δ⃗))  (Eq. 7) for every Δ in ``windows``.

    Workers are accumulated in id order, one length-k vector at a time,
    so each element sees exactly the float operations of a scalar
    ``total += gain − Δ·(m−1)/T_i`` loop.  A worker without a span sample
    falls back to the epoch's mean span; one with no usable span at all
    contributes nothing.
    """
    deltas = np.asarray(windows, dtype=np.float64)
    gains = freshness_gains(trace, deltas)
    fallback_span = trace.mean_span()
    # Eq. 6's numerator Δ·(m−1), the same for every worker.
    exposure = deltas * (trace.num_workers - 1)
    total = np.zeros(deltas.shape, dtype=np.float64)
    for worker_id in range(trace.num_workers):
        span = trace.iteration_spans.get(worker_id, fallback_span)
        if span is None or span <= 0:
            continue
        total += gains[worker_id] - exposure / span
    return total


def estimate_freshness_gain(
    trace: EpochTrace, worker_id: int, window_s: float
) -> int:
    """ũ_i(Δ): pushes by peers in (p_i, p_i + Δ], where p_i is worker i's
    last push of the previous epoch (its next pull followed immediately).
    """
    return int(freshness_gains(trace, [window_s], [worker_id])[worker_id][0])


def estimate_freshness_loss(
    num_workers: int, iteration_span_s: float, window_s: float
) -> float:
    """l̃_i(Δ) = Δ·(m−1)/T_i — Eq. 6's uniform-arrival missed-peer estimate."""
    if iteration_span_s <= 0:
        raise ValueError(f"iteration_span_s must be > 0, got {iteration_span_s}")
    if window_s < 0:
        raise ValueError(f"window_s must be >= 0, got {window_s}")
    return window_s * (num_workers - 1) / iteration_span_s


def freshness_improvement(trace: EpochTrace, window_s: float) -> float:
    """F̃(Δ) = Σ_i (ũ_i(Δ) − l̃_i(Δ))  (Eq. 7) at one window."""
    return float(freshness_curve(trace, [window_s])[0])


#: Pairwise differences built per block of rows in :func:`candidate_windows`.
_BLOCK_PAIRS = 1 << 13
#: Above this magnitude a float64 has no fractional bits to round.
_EXACT_INT_LIMIT = 2.0**52
#: Relative distance from a half within which ``fl(d·1e9)`` may have
#: crossed it: the product's error is at most 2⁻⁵³ relative; 2⁻⁵⁰ is margin.
_HALF_TOLERANCE = 2.0**-50


def _round_9(diffs: np.ndarray) -> np.ndarray:
    """``round(d, 9)`` for every ``d ≥ 0`` of ``diffs``, bit for bit.

    ``k = rint(d·1e9)`` is the integer nearest the exact ``d·10⁹`` unless
    the rounded product lies within ``_HALF_TOLERANCE`` (relative) of a
    half — only there can it sit on the other side of the half from the
    exact value.  Then ``k / 1e9`` is the correctly rounded quotient of two
    exact numbers, which is the double ``round()`` returns.  The near-half
    and huge entries go through ``round()`` itself.
    """
    scaled = diffs * 1e9
    rounded = np.rint(scaled) / 1e9
    ambiguous = ~(
        (np.abs(scaled - np.floor(scaled) - 0.5) > scaled * _HALF_TOLERANCE)
        & (scaled < _EXACT_INT_LIMIT)
    )
    if ambiguous.any():
        rounded[ambiguous] = [round(d, 9) for d in diffs[ambiguous].tolist()]
    return rounded


def candidate_windows(
    push_times: Sequence[float], max_candidates: int = 512
) -> List[float]:
    """The Δ candidates: positive pairwise push-time differences, each
    rounded to 9 decimals exactly as ``round(d, 9)`` would.

    The optimum of Eq. 7 right-aligns the window with a push, so scanning
    every such value would be exact.  When the O(n²) set exceeds
    ``max_candidates`` it is subsampled evenly (after sorting) to bound
    tuning cost, which already happens at the paper's scale: MF at m = 40
    has 40–151 pushes per epoch, and every epoch is cut to 512 candidates.
    The exact sweep is ROADMAP item 2.

    The set is built in NumPy, still O(n²): a block of rows of the
    difference matrix at a time (its lower triangle's differences are ≤ 0
    and drop out with the duplicates' zeros, so no n² index arrays are
    built), rounded by :func:`_round_9`, then sorted once and deduplicated.
    """
    times = np.sort(np.asarray(push_times, dtype=np.float64))
    n = len(times)
    rows = max(1, _BLOCK_PAIRS // max(n, 1))
    blocks = []
    for start in range(0, n - 1, rows):
        diffs = (times[start + 1:] - times[start:start + rows, None]).ravel()
        rounded = _round_9(diffs[diffs > 0])
        blocks.append(rounded[rounded > 0])
    if not blocks:
        return []
    # Sort and drop repeats by hand: ``np.unique`` imports ``numpy.ma``.
    diffs = np.sort(np.concatenate(blocks))
    distinct = np.empty(diffs.shape, dtype=bool)
    distinct[:1] = True
    np.not_equal(diffs[1:], diffs[:-1], out=distinct[1:])
    diffs = diffs[distinct]
    if len(diffs) > max_candidates:
        idx = np.linspace(0, len(diffs) - 1, max_candidates).astype(int, copy=False)
        diffs = diffs[idx]
    return diffs.tolist()


def tune_hyperparams(
    trace: EpochTrace, max_candidates: int = 512
) -> Optional[SpecSyncHyperparams]:
    """Algorithm 1: scan candidates, return the tuned hyperparameters.

    Returns None when the trace is too thin to tune (fewer than two pushes
    or no span estimate) — the scheduler then keeps speculation off for the
    next epoch.
    """
    mean_span = trace.mean_span()
    if mean_span is None or mean_span <= 0:
        return None
    candidates = candidate_windows(trace.push_times(), max_candidates)
    # A window at least as long as an iteration is pure delay; restrict the
    # search to windows shorter than the mean span (the paper's search uses
    # half the batch time as an upper bound for the same reason).
    candidates = [c for c in candidates if 0 < c < mean_span]
    if not candidates:
        return None

    # argmax returns the first maximum: the shortest window wins a tie.
    best_window = candidates[int(np.argmax(freshness_curve(trace, candidates)))]

    m = trace.num_workers
    abort_rate = best_window * (m - 1) / (mean_span * m)
    return SpecSyncHyperparams(abort_time_s=best_window, abort_rate=abort_rate)


# ----------------------------------------------------------------------
# Tuner objects plugged into the scheduler
# ----------------------------------------------------------------------
class HyperparamTuner(abc.ABC):
    """Strategy object deciding the hyperparameters for each epoch."""

    @abc.abstractmethod
    def initial(self) -> Optional[SpecSyncHyperparams]:
        """Hyperparameters before any epoch completes (None = no speculation)."""

    @abc.abstractmethod
    def retune(self, trace: EpochTrace) -> Optional[SpecSyncHyperparams]:
        """Hyperparameters for the next epoch given the previous epoch's trace."""

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short name used in the scheme name ("cherrypick" / "adaptive")."""


class FixedTuner(HyperparamTuner):
    """SpecSync-Cherrypick: hyperparameters fixed for the whole run.

    The values come from an offline grid search (see
    ``repro.experiments.cherrypick_search``) — expensive, as Table II
    quantifies.
    """

    def __init__(self, hyperparams: SpecSyncHyperparams):
        self.hyperparams = hyperparams

    @property
    def label(self) -> str:
        return "cherrypick"

    def initial(self) -> Optional[SpecSyncHyperparams]:
        return self.hyperparams

    def retune(self, trace: EpochTrace) -> Optional[SpecSyncHyperparams]:
        return self.hyperparams


class AdaptiveTuner(HyperparamTuner):
    """SpecSync-Adaptive: re-run Algorithm 1 at every epoch boundary.

    Tracks its own wall-clock tuning cost so the Table II comparison
    (closed-form scan vs. grid-search profiling runs) can be measured.
    """

    def __init__(self, max_candidates: int = 512):
        if max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
        self.max_candidates = max_candidates
        self.history: List[Optional[SpecSyncHyperparams]] = []
        self.total_tuning_wall_s = 0.0

    @property
    def label(self) -> str:
        return "adaptive"

    def initial(self) -> Optional[SpecSyncHyperparams]:
        # No history yet: the first epoch runs plain ASP and only collects
        # the trace Algorithm 1 needs.
        return None

    def retune(self, trace: EpochTrace) -> Optional[SpecSyncHyperparams]:
        # Table II reports the *real* CPU cost of Algorithm 1's scan; this
        # measurement feeds no simulated quantity, so wall time is correct.
        started = _time.perf_counter()  # repro: allow[DET-WALLCLOCK] Table II cost probe
        hyperparams = tune_hyperparams(trace, self.max_candidates)
        self.total_tuning_wall_s += _time.perf_counter() - started  # repro: allow[DET-WALLCLOCK] Table II cost probe
        self.history.append(hyperparams)
        return hyperparams
