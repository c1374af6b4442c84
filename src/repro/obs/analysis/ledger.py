"""The speculation ledger and staleness distributions.

SpecSync's objective F(Δ) = Σ(u_i − l_i) is a wasted-work-vs-freshness
ledger; this module computes its *realized* side from a trace:

* per worker: pulls / pushes / aborts, aborted-compute seconds (from the
  ``wasted_s`` the abort instants carry), the triggering peer-push
  counts, and the realized post-abort freshness gain — the version
  advance between the aborted iteration's original pull and its restart
  pull (exactly the staleness the abort avoided);
* per run: an empirical F(Δ) curve — the push history is reconstructed
  from the server's ``push_applied`` instants into a
  :class:`repro.core.tuning.EpochTrace` and replayed through the *same*
  batched Algorithm-1 kernel the adaptive tuner scans with
  (:func:`repro.core.tuning.freshness_curve`), so the analytic and
  empirical views are directly comparable;
* per worker staleness distributions: the ``staleness`` argument of each
  applied push (the PAP count of that iteration — pushes applied after
  the worker's pull), with the configured bound alongside for SSP
  schemes.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.core.tuning import (
    EpochTrace,
    candidate_windows,
    freshness_curve,
    freshness_gains,
)
from repro.obs.analysis.graph import RunSegment, WORKER_TRACK_RE
from repro.obs.metrics import summary_stats

__all__ = ["speculation_ledger", "staleness_distributions"]

#: cap on the F(Δ) curve's candidate windows (full runs have thousands of
#: pairwise push gaps; the curve is for reporting, not for tuning)
_MAX_CURVE_POINTS = 32

#: push-history sample size fed to :func:`candidate_windows` — the
#: candidate generator takes *pairwise* time diffs (quadratic in the
#: list), which is fine for the tuner's per-epoch traces but not for a
#: whole run's history; an evenly-spaced sample keeps the curve's
#: support without the blowup
_MAX_CANDIDATE_PUSHES = 256

_SSP_BOUND_RE = re.compile(r"\bssp\(s=(\d+)\)")


def _worker_id(track: str) -> Optional[int]:
    match = WORKER_TRACK_RE.match(track)
    return int(match.group(1)) if match else None


def _push_history(run: RunSegment) -> List[tuple]:
    """(time, worker) of every applied push, in time order."""
    pushes = []
    for instant in run.named_instants("push_applied"):
        worker = instant.args.get("worker")
        if worker is not None:
            pushes.append((instant.ts, int(worker)))
    pushes.sort()
    return pushes


def _reconstruct_epoch_trace(run: RunSegment) -> Optional[EpochTrace]:
    """Rebuild a tuner-compatible :class:`EpochTrace` from the push instants."""
    pushes = _push_history(run)
    if len(pushes) < 2:
        return None
    workers = {w for _t, w in pushes}
    last_push: Dict[int, float] = {}
    gaps: Dict[int, List[float]] = {}
    previous: Dict[int, float] = {}
    for ts, worker in pushes:
        last = previous.get(worker)
        if last is not None and ts > last:
            gaps.setdefault(worker, []).append(ts - last)
        previous[worker] = ts
        last_push[worker] = ts
    spans = {
        worker: sum(values) / len(values) for worker, values in gaps.items()
    }
    num_workers = run.meta.get("workers")
    if not isinstance(num_workers, int) or num_workers < 1:
        num_workers = max(workers) + 1
    return EpochTrace(
        num_workers=num_workers,
        pushes=pushes,
        last_push_by_worker=last_push,
        iteration_spans=spans,
    )


def _observed_window(run: RunSegment) -> Optional[float]:
    """Mean realized speculation window Δ from the re-sync decisions."""
    windows = []
    for instant in run.named_instants("resync_decision"):
        start = instant.args.get("window_start")
        if isinstance(start, (int, float)):
            windows.append(instant.ts - float(start))
    if not windows:
        return None
    return sum(windows) / len(windows)


def speculation_ledger(run: RunSegment) -> Dict[str, object]:
    """The per-run speculation ledger (see module docstring)."""
    per_worker: Dict[str, Dict[str, object]] = {}
    total_aborts = 0
    total_wasted = 0.0
    all_gains: List[float] = []
    empirical_by_worker: Dict[int, List[float]] = {}
    aborts_by_track: Dict[str, List] = {}
    for instant in run.named_instants("abort"):
        aborts_by_track.setdefault(instant.track, []).append(instant)

    for track in run.worker_tracks():
        worker = _worker_id(track)
        spans = run.track_spans(track)
        pulls = [s for s in spans if s.name == "pull"]
        pushes = [s for s in spans if s.name == "push"]
        aborts = aborts_by_track.get(track, [])
        wasted = 0.0
        peer_pushes: List[int] = []
        for instant in aborts:
            if isinstance(instant.args.get("wasted_s"), (int, float)):
                wasted += float(instant.args["wasted_s"])
            if isinstance(instant.args.get("peer_pushes"), int):
                peer_pushes.append(instant.args["peer_pushes"])
        if wasted == 0.0 and aborts:
            # traces from older builds: fall back to the aborted spans
            wasted = sum(
                s.duration for s in spans
                if s.name == "compute" and s.args.get("aborted")
            )
        pulls_by_iteration: Dict[object, List] = {}
        for span in pulls:
            pulls_by_iteration.setdefault(
                span.args.get("iteration"), []
            ).append(span)
        gains: List[float] = []
        for instant in aborts:
            iteration = instant.args.get("iteration")
            if iteration is None:
                continue
            initial = None
            restart = None
            for span in pulls_by_iteration.get(iteration, ()):
                if span.args.get("restart"):
                    if span.end >= instant.ts and restart is None:
                        restart = span
                elif span.end <= instant.ts + 1e-9:
                    initial = span  # last original pull before the abort
            if (
                initial is not None and restart is not None
                and isinstance(initial.args.get("version"), int)
                and isinstance(restart.args.get("version"), int)
            ):
                gains.append(restart.args["version"] - initial.args["version"])
        total_aborts += len(aborts)
        total_wasted += wasted
        all_gains.extend(gains)
        if worker is not None and gains:
            empirical_by_worker[worker] = gains
        per_worker[track] = {
            "pulls": len(pulls),
            "pushes": len(pushes),
            "aborts": len(aborts),
            "aborted_compute_s": wasted,
            "peer_push_counts": peer_pushes,
            "realized_freshness_gain": summary_stats([float(g) for g in gains], (50, 95)),
        }

    ledger: Dict[str, object] = {
        "scheme": run.meta.get("scheme"),
        "per_worker": per_worker,
        "total_aborts": total_aborts,
        "total_aborted_compute_s": total_wasted,
        "mean_realized_gain": (
            sum(all_gains) / len(all_gains) if all_gains else None
        ),
    }

    trace = _reconstruct_epoch_trace(run)
    window = _observed_window(run)
    if trace is not None:
        push_times = trace.push_times()
        if len(push_times) > _MAX_CANDIDATE_PUSHES:
            step = len(push_times) / _MAX_CANDIDATE_PUSHES
            sample = [
                push_times[int(i * step)]
                for i in range(_MAX_CANDIDATE_PUSHES)
            ]
        else:
            sample = push_times
        candidates = candidate_windows(sample, _MAX_CURVE_POINTS)
        ledger["freshness_curve"] = [
            {"window_s": delta, "improvement": improvement}
            for delta, improvement in zip(
                candidates, freshness_curve(trace, candidates).tolist()
            )
        ]
        if window is not None:
            ledger["observed_window_s"] = window
            # The analytic side of the acceptance check: Algorithm 1's
            # ũ_i(Δ) on the reconstructed push trace at the realized Δ.
            analytic = freshness_gains(
                trace, [window], sorted(empirical_by_worker)
            )
            ledger["analytic_gain_by_worker"] = {
                str(worker): int(gains[0]) for worker, gains in analytic.items()
            }
            ledger["empirical_gain_by_worker"] = {
                str(worker): sum(gains) / len(gains)
                for worker, gains in sorted(empirical_by_worker.items())
            }
    return ledger


def staleness_distributions(run: RunSegment) -> Dict[str, object]:
    """Per-worker staleness of applied pushes (effective vs bound for SSP)."""
    by_worker: Dict[int, List[float]] = {}
    for instant in run.named_instants("push_applied"):
        worker = instant.args.get("worker")
        staleness = instant.args.get("staleness")
        if worker is None or not isinstance(staleness, (int, float)):
            continue
        by_worker.setdefault(int(worker), []).append(float(staleness))
    scheme = str(run.meta.get("scheme") or "")
    bound_match = _SSP_BOUND_RE.search(scheme)
    bound = int(bound_match.group(1)) if bound_match else None
    return {
        "bound": bound,
        "per_worker": {
            str(worker): summary_stats(values, (50, 95))
            for worker, values in sorted(by_worker.items())
        },
    }
