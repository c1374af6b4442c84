"""Overhead guard: disabled observability must stay in the noise.

The no-op fast path (shared :data:`NULL_TRACER`) is what every
instrumentation site talks to while no collector is enabled: on the DES,
on threads, and in a multiprocess child without a live session.  Directly
diffing two wall-clock timings of the same run is hopelessly noisy at
this scale, so the guard bounds the overhead analytically instead:

1. count how many instrumentation-site hits a seeded fig8-style MF run
   performs (records + metric updates of a traced run — an upper bound
   on the null calls the disabled run makes);
2. micro-benchmark the per-call cost of the null path (enabled check +
   no-op method call);
3. assert hits x cost stays under 5% of the measured disabled run time.

The 5% threshold is deliberately generous — the measured ratio is
typically under 0.1% — so the test only fires when someone makes the
disabled path genuinely expensive (e.g. building args dicts without an
``enabled`` guard would instead show up as a jump in the hit count).
"""

import io
import json
import time

from repro import ClusterSpec, SpecSyncPolicy
from repro.obs import (
    NULL_TRACER,
    collecting,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.workloads import matrix_factorization_workload

#: Disabled observability may cost at most this fraction of the run.
MAX_OVERHEAD_FRACTION = 0.05

_BENCH_CALLS = 100_000


def _run_mf(horizon_s: float = 300.0):
    workload = matrix_factorization_workload()
    cluster = ClusterSpec.homogeneous(4)
    return workload.run(
        cluster, SpecSyncPolicy.adaptive(), seed=3, horizon_s=horizon_s
    )


def _null_call_cost_s() -> float:
    """Per-site cost of the disabled path: guard check + no-op call."""
    tracer = NULL_TRACER
    start = time.perf_counter()
    for _ in range(_BENCH_CALLS):
        if tracer.enabled:
            raise AssertionError("null tracer must report disabled")
        tracer.span("track", "name", start=0.0)
    elapsed = time.perf_counter() - start
    return elapsed / _BENCH_CALLS


def test_disabled_noop_path_overhead_is_bounded():
    # 1. Instrumentation-site hit count from a traced copy of the run.
    with collecting() as collector:
        traced = _run_mf()
    snapshot = collector.metrics.snapshot()
    # Counter *values* equal call counts except the byte totals, which
    # accumulate message sizes — but each of those calls pairs 1:1 with
    # a net.messages.* increment, so dropping them keeps the count exact.
    site_hits = (
        len(collector.records)
        + sum(
            value
            for name, value in snapshot["counters"].items()
            if not name.startswith("net.bytes.")
        )
        + sum(agg["count"] for agg in snapshot["histograms"].values())
    )
    assert traced.total_aborts > 0, "the guard run must exercise aborts"
    assert site_hits > 0

    # 2. Wall time of the same run with observability disabled (best of
    # three to shave scheduler noise).
    disabled_wall = min(
        _timed_run() for _ in range(3)
    )

    # 3. The bound.
    overhead_s = site_hits * _null_call_cost_s()
    fraction = overhead_s / disabled_wall
    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"disabled observability path costs {overhead_s * 1e3:.3f} ms "
        f"({fraction:.2%}) against a {disabled_wall * 1e3:.0f} ms run; "
        f"budget is {MAX_OVERHEAD_FRACTION:.0%}"
    )


def _timed_run() -> float:
    start = time.perf_counter()
    _run_mf()
    return time.perf_counter() - start


def _best_of_five(fn) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_export_costs_at_most_twice_a_one_shot_dump():
    """Budget for the *enabled* path's export, relative so bursts cancel.

    A one-shot ``json.dumps`` of the same object is what the C encoder
    can do; the line-per-event writer measures 1.15x that and may cost
    up to twice.  An exporter that falls back to the pure-Python encoder
    (``indent=``, ``json.dump``) measures 2.5-2.8x on this collector.
    """
    with collecting() as collector:
        traced = _run_mf()
    assert traced.total_aborts > 0, "the budget run must export flow arrows"

    write_s = _best_of_five(
        lambda: write_chrome_trace(collector, io.StringIO())
    )
    dumps_s = _best_of_five(
        lambda: json.dumps(to_chrome_trace(collector), sort_keys=True)
    )
    assert write_s <= 2.0 * dumps_s, (
        f"write_chrome_trace took {write_s * 1e3:.1f} ms, "
        f"{write_s / dumps_s:.2f}x a one-shot json.dumps "
        f"({dumps_s * 1e3:.1f} ms) of the same collector; budget is 2x"
    )
