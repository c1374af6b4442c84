"""What the benchmark measures: workloads, end-to-end metrics, layer metrics.

Pure data, importable without NumPy or ``repro``: the parent process, the
workload subprocess, the README tables, ``BENCHMARK.json`` and the
self-test all read these three tables, so a name, unit, direction or
bound is written down once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "RUN_SECONDS",
    "SINGLE_THREAD_ENV",
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "WorkloadSpec",
    "EndToEndMetric",
    "LayerMetric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "benchmark_json",
]

#: Seconds of timed region per run (``--seconds`` default, and
#: ``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 18

#: Set to "1" in the workload subprocess before NumPy is imported: unpinned,
#: rt_mp4_adaptive measured bimodal (55-79 iter/s against 274-276 pinned).
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: The experiments' default seed, and the held-out seed a claimed gain
#: must also hold on (never used while sizing or tuning a change).
DEFAULT_SEED = 3
HELD_OUT_SEED = 7

DES = ("des_mf40_adaptive", "des_mf40_asp", "des_tiny160_cherrypick")
OBSERVE = ("observe_mf40_cherrypick",)
RT = ("rt_threaded4_adaptive", "rt_mp4_adaptive")
ALL = DES + OBSERVE + RT


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: one line for BENCHMARK.json: why the workload is in the benchmark
    why: str


@dataclass(frozen=True)
class EndToEndMetric:
    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by; ``None`` for
    #: the two metrics compared exactly instead (see ``in_contract``)
    bound: Optional[float]
    workloads: Tuple[str, ...]
    meaning: str
    #: listed under ``end_to_end`` in BENCHMARK.json.  The driver's
    #: contract needs every listed metric on every workload, never zero
    #: and with a relative bound, which ``sim_ttc_s`` (one workload, exact
    #: per seed) and ``failed_share`` (zero when healthy) cannot meet:
    #: they travel as ``sim.ttc_s`` and ``attempted``/``failed`` instead.
    in_contract: bool = True


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: the end-to-end metric(s) this layer metric should move ...
    moves: Tuple[str, ...]
    #: ... and the workload(s) it should move them on
    on: Tuple[str, ...]


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "des_mf40_adaptive",
        "Paper headline (Fig. 8): Table-I MF, 40 workers, SpecSync-Adaptive through "
        "convergence; Algorithm 1 is the largest layer here and nowhere else",
    ),
    WorkloadSpec(
        "des_mf40_asp",
        "Same preset and cluster under plain ASP: bypasses core entirely, so gradient "
        "math and store apply/snapshot dominate and a tuner change must read no change",
    ),
    WorkloadSpec(
        "des_tiny160_cherrypick",
        "27-parameter model on 160 workers with fixed hyperparameters: time spreads "
        "over event kernel, netsim, engine glue, scheduler notify/check and recording",
    ),
    WorkloadSpec(
        "observe_mf40_cherrypick",
        "MF on 40 workers with obs enabled, then export, JSON load, analyze, render: "
        "the only workload that pays the enabled tracer and the analysis read path",
    ),
    WorkloadSpec(
        "rt_threaded4_adaptive",
        "Threaded substrate, 4 workers, 263 KB payload: pull copy, gradient, locked "
        "apply and per-notify Timer are ~3.5 ms against a 6 ms emulated compute",
    ),
    WorkloadSpec(
        "rt_mp4_adaptive",
        "Same protocol through forked processes, queues and the seqlock shm store: "
        "shows data-plane and queue changes; both rt rows must hold under a loop merge",
    ),
)

END_TO_END: Tuple[EndToEndMetric, ...] = (
    EndToEndMetric(
        "setup_s", "s", "lower", 0.25, ALL,
        "dataset synthesis + partitioning + engine/run construction, per rep",
    ),
    EndToEndMetric(
        "wall_s", "s", "lower", 0.25, ALL,
        "host seconds of the timed region: what a researcher waits for one Fig-8 "
        "cell (on rt_* the requested duration plus start/stop cost)",
    ),
    EndToEndMetric(
        "iter_per_s", "iter/s", "higher", 0.25, ALL,
        "applied pushes (store.version) per host second of the timed region",
    ),
    EndToEndMetric(
        "peak_rss_mb", "MB", "lower", 0.25, ALL,
        "ru_maxrss of the workload subprocess (plus RUSAGE_CHILDREN on rt_mp4_adaptive)",
    ),
    EndToEndMetric(
        "sim_ttc_s", "sim_s", "lower", None, ("des_mf40_adaptive",),
        "simulated runtime to convergence, the paper's own metric; repeats exactly "
        "for a seed, so two commits compare exactly, not within a bound",
        in_contract=False,
    ),
    EndToEndMetric(
        "failed_share", "ratio", "lower", None, ALL,
        "failed reps / attempted reps; a rep fails if it raises or an output check fails",
        in_contract=False,
    ),
)


def _layer(prefix: str, moves, on, *metrics) -> Tuple[LayerMetric, ...]:
    moves = (moves,) if isinstance(moves, str) else tuple(moves)
    return tuple(
        LayerMetric(f"{prefix}.{name}", unit, better, moves, tuple(on))
        for name, unit, better in metrics
    )


_TIME = ("wall_s", "iter_per_s")

PER_LAYER: Tuple[LayerMetric, ...] = (
    *_layer(
        "events", _TIME, ("des_tiny160_cherrypick",),
        ("self_s", "s", "lower"), ("fired", "count", "lower"),
        ("us_per_event", "us", "lower"),
    ),
    *_layer(
        "netsim", "wall_s", ("des_tiny160_cherrypick",),
        ("send_s", "s", "lower"), ("messages", "count", "lower"),
        ("us_per_msg", "us", "lower"), ("bytes", "B", "lower"),
    ),
    *_layer(
        "ml", _TIME, ("des_mf40_asp", "des_mf40_adaptive"),
        ("grad_s", "s", "lower"), ("grad_calls", "count", "lower"),
        ("us_per_grad", "us", "lower"), ("batch_s", "s", "lower"),
        ("eval_s", "s", "lower"), ("eval_calls", "count", "lower"),
    ),
    *_layer(
        "ps", "wall_s", ("des_mf40_asp", "des_tiny160_cherrypick"),
        ("apply_s", "s", "lower"), ("apply_calls", "count", "lower"),
        ("snapshot_s", "s", "lower"), ("snapshot_calls", "count", "lower"),
        ("engine_self_s", "s", "lower"), ("useful_compute_share", "ratio", "higher"),
    ),
    *_layer(
        "ps", "iter_per_s", ("rt_mp4_adaptive",),
        ("shm_reads", "count", "lower"), ("shm_torn_retries", "count", "lower"),
        ("shm_fence_waits", "count", "lower"),
    ),
    *_layer(
        "core", _TIME, ("des_mf40_adaptive",),
        ("tune_s", "s", "lower"), ("tune_calls", "count", "lower"),
    ),
    *_layer(
        "core", _TIME, ("des_tiny160_cherrypick",),
        ("notify_s", "s", "lower"), ("notify_calls", "count", "lower"),
        ("check_s", "s", "lower"), ("checks", "count", "lower"),
        ("resyncs_sent", "count", "lower"), ("resync_honored_ratio", "ratio", "higher"),
    ),
    *_layer(
        "metrics", ("wall_s", "peak_rss_mb"), ("des_tiny160_cherrypick", "des_mf40_asp"),
        ("record_s", "s", "lower"), ("record_calls", "count", "lower"),
    ),
    *_layer(
        "cluster", "wall_s", ("des_tiny160_cherrypick",),
        ("sample_s", "s", "lower"),
    ),
    *_layer(
        "obs", ("wall_s", "peak_rss_mb"), OBSERVE,
        ("trace_overhead_s", "s", "lower"), ("trace_events", "count", "lower"),
        ("us_per_trace_event", "us", "lower"), ("export_s", "s", "lower"),
        ("export_mb", "MB", "lower"), ("load_s", "s", "lower"),
        ("analyze_s", "s", "lower"),
    ),
    *_layer("obs", "iter_per_s", ("rt_mp4_adaptive",), ("ring_drops", "count", "lower")),
    *_layer(
        "runtime", "iter_per_s", RT,
        ("pull_us_p50", "us", "lower"), ("pull_us_p99", "us", "lower"),
        ("push_us_p50", "us", "lower"), ("push_us_p99", "us", "lower"),
        ("grad_us_p50", "us", "lower"),
        ("notify_us_p50", "us", "lower"), ("notify_us_p99", "us", "lower"),
        ("busy_us_per_iter", "us", "lower"), ("efficiency", "ratio", "higher"),
        ("aborts", "count", "lower"), ("resyncs_sent", "count", "lower"),
        ("abort_honored_ratio", "ratio", "higher"), ("mean_staleness", "count", "lower"),
        ("startstop_s", "s", "lower"),
    ),
    *_layer(
        "runtime", "iter_per_s", ("rt_mp4_adaptive",),
        ("notify_queue_depth_max", "count", "lower"),
    ),
    *_layer("sim", "wall_s", ("des_mf40_adaptive",), ("ttc_s", "sim_s", "lower")),
    # The cost of looking, stated beside every layer number; moves nothing.
    *_layer(
        "bench", (), ALL,
        ("trace_overhead_ratio", "ratio", "lower"),
        ("tiling_residual_share", "ratio", "lower"),
    ),
)


def benchmark_json() -> Dict[str, object]:
    """The exact content BENCHMARK.json must have (the self-test compares)."""
    return {
        "command": ["python3", "-m", "benchmarks.suite"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END if m.in_contract
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
