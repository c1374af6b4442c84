"""The workload subprocess: one workload, measured, checked, reported.

``python -m benchmarks.suite.child --workload NAME ...`` prints one JSON
record as the last line of stdout.  The parent (``__main__``) starts it
with BLAS pinned to one thread; the pins are repeated here, before NumPy
is imported, so running the module by hand measures the same thing.
"""

from __future__ import annotations

import os

from benchmarks.suite import spec

os.environ.update({variable: "1" for variable in spec.SINGLE_THREAD_ENV})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from benchmarks.suite.tracing import SpanLog, percentile  # noqa: E402

#: Set-ups made (and thrown away) before each rep, so ``setup_s`` is the
#: median of at least ten samples spread over the whole run: a burst of
#: interference then touches a minority of them.
EXTRA_SETUPS = 4


def environment() -> Dict[str, object]:
    import numpy

    try:  # NumPy >= 1.25
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_1m": os.getloadavg()[0],
    }


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _summary(values: List[float], unit: str) -> Dict[str, object]:
    """Median as the value, with min, quartiles and count beside it."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "value": median, "unit": unit, "median": median,
        "min": min(values), "q1": q1, "q3": q3, "n": len(values),
    }


def undisturbed_wall_s(reps: List[Dict[str, object]]) -> Optional[float]:
    """Sum over slices of each slice's fastest execution across reps.

    Interference in this sandbox only ever adds time, in bursts shorter
    than a rep; reps of one seed do identical work slice by slice, so
    this is the wall of a run no burst touched.  ``None`` when the reps
    carry no comparable slices (wall-clock workloads, or a digest mismatch).
    """
    slices = [rep.get("slices") for rep in reps]
    if not all(slices) or len({len(s) for s in slices}) != 1:
        return None
    return sum(min(column) for column in zip(*slices))


def one_rep(workload, seed: int, log: Optional[SpanLog] = None) -> Dict[str, object]:
    """Set up, run the timed region, check.  Never raises: a rep that
    raises is a failed rep with its traceback on stderr."""
    rep: Dict[str, object] = {"failures": [], "traced": log is not None}
    try:
        gc.collect()
        state, rep["setup_s"] = _timed(lambda: workload.set_up(seed))
        run = lambda: workload.run(state)
        if log is not None:
            rep["unresolved_hooks"] = workload.instrument(state, log)
            run = log.wrap(run, "bench.root")
        cpu_started = time.process_time()
        outcome, rep["wall_s"] = _timed(run)
        # Beside the wall: a rep whose wall grew and whose CPU did not was
        # descheduled, not slowed.
        rep["cpu_s"] = time.process_time() - cpu_started
        rep["iterations"] = outcome.iterations
        rep["iter_per_s"] = outcome.iterations / rep["wall_s"]
        rep["sim_digest"] = outcome.digest
        rep["sim_ttc_s"] = outcome.sim_ttc_s
        rep["slices"] = outcome.slices
        rep["failures"] = workload.check(state, outcome)
        if log is not None:
            outcome.facts.update(workload.layer_facts(state, seed))
        rep["facts"] = outcome.facts
    except Exception:  # the rep boundary: report, count as failed, go on
        traceback.print_exc()
        rep["failures"] = [f"raised {sys.exc_info()[0].__name__}: {sys.exc_info()[1]}"]
    return rep


def per_iteration_s(reps: List[Dict[str, object]]) -> float:
    """Least-disturbed host seconds per applied push over ``reps``."""
    wall = undisturbed_wall_s(reps)
    if wall is not None:
        return wall / reps[0]["iterations"]
    return min(rep["wall_s"] / rep["iterations"] for rep in reps)


def measure(workload, name: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    """The whole protocol for one workload; returns the run record."""
    record: Dict[str, object] = {
        "workload": name, "seed": seed, "traced": traced, "env": environment(),
    }
    workload.warm_up(seed)
    # At least three reps, so each slice has three chances to run
    # undisturbed; a traced run (and --quick) stops at two and a traced
    # run spends its time on two traced reps.
    reps: List[Dict[str, object]] = []
    setups: List[float] = []
    elapsed = 0.0
    while True:
        for _ in range(EXTRA_SETUPS):
            state, setup_s = _timed(lambda: workload.set_up(seed))
            workload.discard(state)
            setups.append(setup_s)
        rep = one_rep(workload, seed)
        reps.append(rep)
        if "wall_s" not in rep:
            break
        elapsed += rep["wall_s"]
        enough = 2 if traced or not seconds else 3
        if len(reps) >= enough and (traced or elapsed >= seconds - 0.5 * rep["wall_s"]):
            break
    untraced = [rep for rep in reps if "wall_s" in rep]
    logs = [SpanLog(), SpanLog()] if traced else []
    traced_reps = [one_rep(workload, seed, log) for log in logs]
    reps += traced_reps

    digests = {rep["sim_digest"] for rep in reps if rep.get("sim_digest")}
    if len(digests) > 1:  # same seed, different simulated behaviour
        for rep in reps:
            rep["failures"].append(f"sim_digest differs between reps: {sorted(digests)}")
    record["reps"] = reps
    record["attempted"] = len(reps)
    record["failed"] = sum(1 for rep in reps if rep["failures"])
    record["sim_digest"] = next(iter(digests)) if len(digests) == 1 else None

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics: Dict[str, object] = {}
    if untraced:
        setups += [rep["setup_s"] for rep in untraced]
        metrics["setup_s"] = _summary(setups, "s")
        metrics["wall_s"] = _summary([rep["wall_s"] for rep in untraced], "s")
        metrics["iter_per_s"] = _summary([rep["iter_per_s"] for rep in untraced], "iter/s")
        undisturbed = undisturbed_wall_s(untraced)
        if undisturbed is not None:
            # Simulated workloads report the undisturbed wall; the median
            # over reps stays beside it.
            metrics["wall_s"]["value"] = undisturbed
            metrics["iter_per_s"]["value"] = 1.0 / per_iteration_s(untraced)
        metrics["peak_rss_mb"] = {"value": usage / 1024.0, "unit": "MB"}
        ttc = [rep["sim_ttc_s"] for rep in untraced if rep["sim_ttc_s"] is not None]
        if ttc:
            metrics["sim_ttc_s"] = _summary(ttc, "sim_s")
    metrics["failed_share"] = {"value": record["failed"] / len(reps), "unit": "ratio"}
    record["metrics"] = metrics
    done = [(rep, log) for rep, log in zip(traced_reps, logs) if "facts" in rep]
    if done and untraced:
        # Interference only adds time: the layer split is read off the
        # faster traced rep, the overhead ratio off both pairs.
        rep, log = min(done, key=lambda pair: pair[0]["wall_s"])
        rep["facts"]["trace_overhead_ratio"] = (
            per_iteration_s([rep for rep, _ in done]) / per_iteration_s(untraced)
        )
        if "engine_run_s" in rep["facts"]:
            rep["facts"]["obs.trace_overhead_s"] = (
                min(r["facts"]["engine_run_s"] for r in untraced)
                - min(r["facts"]["plain_engine_run_s"] for r, _ in done)
            )
        totals = log.totals()
        record["unresolved_hooks"] = rep["unresolved_hooks"]
        record["layers"] = layer_metrics(log, totals, rep)
        # The raw split behind the layer metrics: self seconds per span
        # name on the thread that ran the timed region sum to its wall.
        record["tiling"] = {
            "traced_wall_s": totals["bench.root"].total_s,
            "self_s_by_span": {name: entry.self_s for name, entry in totals.items()},
            "spans": log.span_count(),
        }
    return record


def layer_metrics(log: SpanLog, totals: Dict, traced: Dict) -> Dict[str, Optional[float]]:
    """Every per-layer metric of ``spec.PER_LAYER`` for one traced rep.

    ``None`` marks a metric whose hook did not resolve (or that does not
    exist on this workload's substrate); 0 is a measured zero.
    """
    facts: Dict[str, Optional[float]] = traced["facts"]

    def self_s(*names: str) -> Optional[float]:
        present = [totals[name].self_s for name in names if name in totals]
        return sum(present) if present else None

    def calls(name: str) -> Optional[int]:
        return totals[name].calls if name in totals else None

    def per(seconds: Optional[float], count: Optional[float]) -> Optional[float]:
        return 1e6 * seconds / count if seconds is not None and count else None

    values: Dict[str, Optional[float]] = dict(facts)
    values.update({
        "events.self_s": self_s("events.run", "events.schedule"),
        "netsim.send_s": self_s("netsim.send", "netsim.callback"),
        "ml.grad_s": self_s("ml.grad", "runtime.grad"),
        "ml.grad_calls": calls("ml.grad") or calls("runtime.grad"),
        "ml.batch_s": self_s("ml.batch"),
        "ml.eval_s": self_s("ml.eval"),
        "ml.eval_calls": calls("ml.eval"),
        "ps.apply_s": self_s("ps.apply"),
        "ps.apply_calls": calls("ps.apply"),
        "ps.snapshot_s": self_s("ps.snapshot"),
        "ps.snapshot_calls": calls("ps.snapshot"),
        "ps.engine_self_s": self_s("ps.run", "ps.callback", "ps.resync"),
        "core.tune_s": self_s("core.tune"),
        "core.tune_calls": calls("core.tune"),
        "core.notify_s": self_s("core.notify"),
        "core.notify_calls": calls("core.notify"),
        "core.check_s": self_s("core.callback"),
        "metrics.record_s": self_s("metrics.record"),
        "metrics.record_calls": calls("metrics.record"),
        "cluster.sample_s": self_s("cluster.sample"),
        "obs.export_s": self_s("obs.export"),
        "obs.load_s": self_s("obs.load"),
        "obs.analyze_s": self_s("obs.analyze", "obs.render"),
        "sim.ttc_s": traced["sim_ttc_s"],
    })
    values["events.us_per_event"] = per(values["events.self_s"], facts.get("events.fired"))
    values["netsim.us_per_msg"] = per(values["netsim.send_s"], facts.get("netsim.messages"))
    values["ml.us_per_grad"] = per(values["ml.grad_s"], values["ml.grad_calls"])
    if facts.get("resyncs_honored") is not None and facts.get("core.resyncs_sent"):
        values["core.resync_honored_ratio"] = (
            facts["resyncs_honored"] / facts["core.resyncs_sent"]
        )
    # Useful share of virtual compute seconds: what aborts threw away
    # against what completed iterations spent (mean sampled duration each).
    wasted, samples = facts.get("wasted_compute_s"), calls("cluster.sample")
    if wasted is not None and samples:
        useful = traced["iterations"] * log.result_sums["cluster.sample"] / samples
        values["ps.useful_compute_share"] = useful / (useful + wasted)
    values["obs.us_per_trace_event"] = per(
        facts.get("obs.trace_overhead_s"), facts.get("obs.trace_events")
    )
    for name in ("pull", "push", "notify"):
        durations = log.durations(f"runtime.{name}")
        if durations:
            values[f"runtime.{name}_us_p50"] = 1e6 * percentile(durations, 0.50)
            values[f"runtime.{name}_us_p99"] = 1e6 * percentile(durations, 0.99)
    if "runtime.grad" in totals:
        values["runtime.grad_us_p50"] = 1e6 * percentile(log.durations("runtime.grad"), 0.5)
        busy_s = sum(
            totals[name].total_s
            for name in ("runtime.pull", "runtime.grad", "runtime.push", "runtime.notify")
            if name in totals
        )
        values["runtime.busy_us_per_iter"] = per(busy_s, traced["iterations"])

    # The cost of looking: host seconds per applied push, traced / untraced.
    values["bench.trace_overhead_ratio"] = facts["trace_overhead_ratio"]
    if "runtime.efficiency" not in facts:
        # The timed region runs on one thread, so span self times tile the
        # root exactly; whatever the layer metrics do not name (the root's
        # own glue, callbacks owned by an unlisted module) is the residual.
        root_s = totals["bench.root"].total_s
        named = sum(values[name] or 0.0 for name in TILING)
        values["bench.tiling_residual_share"] = (root_s - named) / root_s
    return {metric.name: values.get(metric.name) for metric in spec.PER_LAYER}


#: The layer self times that, with ``bench.tiling_residual_share``, sum to
#: the traced wall on the single-threaded (DES / observe) workloads.
TILING = (
    "events.self_s", "netsim.send_s", "ml.grad_s", "ml.batch_s", "ml.eval_s",
    "ps.apply_s", "ps.snapshot_s", "ps.engine_self_s", "core.tune_s",
    "core.notify_s", "core.check_s", "metrics.record_s", "cluster.sample_s",
    "obs.export_s", "obs.load_s", "obs.analyze_s",
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    args = parser.parse_args(argv)

    from benchmarks.suite.workloads import make_workload

    workload = make_workload(args.workload, bool(args.quick), args.seconds)
    seconds = 0.0 if args.quick else args.seconds  # --quick: the minimum of reps
    record = measure(workload, args.workload, args.seed, seconds, bool(args.traced))
    record["quick"] = bool(args.quick)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
