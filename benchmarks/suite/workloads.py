"""The six workloads: how each is set up, run, checked and traced.

Imported only inside the workload subprocess (it imports NumPy and
``repro``).  The untraced path depends on ``Workload.build_engine``,
``TrainingEngine.run``, ``ThreadedRun``, ``MultiprocessRun``,
``obs.collecting``, ``obs.write_chrome_trace`` and ``obs.analyze_trace``
and nothing else; every other name below is a hook path that may go
unresolved without breaking a run.

The program under test never sees a workload name: a workload is only a
set of constructor arguments, and ``--seed`` feeds ``build_engine(seed=)``
/ ``ThreadedRun(seed=)`` / ``MultiprocessRun(seed=)`` alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.cluster.compute import ComputeTimeModel
from repro.cluster.spec import ClusterSpec
from repro.core.specsync import SpecSyncPolicy
from repro.core.tuning import AdaptiveTuner
from repro.experiments.common import CHERRYPICK_DEFAULTS
from repro.ml import SoftmaxRegressionModel, SyntheticImageDataset
from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.runtime import MultiprocessRun, ThreadedRun
from repro.sync import AspPolicy
from repro.workloads import matrix_factorization_workload, tiny_workload

from benchmarks.suite.tracing import Hook, SpanLog, install, percentile

__all__ = ["Outcome", "make_workload"]

_SHM_DIR = "/dev/shm"


@dataclass
class Outcome:
    """What one run of the timed region produced."""

    iterations: int
    #: SHA-256 of the simulated behaviour (DES only): equal across reps of
    #: a seed, and across commits unless simulated behaviour changed
    digest: Optional[str] = None
    sim_ttc_s: Optional[float] = None
    #: host seconds of consecutive slices of the timed region (simulated
    #: workloads only; same seed, same slices), for the undisturbed wall
    slices: Optional[List[float]] = None
    #: numbers the layer metrics are computed from
    facts: Dict[str, float] = field(default_factory=dict)


def _loss_checks(first: float, final: float, progress: bool) -> List[str]:
    failures = []
    if not math.isfinite(final):
        failures.append(f"final loss {final!r} is not finite")
    elif progress and not final < first:
        failures.append(f"final loss {final:.6g} not below first loss {first:.6g}")
    return failures


# ----------------------------------------------------------------------
# Simulated (DES) workloads
# ----------------------------------------------------------------------
DES_HOOKS = (
    Hook("ps.run", "engine.run"),
    Hook("events.run", "engine.sim.run"),
    Hook("events.schedule", "engine.sim.defer", "scheduling"),
    Hook("events.schedule", "engine.sim.schedule", "scheduling"),
    Hook("events.schedule", "engine.sim.schedule_at", "scheduling"),
    Hook("netsim.send", "engine.network.send", "send"),
    Hook("ml.grad", "engine.model.loss_and_grad"),
    Hook("ml.eval", "engine.model.loss"),
    Hook("ml.batch", "engine.workers[*].partition.sample_batch"),
    Hook("ps.apply", "engine.store.apply_push"),
    Hook("ps.snapshot", "engine.store.snapshot"),
    Hook("ps.resync", "engine.request_resync"),
    Hook("metrics.record", "engine.traces.record_pull"),
    Hook("metrics.record", "engine.traces.record_push"),
    Hook("metrics.record", "engine.traces.record_abort"),
    Hook("metrics.record", "engine.curve.add"),
    Hook("cluster.sample", "engine.workers[*].compute_model.sample_at", "sum"),
)
CORE_HOOKS = (
    Hook("core.notify", "engine.policy.scheduler.handle_notify"),
    Hook("core.tune", "engine.policy.tuner.retune"),
)


class Des:
    """A discrete-event run: timed region is ``engine.run()``."""

    def __init__(
        self,
        preset: Callable,
        workers: int,
        policy: Callable,
        horizon_s: float,
        quick_horizon_s: float,
        quick: bool,
        converges: bool = False,
        progress: bool = True,
        core: bool = True,
    ):
        self.preset = preset()
        self.workers = workers
        self.policy = policy
        self.horizon_s = quick_horizon_s if quick else horizon_s
        #: the reduced horizon ends before convergence, and inside MF's
        #: early loss transient, so --quick skips both checks
        self.converges = converges and not quick
        self.progress = progress and not quick
        self.hooks = DES_HOOKS + CORE_HOOKS if core else DES_HOOKS

    def _engine(self, seed: int, horizon_s: float):
        return self.preset.build_engine(
            ClusterSpec.homogeneous(self.workers), self.policy(), seed=seed,
            horizon_s=horizon_s,
        )

    def warm_up(self, seed: int) -> None:
        self._engine(seed, min(60.0, self.horizon_s)).run()

    def set_up(self, seed: int) -> SimpleNamespace:
        state = SimpleNamespace(engine=self._engine(seed, self.horizon_s), marks=[])
        _mark_evaluations(state)
        return state

    def discard(self, state: SimpleNamespace) -> None:
        """Release a set-up that will not be run."""

    def run(self, state: SimpleNamespace) -> Outcome:
        state.marks.append(time.perf_counter())
        state.result = state.engine.run()
        state.marks.append(time.perf_counter())
        return self._outcome(state)

    def _outcome(self, state: SimpleNamespace) -> Outcome:
        engine, result = state.engine, state.result
        ttc = result.time_to_convergence(self.preset.convergence) if self.converges else None
        digest = hashlib.sha256(repr((
            result.total_iterations, engine.sim.events_fired, result.total_aborts,
            tuple(w.iterations for w in result.worker_stats),
            result.total_transfer_bytes, repr(result.final_loss), ttc,
        )).encode()).hexdigest()
        slices = [end - start for start, end in zip(state.marks, state.marks[1:])]
        return Outcome(engine.store.version, digest=digest, sim_ttc_s=ttc, slices=slices)

    def check(self, state: SimpleNamespace, outcome: Outcome) -> List[str]:
        engine, result = state.engine, state.result
        failures = _loss_checks(result.curve[0].loss, result.final_loss, self.progress)
        version = engine.store.version
        if len(result.traces.pushes) != version:
            failures.append(
                f"store.version {version} != {len(result.traces.pushes)} recorded pushes"
            )
        # A push applied but not yet acked at the horizon is in the store
        # and not yet in its worker's count: at most one per worker.
        if not 0 <= version - result.total_iterations <= self.workers:
            failures.append(
                f"store.version {version} vs {result.total_iterations} worker pushes"
            )
        if self.converges and outcome.sim_ttc_s is None:
            failures.append(f"did not converge within horizon {self.horizon_s}")
        return failures

    # -- traced run ----------------------------------------------------
    def instrument(self, state: SimpleNamespace, log: SpanLog) -> List[str]:
        return install(log, state, self.hooks)

    def layer_facts(self, state: SimpleNamespace, seed: int) -> Dict[str, float]:
        """Counts read off the finished engine, each guarded so a renamed
        attribute loses one number instead of the record."""
        engine, result = state.engine, state.result
        summary = result.policy_summary
        return {
            "events.fired": _read(lambda: engine.sim.events_fired),
            "netsim.messages": _read(lambda: engine.network.messages_sent),
            "netsim.bytes": _read(lambda: result.total_transfer_bytes),
            "wasted_compute_s": _read(lambda: result.traces.total_wasted_compute()),
            "core.checks": summary.get("checks_run"),
            "core.resyncs_sent": summary.get("resyncs_sent"),
            "resyncs_honored": summary.get("resyncs_honored"),
        }


def _mark_evaluations(state: SimpleNamespace) -> None:
    """Cut the timed region into slices at the engine's periodic loss
    evaluations (some tens per run) by time-stamping ``model.loss``.

    This sandbox stalls a process in bursts that come in episodes of
    seconds to minutes; reps of one seed do identical work slice by slice,
    so the fastest execution of each slice across reps adds up to the
    run's undisturbed wall.  The one hook on the untraced path: a few
    dozen ``perf_counter()`` calls per run, and without it the rep is a
    single slice.
    """
    model = getattr(state.engine, "model", None)
    loss = getattr(model, "loss", None)
    if loss is None:
        return
    marks = state.marks

    def loss_marked(*args, **kwargs):
        marks.append(time.perf_counter())
        return loss(*args, **kwargs)

    model.loss = loss_marked


def _read(getter: Callable) -> Optional[float]:
    try:
        return getter()
    except AttributeError:
        return None


class Observe(Des):
    """The DES run with obs enabled, then the exporter and the analysis
    read path: engine.run -> write_chrome_trace -> json.loads ->
    analyze_trace -> render_analysis_text."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hooks += (
            Hook("obs.export", "export"),
            Hook("obs.load", "load"),
            Hook("obs.analyze", "analyze"),
            Hook("obs.render", "render"),
        )

    def set_up(self, seed: int) -> SimpleNamespace:
        # Tracers bind at construction, so the engine is built inside
        # collecting(); run() leaves the context after the export.
        stack = contextlib.ExitStack()
        collector = stack.enter_context(obs.collecting())
        try:
            engine = self._engine(seed, self.horizon_s)
        except BaseException:
            stack.close()
            raise
        state = SimpleNamespace(
            engine=engine, stack=stack, collector=collector, marks=[],
            export=obs.write_chrome_trace, load=json.loads,
            analyze=obs.analyze_trace, render=obs.render_analysis_text,
        )
        _mark_evaluations(state)
        return state

    def discard(self, state: SimpleNamespace) -> None:
        state.stack.close()

    def run(self, state: SimpleNamespace) -> Outcome:
        buffer = io.StringIO()
        mark = lambda: state.marks.append(time.perf_counter())  # stage boundaries
        with state.stack:
            started = time.perf_counter()
            state.marks.append(started)
            state.result = state.engine.run()
            engine_run_s = time.perf_counter() - started
            mark()
            state.exported = state.export(state.collector, buffer)
        text = buffer.getvalue()
        mark()
        state.trace = state.load(text)
        mark()
        state.analysis = state.analyze(state.trace)
        mark()
        state.report = state.render(state.analysis)
        mark()
        outcome = self._outcome(state)
        outcome.facts.update({
            "engine_run_s": engine_run_s,
            "obs.trace_events": state.exported,
            "obs.export_mb": len(text) / 1e6,
        })
        return outcome

    def check(self, state: SimpleNamespace, outcome: Outcome) -> List[str]:
        failures = super().check(state, outcome)
        loaded = len(state.trace["traceEvents"])
        if loaded != state.exported:
            failures.append(f"exported {state.exported} events, loaded {loaded}")
        for run in state.analysis["runs"]:
            path = run["critical_path"]
            total = sum(path["by_category"].values())
            if abs(total - path["total_s"]) > 1e-6:
                failures.append(
                    f"critical-path categories sum to {total}, total {path['total_s']}"
                )
        if not state.analysis["runs"] or not state.report:
            failures.append("analysis produced no run or an empty report")
        return failures

    def layer_facts(self, state: SimpleNamespace, seed: int) -> Dict[str, float]:
        facts = super().layer_facts(state, seed)
        # The same seed with the tracer disabled: the difference is what
        # the enabled write path costs inside engine.run().
        plain = self._engine(seed, self.horizon_s)
        started = time.perf_counter()
        plain.run()
        facts["plain_engine_run_s"] = time.perf_counter() - started
        return facts


# ----------------------------------------------------------------------
# Wall-clock (runtime) workloads
# ----------------------------------------------------------------------
THREADED_HOOKS = (
    Hook("runtime.pull", "run.server.pull"),
    Hook("runtime.push", "run.server.push"),
    Hook("runtime.grad", "run.model.loss_and_grad"),
    Hook("runtime.notify", "run.scheduler.handle_notify"),
    Hook("core.tune", "run.scheduler.inner.tuner.retune"),
    Hook("ml.batch", "run.workers[*].partition.sample_batch"),
)

_RT_WORKERS = 4
_RT_MEAN_COMPUTE_S = 3.0
#: Ring size for the traced multiprocess run: large enough to hold a whole
#: run, so the harness drains once afterwards and adds no polling thread.
_RING_BYTES = 16 * 1024 * 1024


class Runtime:
    """A wall-clock run of fixed duration: timed region is ``run.run(d)``."""

    def __init__(self, backend: type, time_scale: float, duration_s: float):
        self.backend = backend
        self.time_scale = time_scale
        self.duration_s = duration_s
        self.multiprocess = backend is MultiprocessRun
        self.hooks = () if self.multiprocess else THREADED_HOOKS

    def warm_up(self, seed: int) -> None:
        state = self.set_up(seed)
        state.run.run(min(1.0, self.duration_s / 2))

    def set_up(self, seed: int) -> SimpleNamespace:
        dataset = SyntheticImageDataset(
            num_classes=64, feature_dim=512, num_samples=800, warp=False, seed=0,
            class_separation=3.0,  # at the default 2.0 the eval loss never falls
        )
        model = SoftmaxRegressionModel(input_dim=512, num_classes=64)
        state = SimpleNamespace(
            threads_before=threading.active_count(),
            shm_before=set(os.listdir(_SHM_DIR)),
            first_loss=model.loss(
                model.init_params(np.random.default_rng(0)), dataset.eval_batch()
            ),
            session=None,
        )
        state.run = self.backend(
            model=model,
            partitions=dataset.partition(_RT_WORKERS, np.random.default_rng(0)),
            eval_batch=dataset.eval_batch(),
            update_rule=SgdUpdateRule(ConstantSchedule(0.05)),
            compute_model=ComputeTimeModel(_RT_MEAN_COMPUTE_S, jitter_sigma=0.1),
            batch_size=32,
            time_scale=self.time_scale,
            tuner=AdaptiveTuner(),
            seed=seed,
        )
        return state

    def discard(self, state: SimpleNamespace) -> None:
        """Nothing is started or allocated before ``run.run()``."""

    def run(self, state: SimpleNamespace) -> Outcome:
        try:
            state.result = state.run.run(self.duration_s)
        finally:
            if state.session is not None:
                state.live = _drain_live(state.session)
        return Outcome(state.result.total_iterations)

    def check(self, state: SimpleNamespace, outcome: Outcome) -> List[str]:
        result = state.result
        failures = _loss_checks(state.first_loss, result.final_loss, progress=True)
        if self.multiprocess:
            per_worker = list(result.per_worker_iterations.values())
        else:
            per_worker = [worker.iterations for worker in state.run.workers]
        if len(per_worker) != _RT_WORKERS or min(per_worker) < 1:
            failures.append(f"a worker completed no iteration: {per_worker}")
        # A worker stopped while waiting for its ack has a push applied
        # that it did not count: at most one per worker.
        if not 0 <= result.total_iterations - sum(per_worker) <= _RT_WORKERS:
            failures.append(
                f"store.version {result.total_iterations} vs worker pushes {per_worker}"
            )
        if result.resyncs_sent <= 0:
            failures.append("no re-sync was sent")
        if result.total_aborts > result.resyncs_sent:
            failures.append(
                f"{result.total_aborts} aborts > {result.resyncs_sent} re-syncs sent"
            )
        children = multiprocessing.active_children()
        if children:
            failures.append(f"child processes still alive: {children}")
        deadline = time.monotonic() + 2.0  # cancelled Timer threads exit async
        while threading.active_count() > state.threads_before and time.monotonic() < deadline:
            time.sleep(0.01)
        if threading.active_count() > state.threads_before:
            failures.append(
                f"{threading.active_count()} threads alive, {state.threads_before} before"
            )
        leaked = set(os.listdir(_SHM_DIR)) - state.shm_before
        if leaked:
            failures.append(f"shared-memory segments left behind: {sorted(leaked)}")
        return failures

    # -- traced run ----------------------------------------------------
    def instrument(self, state: SimpleNamespace, log: SpanLog) -> List[str]:
        if not self.multiprocess:
            return install(log, state, self.hooks)
        # The work happens in forked children, out of reach of wrappers:
        # the run's own live-telemetry rings carry the spans instead.
        if not hasattr(state.run, "live_session"):
            return ["run.live_session"]
        from repro.obs.live.session import LiveTelemetrySession

        state.session = LiveTelemetrySession.create(_RT_WORKERS, ring_bytes=_RING_BYTES)
        state.run.live_session = state.session
        return []

    def layer_facts(self, state: SimpleNamespace, seed: int) -> Dict[str, float]:
        result = state.result
        ceiling = _RT_WORKERS / (_RT_MEAN_COMPUTE_S * self.time_scale)
        facts = {
            "runtime.efficiency": result.total_iterations / result.wall_time_s / ceiling,
            "runtime.aborts": result.total_aborts,
            "runtime.resyncs_sent": result.resyncs_sent,
            "runtime.abort_honored_ratio": (
                result.total_aborts / result.resyncs_sent if result.resyncs_sent else None
            ),
            "runtime.mean_staleness": result.mean_staleness,
            "runtime.startstop_s": result.wall_time_s - self.duration_s,
        }
        if state.session is not None:
            facts.update(_live_facts(state.live, result.total_iterations))
        return facts


def _drain_live(session) -> SimpleNamespace:
    """Drain every ring once, after the run, and free the segments."""
    try:
        aggregator = session.aggregator()
        depth_max = 0.0
        now = time.monotonic()
        for source in session.sources():
            for record in session.ring(source).drain():
                if getattr(record, "name", None) == "rt.queue.notify_depth":
                    depth_max = max(depth_max, record.value)
                aggregator.apply(source, record, recv_ts=now)
        collector = obs.TraceCollector()
        aggregator.drain_to_collector(collector)
        return SimpleNamespace(
            snapshot=aggregator.snapshot(now), records=collector.records,
            notify_depth_max=depth_max,
        )
    finally:
        session.close()
        session.unlink()


def _live_facts(live: SimpleNamespace, iterations: int) -> Dict[str, float]:
    """Per-operation latencies from the drained worker spans.  A worker's
    ring is in program order, so what an ``iteration`` span does not spend
    in pull, compute or push is batch sampling + gradient + notify put,
    reported as ``runtime.grad_us_p50``."""
    by_name: Dict[str, List[float]] = {"pull": [], "push": [], "other": []}
    inside: Dict[str, float] = {}
    for record in live.records:
        if not isinstance(record, obs.SpanRecord) or not record.track.startswith("rt.worker-"):
            continue
        duration = record.end - record.start
        if record.name == "iteration":
            by_name["other"].append(duration - inside.pop(record.track, 0.0))
            continue
        inside[record.track] = inside.get(record.track, 0.0) + duration
        if record.name in by_name:
            by_name[record.name].append(duration)
    counters = live.snapshot["counters"]
    busy_s = sum(sum(values) for values in by_name.values())
    return {
        "runtime.pull_us_p50": 1e6 * percentile(by_name["pull"], 0.50),
        "runtime.pull_us_p99": 1e6 * percentile(by_name["pull"], 0.99),
        "runtime.push_us_p50": 1e6 * percentile(by_name["push"], 0.50),
        "runtime.push_us_p99": 1e6 * percentile(by_name["push"], 0.99),
        "runtime.grad_us_p50": 1e6 * percentile(by_name["other"], 0.50),
        "runtime.busy_us_per_iter": 1e6 * busy_s / iterations if iterations else None,
        "runtime.notify_queue_depth_max": live.notify_depth_max,
        "ps.shm_reads": counters.get("shm.param.reads"),
        "ps.shm_torn_retries": counters.get("shm.param.torn_read_retries"),
        "ps.shm_fence_waits": counters.get("shm.param.fence_waits"),
        "obs.ring_drops": live.snapshot["totals"]["dropped_records"],
    }


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def make_workload(name: str, quick: bool, seconds: float):
    """Construct the named workload.  ``seconds`` sizes the wall-clock
    runs (three reps fill the timed region); DES inputs never change with
    it — only the number of reps does."""
    mf, tiny = matrix_factorization_workload, tiny_workload
    cherrypick = lambda name: lambda: SpecSyncPolicy.cherrypick(CHERRYPICK_DEFAULTS[name])
    duration_s = 0.6 if quick else min(6.0, seconds / 3)
    if name == "des_mf40_adaptive":
        # Fixed horizon past every seed's convergence (348-384 s measured
        # over seeds 1-12) rather than early_stop: host work is then the
        # same for every seed, and sim_ttc_s is read off the loss curve.
        return Des(mf, 40, SpecSyncPolicy.adaptive, 480.0, 60.0, quick, converges=True)
    if name == "des_mf40_asp":
        # ASP at m=40 is still in its unstable early phase at t=400 (the
        # instability SpecSync removes, Fig. 8), so no progress check.
        return Des(mf, 40, AspPolicy, 400.0, 50.0, quick, progress=False, core=False)
    if name == "des_tiny160_cherrypick":
        return Des(tiny, 160, cherrypick("tiny"), 75.0, 20.0, quick)
    if name == "observe_mf40_cherrypick":
        return Observe(mf, 40, cherrypick("mf"), 100.0, 25.0, quick)
    if name == "rt_threaded4_adaptive":
        return Runtime(ThreadedRun, 0.002, duration_s)
    if name == "rt_mp4_adaptive":
        return Runtime(MultiprocessRun, 0.004, duration_s)
    raise ValueError(f"unknown workload {name!r}")
