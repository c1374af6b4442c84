"""One report on every substrate: ``repro analyze`` reads a DES, a
threaded and a multiprocess capture of the same seed through one schema,
phase percentiles and straggler verdicts included.

The multiprocess run is captured twice at once: drained from its live
session (every worker's spans) and by the parent's collector alone (the
parent's view only — its workers' spans went to their rings), which the
gate must flag instead of passing an empty analysis.  The live session's
snapshot — what ``repro top --json`` prints — is the same document as
``repro analyze`` of the drained file.
"""

import json

import numpy as np
import pytest

from repro import ClusterSpec, SpecSyncPolicy, obs
from repro.cli import main
from repro.cluster.compute import ComputeTimeModel
from repro.core.tuning import AdaptiveTuner
from repro.ml import SoftmaxRegressionModel, SyntheticImageDataset
from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.obs.live import LiveTelemetrySession, TelemetryAggregator, render_frame
from repro.runtime import MultiprocessRun, ThreadedRun
from repro.workloads import tiny_workload

SEED = 3
WORKERS = 4


def _wall_clock_run(backend, **kwargs):
    dataset = SyntheticImageDataset(
        num_classes=3, feature_dim=8, num_samples=800,
        class_separation=3.0, warp=False, seed=0,
    )
    return backend(
        model=SoftmaxRegressionModel(input_dim=8, num_classes=3),
        partitions=dataset.partition(WORKERS, np.random.default_rng(0)),
        eval_batch=dataset.eval_batch(),
        update_rule=SgdUpdateRule(ConstantSchedule(0.2)),
        compute_model=ComputeTimeModel(mean_time_s=3.0, jitter_sigma=0.1),
        batch_size=32,
        time_scale=0.004,
        tuner=AdaptiveTuner(),
        seed=SEED,
        **kwargs,
    )


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    """Per substrate: the trace file, each worker track's iterations and
    the re-syncs the scheduler sent; and the live snapshot of the
    multiprocess run."""
    directory = tmp_path_factory.mktemp("one_report")

    def write(name, collector):
        path = directory / f"{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            obs.write_chrome_trace(collector, handle)
        return path

    captured = {}
    with obs.collecting() as collector:
        result = tiny_workload().run(
            ClusterSpec.homogeneous(WORKERS), SpecSyncPolicy.adaptive(),
            seed=SEED, horizon_s=30.0,
        )
    captured["des"] = (write("des", collector), {
        f"worker-{w.worker_id}": w.iterations for w in result.worker_stats
    }, result.policy_summary["resyncs_sent"])

    with obs.collecting() as collector:
        threaded = _wall_clock_run(ThreadedRun)
        result = threaded.run(0.4)
    captured["threads"] = (write("threads", collector), {
        f"rt.worker-{w.worker_id}": w.iterations for w in threaded.workers
    }, result.resyncs_sent)

    session = LiveTelemetrySession.create(num_workers=WORKERS)
    try:
        with obs.collecting() as collector:
            result = _wall_clock_run(MultiprocessRun, live_session=session).run(0.4)
        aggregator = session.aggregator()
        aggregator.poll()
        captured["live snapshot"] = aggregator.snapshot()
        drained = obs.TraceCollector()
        aggregator.drain_to_collector(drained)
    finally:
        session.close()
        session.unlink()
    captured["processes"] = (write("processes", drained), {
        f"rt.worker-{worker}": count
        for worker, count in result.per_worker_iterations.items()
    }, result.resyncs_sent)
    captured["collector only"] = (write("collector_only", collector), None, None)
    return captured


@pytest.mark.parametrize("substrate", ["des", "threads", "processes"])
def test_one_report_on_every_substrate(captures, substrate, capsys):
    path, iterations, _ = captures[substrate]
    capsys.readouterr()
    code = main(["analyze", str(path), "--format", "json", "--fail-on", "warning"])
    assert code == 0
    analysis = json.loads(capsys.readouterr().out)
    (run,) = analysis["runs"]
    pushes = {
        track: worker["pushes"]
        for track, worker in run["ledger"]["per_worker"].items()
    }
    assert pushes == iterations
    assert sum(pushes.values()) > 0
    assert analysis["recording"]["metrics"]


@pytest.mark.parametrize("substrate", ["des", "threads", "processes"])
def test_phases_and_detectors_on_every_substrate(captures, substrate):
    """Every substrate gets its phases and straggler verdict from the same
    worker spans — not from whichever online detector it happened to host."""
    path, _, _ = captures[substrate]
    with open(path, encoding="utf-8") as handle:
        (run,) = obs.analyze_trace(json.load(handle))["runs"]
    pushes = sum(worker["pushes"] for worker in run["ledger"]["per_worker"].values())
    assert run["phases"]["iteration"]["count"] == pushes > 0
    assert run["phases"]["push"]["count"] == pushes
    straggler = run["detectors"]["straggler"]
    assert straggler["num_workers"] == WORKERS
    assert straggler["total_pushes"] == pushes
    assert isinstance(straggler["stragglers"], list)


@pytest.mark.parametrize("substrate", ["des", "threads", "processes"])
def test_aborts_counted_once_on_every_substrate(captures, substrate):
    """Every abort is one aborted compute span — the wall-clock worker's
    span carries no args, so it is known by the abort instant it ends at —
    and draws at most one arrow, decision → abort (exactly one per re-sync
    on the DES, where every re-sync here is honoured)."""
    path, _, resyncs_sent = captures[substrate]
    with open(path, encoding="utf-8") as handle:
        analysis = obs.analyze_trace(json.load(handle))
    (run,) = analysis["runs"]
    aborts = run["ledger"]["total_aborts"]
    assert run["phases"]["compute_aborted"]["count"] == aborts > 0
    arrows = analysis["recording"]["flow_pairs"].get("abort", 0)
    assert arrows <= resyncs_sent
    if substrate == "des":
        assert arrows == resyncs_sent


def test_live_snapshot_is_the_analysis_of_the_drained_file(captures, capsys):
    snapshot = captures["live snapshot"]
    path, _, _ = captures["processes"]
    capsys.readouterr()
    assert main(["analyze", str(path), "--format", "json"]) == 0
    analysis = json.loads(capsys.readouterr().out)
    assert set(snapshot) == set(analysis) | {"totals", "counters"}
    assert snapshot["runs"] == analysis["runs"]
    empty = TelemetryAggregator().snapshot()
    assert empty["runs"] == []
    assert render_frame(empty).startswith("repro top — live telemetry (0 records")


def test_collector_only_multiprocess_capture_trips_the_gate(captures, capsys):
    path, _, _ = captures["collector only"]
    capsys.readouterr()
    assert main(["analyze", str(path), "--fail-on", "warning"]) == 1
    err = capsys.readouterr().err
    assert "TRACE-NO-WORKER-SPANS" in err
    assert "repro top --drain" in err
