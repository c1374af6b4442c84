"""One arrow per abort: the trace keeps each re-sync's cause without a
flow arrow per contributing peer push.

The scheduler stages one flow origin per decision.  The pushes behind
it are the other workers' ``notify`` instants in (``window_start``,
decision ts], so they can be listed from the trace, and the trace stays
the same size per push however many workers there are.
"""

from repro import ClusterSpec, SpecSyncPolicy, obs
from repro.experiments.common import CHERRYPICK_DEFAULTS
from repro.obs.analysis.graph import CausalGraph
from repro.obs.perfetto import to_chrome_trace
from repro.workloads import tiny_workload

SEED = 3


def _traced(policy, workers, horizon_s):
    with obs.collecting() as collector:
        result = tiny_workload().run(
            ClusterSpec.homogeneous(workers), policy, seed=SEED, horizon_s=horizon_s,
        )
    return result, to_chrome_trace(collector)


def test_each_abort_arrow_lists_its_pushes_through_notify_instants():
    result, trace = _traced(SpecSyncPolicy.adaptive(), 16, 30.0)
    (run,) = CausalGraph.from_trace(trace).runs
    decisions = {
        (instant.args["worker"], instant.ts): instant.args
        for instant in run.named_instants("resync_decision")
    }
    notifies = [(i.ts, i.args["worker"]) for i in run.named_instants("notify")]
    assert len(run.flows) == result.total_aborts > 0
    for flow in run.flows:
        assert flow.args["decision"] is True
        worker = int(flow.dst_track.rsplit("-", 1)[1])
        decision = decisions[(worker, flow.src_ts)]
        pushes = [
            ts for ts, pusher in notifies
            if pusher != worker and decision["window_start"] < ts <= flow.src_ts
        ]
        assert len(pushes) == decision["peer_pushes"] == flow.args["peer_pushes"]


def test_trace_events_per_push_are_flat_in_the_worker_count():
    """A per-pusher arrow fan grew the trace ~m/2 events per abort."""
    per_push = {}
    for workers in (8, 32):
        result, trace = _traced(
            SpecSyncPolicy.cherrypick(CHERRYPICK_DEFAULTS["tiny"]), workers, 20.0,
        )
        assert result.total_aborts > 0
        per_push[workers] = len(trace["traceEvents"]) / result.total_iterations
    assert per_push[32] <= 1.15 * per_push[8], per_push

