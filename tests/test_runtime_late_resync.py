"""A re-sync for an iteration that already finished is dropped — everywhere.

The speculation window is set longer than a whole iteration, so every check
the scheduler runs targets an iteration its worker has already pushed: the
paper's "too late" case (Section IV-A).  All three substrates drive the one
``repro.ps.loop.WorkerLoop``, whose tag check refuses these; before it, the
two wall-clock loops had no tag check and a flag set during the gradient or
push discarded the *next* iteration's wait (0.78 / 0.82 aborts per re-sync).
"""

from repro import ClusterSpec
from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.specsync import SpecSyncPolicy
from repro.core.tuning import FixedTuner
from repro.workloads import tiny_workload
from tests.test_runtime_multiprocess import build_run as multiprocess_run
from tests.test_runtime_threaded import build_run as threaded_run


def late_tuner(abort_time_s):
    return FixedTuner(SpecSyncHyperparams(abort_time_s=abort_time_s, abort_rate=0.2))


def test_threaded_drops_late_resyncs():
    # 15 ms window against a 12 ms emulated compute.
    result = threaded_run(tuner=late_tuner(0.015), time_scale=0.004).run(1.0)
    assert result.resyncs_sent > 100
    assert result.total_aborts <= 0.1 * result.resyncs_sent


def test_multiprocess_drops_late_resyncs():
    # 20 ms window against a 16 ms emulated compute.
    result = multiprocess_run(tuner=late_tuner(0.020), time_scale=0.004).run(1.0)
    assert result.resyncs_sent > 60
    assert result.total_aborts <= 0.1 * result.resyncs_sent


def test_des_refuses_every_late_resync():
    # The twin on virtual time: 1 s mean compute, 3 s window.
    policy = SpecSyncPolicy.cherrypick(
        SpecSyncHyperparams(abort_time_s=3.0, abort_rate=0.2)
    )
    result = tiny_workload().run(
        ClusterSpec.homogeneous(4), policy, seed=0, horizon_s=60.0,
        early_stop=False,
    )
    summary = result.policy_summary
    assert summary["resyncs_sent"] > 100
    assert summary["resyncs_honored"] == 0
    assert result.total_aborts == 0
