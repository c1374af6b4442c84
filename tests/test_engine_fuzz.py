"""Fuzz tests: adversarial policies must never break engine invariants.

A policy that requests re-syncs, delays, and gating at random times is run
against the engine; whatever it does, the run must preserve the core
invariants (versions increase, staleness non-negative, no lost workers,
conservation between pulls/pushes/aborts).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterSpec
from repro.events import Simulator
from repro.ps.loop import Phase
from repro.ps.policy import SyncPolicy
from repro.workloads import tiny_workload


class ChaosPolicy(SyncPolicy):
    """Randomly delays pulls, gates iterations briefly, and fires re-syncs."""

    def __init__(self, seed: int, resync_prob: float, delay_max: float,
                 park_prob: float):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.resync_prob = resync_prob
        self.delay_max = delay_max
        self.park_prob = park_prob
        self._parked = []

    @property
    def name(self) -> str:
        return "chaos"

    def pull_delay(self, worker_id: int) -> float:
        return float(self.rng.random() * self.delay_max)

    def can_start_iteration(self, worker_id: int) -> bool:
        if self.rng.random() < self.park_prob:
            self._parked.append(worker_id)
            return False
        return True

    def on_push_applied(self, record) -> None:
        # Randomly try to abort *any* worker, with arbitrary (often wrong)
        # iteration tags — the engine must reject invalid ones safely.
        if self.rng.random() < self.resync_prob:
            target = int(self.rng.integers(0, self.engine.num_workers))
            view = self.engine.worker_view(target)
            tag = view.iterations_completed + int(self.rng.integers(-1, 2))
            self.engine.request_resync(target, tag)
        # Wake one parked worker per push so nothing starves forever.
        if self._parked:
            self.engine.release_worker(self._parked.pop(0))

    def on_run_end(self) -> None:
        # Release everything still parked (end-of-run cleanliness).
        while self._parked:
            self.engine.release_worker(self._parked.pop(0))


def assert_phase_legal(worker):
    """The machine's phase agrees with what the engine holds around it."""
    assert isinstance(worker.phase, Phase)
    assert 0 <= worker.aborts_in_iteration <= worker.max_aborts_per_iteration
    event = worker.compute_event
    if worker.phase is Phase.COMPUTING:
        assert event is not None and not event.canceled
    else:
        assert event is None or not event.pending
    if worker.phase is Phase.IDLE:
        assert worker.batch is None
    if worker.phase is Phase.PUSHING:
        assert worker.batch is not None and worker.snapshot is not None
    if worker.parked:
        assert worker.phase is Phase.IDLE


def run_chaos(seed, resync_prob, delay_max, park_prob, horizon=40.0):
    policy = ChaosPolicy(seed, resync_prob, delay_max, park_prob)

    def check_phases(_time, _seq, _fn, _args):
        # Fires before each event, i.e. after every previous one.
        for worker in policy.engine.workers:
            assert_phase_legal(worker)

    Simulator.install_tap(check_phases)
    try:
        return tiny_workload().run(
            ClusterSpec.homogeneous(4), policy, seed=seed, horizon_s=horizon
        )
    finally:
        Simulator.remove_tap(check_phases)


class TestChaosInvariants:
    @settings(deadline=None, max_examples=12)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        resync_prob=st.floats(min_value=0.0, max_value=1.0),
        delay_max=st.floats(min_value=0.0, max_value=2.0),
        park_prob=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_invariants_under_chaos(self, seed, resync_prob, delay_max, park_prob):
        result = run_chaos(seed, resync_prob, delay_max, park_prob)

        # Versions strictly increase; staleness is never negative.
        versions = [p.version_after for p in result.traces.pushes]
        assert versions == sorted(set(versions))
        assert all(p.staleness >= 0 for p in result.traces.pushes)

        # Conservation: pulls = pushes + aborts + in-flight (≤ 1/worker),
        # allowing for the final pull whose iteration never completed.
        for stats in result.worker_stats:
            assert stats.pulls >= stats.pushes
            assert stats.pulls <= stats.pushes + stats.aborts + 1

        # Abort accounting matches the trace.
        assert result.total_aborts == len(result.traces.aborts)

        # Evaluations kept running regardless of policy behaviour.
        assert len(result.curve) > 0

    def test_heavy_resync_still_progresses(self):
        result = run_chaos(seed=7, resync_prob=1.0, delay_max=0.0,
                           park_prob=0.0, horizon=60.0)
        assert result.total_iterations > 0
        assert result.total_aborts > 0

    def test_resync_with_wrong_tag_is_rejected(self):
        """A re-sync tagged with a stale iteration index must be a no-op."""
        policy = ChaosPolicy(0, 0.0, 0.0, 0.0)
        workload = tiny_workload()
        engine = workload.build_engine(
            ClusterSpec.homogeneous(2), policy, seed=0, horizon_s=10.0
        )
        engine.run()
        view = engine.worker_view(0)
        # A tag from a *previous* iteration is always refused, whether or
        # not the worker still has an in-flight computation at the horizon.
        assert engine.request_resync(0, view.iterations_completed - 1) is False
        if not view.computing:
            assert engine.request_resync(0, view.iterations_completed) is False

    def test_resync_refused_after_early_stop(self):
        policy = ChaosPolicy(0, 0.0, 0.0, 0.0)
        workload = tiny_workload()
        engine = workload.build_engine(
            ClusterSpec.homogeneous(2), policy, seed=0, horizon_s=100.0,
            early_stop=True,
        )
        engine.run()
        view = engine.worker_view(0)
        # The run stopped on convergence: all re-syncs are refused.
        assert engine.request_resync(0, view.iterations_completed) is False

    def test_release_of_unparked_worker_is_noop(self):
        policy = ChaosPolicy(0, 0.0, 0.0, 0.0)
        workload = tiny_workload()
        engine = workload.build_engine(
            ClusterSpec.homogeneous(2), policy, seed=0, horizon_s=5.0
        )
        result = engine.run()
        before = engine.store.version
        engine.release_worker(0)  # not parked: nothing should happen
        assert engine.store.version == before
        assert result.total_iterations > 0
