"""The worker protocol machine and its wall-clock driver — no threads, no sleeps.

``WorkerLoop`` is checked three ways: every transition of its table, its
re-sync guard against the model checker's ``_abort_eligible`` over the whole
small state space, and ``Worker.run`` driven by a scripted store, flag and
notify so the call sequence of the blocking loop is asserted exactly.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.model import specsync as model
from repro.cluster.compute import ComputeTimeModel
from repro.obs.clock import FunctionClock
from repro.obs.core import (
    NULL_TRACER, InstantRecord, SpanRecord, TraceCollector, Tracer,
)
from repro.ps.loop import Phase, WorkerLoop
from repro.runtime.worker import Worker, signal_resync

INPUTS = ("begin", "pulled", "computed", "acked")
LEGAL = {
    ("begin", Phase.IDLE): Phase.PULLING,
    ("pulled", Phase.PULLING): Phase.COMPUTING,
    ("computed", Phase.COMPUTING): Phase.PUSHING,
    ("acked", Phase.PUSHING): Phase.IDLE,
}


def loop_in(phase, iteration=0, aborts_in_iteration=0, budget=1):
    loop = WorkerLoop(budget)
    loop.phase = phase
    loop.iteration = iteration
    loop.aborts = loop.aborts_in_iteration = aborts_in_iteration
    return loop


def state(loop):
    return (loop.phase, loop.iteration, loop.aborts, loop.aborts_in_iteration)


class TestTransitions:
    def test_one_iteration_walks_the_four_phases(self):
        loop = WorkerLoop()
        assert state(loop) == (Phase.IDLE, 0, 0, 0)
        loop.begin()
        assert loop.phase is Phase.PULLING
        loop.pulled()
        assert loop.phase is Phase.COMPUTING
        loop.computed()
        assert loop.phase is Phase.PUSHING
        assert loop.acked() == 1
        assert state(loop) == (Phase.IDLE, 1, 0, 0)

    @pytest.mark.parametrize("name,phase", itertools.product(INPUTS, Phase))
    def test_every_input_in_every_phase(self, name, phase):
        loop = loop_in(phase, iteration=3)
        before = state(loop)
        if (name, phase) in LEGAL:
            getattr(loop, name)()
            assert loop.phase is LEGAL[name, phase]
        else:
            with pytest.raises(RuntimeError, match=f"{name}.*{phase.name}"):
                getattr(loop, name)()
            assert state(loop) == before

    def test_honoured_resync_restarts_the_same_iteration(self):
        loop = loop_in(Phase.COMPUTING, iteration=4, budget=2)
        assert loop.resync(4) is True
        assert state(loop) == (Phase.PULLING, 4, 1, 1)
        loop.pulled()
        assert loop.resync(4) is True
        loop.pulled()
        assert loop.resync(4) is False  # budget of 2 spent
        assert state(loop) == (Phase.COMPUTING, 4, 2, 2)

    def test_begin_resets_the_iteration_budget_not_the_total(self):
        loop = loop_in(Phase.COMPUTING)
        assert loop.resync(0)
        loop.pulled()
        loop.computed()
        loop.acked()
        loop.begin()
        assert (loop.aborts, loop.aborts_in_iteration) == (1, 0)

    @pytest.mark.parametrize("phase", [Phase.IDLE, Phase.PULLING, Phase.PUSHING])
    def test_resync_outside_compute_is_refused_not_raised(self, phase):
        loop = loop_in(phase, iteration=2)
        before = state(loop)
        assert loop.resync(2) is False
        assert state(loop) == before


#: Every phase of the verified model, and the machine phase it refines to.
MODEL_PHASES = {
    model.GATED: Phase.IDLE,
    model.PULL_REQ: Phase.PULLING,
    model.PULL_RSP: Phase.PULLING,
    model.COMPUTING: Phase.COMPUTING,
    model.PUSH_SENT: Phase.PUSHING,
    model.ACKING: Phase.PUSHING,
    model.DONE: Phase.IDLE,
}


def test_resync_is_the_models_abort_eligible():
    """The implementation and the model-checked guard agree on the full
    product of phase x iteration x aborts x budget x target."""
    small = range(3)
    for model_phase, phase in MODEL_PHASES.items():
        for iteration, aborts, budget, target in itertools.product(
            small, small, small, small
        ):
            checked = model.SpecSyncModel(num_workers=1, abort_budget=budget)
            expected = checked._abort_eligible(
                model.WorkerState(
                    phase=model_phase, iteration=iteration, snap=0,
                    aborts=aborts, notifies=(), windows=(), resyncs=(),
                ),
                target,
            )
            loop = loop_in(phase, iteration, aborts, budget)
            assert loop.resync(target) is expected, (
                model.PHASE_NAMES[model_phase], iteration, aborts, budget, target
            )
            assert loop.phase is (Phase.PULLING if expected else phase)


# ----------------------------------------------------------------------
# Worker.run against scripted parts
# ----------------------------------------------------------------------
class Script:
    """Store, abort flag, notify and partition in one: every call the
    driver makes lands in ``calls``; ``wakes`` scripts the compute waits
    (a ``(tag, peer_pushes)`` to deliver, or ``None`` to time out)."""

    def __init__(self, worker_slot, wakes, stop_after):
        self.calls = []
        self.slot = worker_slot
        self.wakes = list(wakes)
        self.stop_after = stop_after
        self.stopped = False
        self.version = 0
        self.batches = 0

    # stop flag
    def is_set(self):
        return self.stopped

    # abort flag
    def wait(self, timeout):
        wake = self.wakes.pop(0) if self.wakes else None
        self.calls.append(("wait", round(timeout, 3)))
        if wake is None:
            return False
        signal_resync(NULL_TRACER, 0, wake[0], wake[1], self.slot, self)
        return True

    def set(self):
        pass

    def clear(self):
        pass

    # partition
    def sample_batch(self, rng, batch_size):
        self.batches += 1
        return f"batch-{self.batches}"

    # store
    def pull(self):
        self.calls.append("pull")
        return "params", self.version

    def push(self, gradient, version):
        self.calls.append(("push", gradient, version))
        self.version += 1

    # model
    def gradient(self, params, batch):
        return f"grad({batch})"

    def notify(self, worker_id, iteration):
        self.calls.append(("notify", worker_id, iteration))
        if iteration >= self.stop_after:
            self.stopped = True


class FakeClock:
    """``time.monotonic`` stand-in: every read advances one millisecond."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


def scripted_worker(wakes, stop_after, budget=1, recorder=NULL_TRACER):
    slot = [-1, 0]
    script = Script(slot, wakes, stop_after)
    worker = Worker(
        worker_id=0, store=script, model=script, partition=script,
        compute_model=ComputeTimeModel(mean_time_s=1.0, jitter_sigma=0.0),
        batch_size=4, time_scale=1.0,
        batch_rng=np.random.default_rng(0), compute_rng=np.random.default_rng(0),
        stop_event=script, abort_event=script, resync_slot=slot,
        notify=script.notify, max_aborts_per_iteration=budget, recorder=recorder,
    )
    return worker, script


@pytest.fixture
def fake_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("repro.runtime.worker.time", SimpleNamespace(monotonic=clock))
    return clock


def names(calls):
    return [c if isinstance(c, str) else c[0] for c in calls if c[0] != "wait"]


class TestWorkerRun:
    def test_plain_iterations_are_pull_push_notify(self, fake_time):
        worker, script = scripted_worker(wakes=[], stop_after=2)
        worker.run()
        assert worker.error is None
        assert names(script.calls) == ["pull", "push", "notify"] * 2
        assert (worker.iterations, worker.aborts) == (2, 0)
        assert [c for c in script.calls if c[0] == "notify"] == [
            ("notify", 0, 1), ("notify", 0, 2)
        ]

    def test_honoured_resync_repulls_and_reuses_the_batch(self, fake_time):
        # Iteration 0 is re-synced once (tag 0), iteration 1 runs clean.
        worker, script = scripted_worker(wakes=[(0, 3), None, None], stop_after=2)
        worker.run()
        assert names(script.calls) == [
            "pull", "pull", "push", "notify", "pull", "push", "notify"
        ]
        pushes = [c for c in script.calls if c[0] == "push"]
        # Same batch across the restart, a fresh one for the next iteration.
        assert pushes == [("push", "grad(batch-1)", 0), ("push", "grad(batch-2)", 1)]
        assert (worker.iterations, worker.aborts) == (2, 1)

    def test_refused_resync_keeps_the_deadline(self, fake_time):
        # A tag for another iteration (too late), the one honoured re-sync,
        # then a second in-tag one (budget spent).  The wait that follows a
        # refusal is shorter — it resumes towards the same deadline — while
        # the wait after the restart is a full one again.
        worker, script = scripted_worker(
            wakes=[(7, 1), (0, 2), (0, 2), None], stop_after=1, budget=1,
        )
        worker.run()
        assert names(script.calls) == ["pull", "pull", "push", "notify"]
        assert worker.aborts == 1
        full, resumed, restarted, resumed_again = [
            c[1] for c in script.calls if c[0] == "wait"
        ]
        assert resumed < full and resumed_again < restarted
        assert restarted == pytest.approx(full)

    def test_zero_budget_never_aborts(self, fake_time):
        worker, script = scripted_worker(wakes=[(0, 2), None], stop_after=1, budget=0)
        worker.run()
        assert names(script.calls) == ["pull", "push", "notify"]
        assert worker.aborts == 0

    def test_trace_has_the_five_names_and_peer_pushes_on_the_abort(self, fake_time):
        collector = TraceCollector()
        tracer = Tracer(collector, FunctionClock(fake_time))
        worker, script = scripted_worker(
            wakes=[(0, 3), None], stop_after=1, recorder=tracer,
        )
        worker.run()
        spans = [r.name for r in collector.records if isinstance(r, SpanRecord)]
        assert spans == ["pull", "compute", "pull", "compute", "push", "iteration"]
        (abort,) = [r for r in collector.records if isinstance(r, InstantRecord)]
        assert abort.name == "abort" and abort.cat == "abort"
        assert abort.args["peer_pushes"] == 3 and abort.args["worker"] == 0
        assert abort.args["wasted_s"] > 0

    def test_a_raising_store_ends_the_loop_with_counters_intact(self, fake_time):
        worker, script = scripted_worker(wakes=[], stop_after=5)
        real_push = script.push

        def push(gradient, version):
            if version == 2:
                raise OSError("wire down")
            real_push(gradient, version)

        script.push = push
        worker.run()
        assert isinstance(worker.error, OSError)
        assert worker.iterations == 2
