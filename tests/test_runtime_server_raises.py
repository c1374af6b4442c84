"""A parameter server that raises ends either wall-clock run by name.

Both backends host the one ``repro.ps.store.ParameterStore``; here its
update rule raises at the first push.  Threads re-raise the exception
itself; the server process reports it in its stats reply, so the run
raises a ``RuntimeError`` naming it once every child is joined and every
segment unlinked — at the end of the duration, not after a 10 s stats
timeout.
"""

import gc
import multiprocessing
import os
import queue
import threading
import time

import numpy as np
import pytest

from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.ml.params import ParamSet
from repro.ps.shm import ShmParamStore
from repro.runtime.multiprocess import _POLL_S, _server_main
from tests.test_runtime_multiprocess import build_run as multiprocess_run
from tests.test_runtime_threaded import build_run as threaded_run


class RaisingRule(SgdUpdateRule):
    def apply_stale(self, params, gradient, staleness):
        raise ValueError("boom")


@pytest.mark.parametrize(
    "build, error, match",
    [
        (threaded_run, ValueError, r"^boom$"),
        (multiprocess_run, RuntimeError,
         r"^parameter server raised ValueError\('boom'\)$"),
    ],
    ids=["threaded", "multiprocess"],
)
def test_raising_update_rule_ends_the_run_by_name(build, error, match):
    duration = 0.5
    run = build(num_workers=2, update_rule=RaisingRule(ConstantSchedule(0.1)))
    threads_before = threading.active_count()
    shm_before = set(os.listdir("/dev/shm"))
    started = time.monotonic()
    with pytest.raises(error, match=match) as raised:
        run.run(duration)
    elapsed = time.monotonic() - started
    # The duration, one poll for the workers to see the stop, and the joins.
    assert elapsed < duration + _POLL_S + 0.5, elapsed
    assert not multiprocessing.active_children()
    assert set(os.listdir("/dev/shm")) - shm_before == set()
    # The traceback keeps run()'s queues, and their feeder threads, alive.
    del raised
    gc.collect()
    deadline = time.monotonic() + 2.0
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= threads_before


def test_unknown_request_tag_ends_the_server_loop_by_name():
    # The server loop dispatches on each request's tag; a tag it does not
    # handle is a wiring bug, reported by name as the stats reply.
    store = ShmParamStore.create(ParamSet({"w": np.zeros(3)}))
    try:
        requests, replies = queue.Queue(), queue.Queue()
        requests.put(("fetch", 0))
        _server_main(store, [], SgdUpdateRule(ConstantSchedule(0.1)), requests,
                     [], replies, threading.Event())
        assert replies.get_nowait() == (
            None, None, None, "RuntimeError(\"unknown server message 'fetch'\")"
        )
    finally:
        store.close()
        store.unlink()


class FenceProbeRule(SgdUpdateRule):
    """Records, per apply, whether a reader would see the store as
    consistent, then stops the server loop."""

    def __init__(self, param_store, stop):
        super().__init__(ConstantSchedule(0.1))
        self.param_store, self.stop, self.consistent = param_store, stop, []

    def apply_stale(self, params, gradient, staleness):
        with self.param_store.read_fence() as fence:
            pass
        self.consistent.append(fence.consistent)
        self.stop.set()
        return super().apply_stale(params, gradient, staleness)


def test_server_applies_a_push_inside_the_write_fence():
    # Workers snapshot the shared parameters without a lock; only the
    # seqlock's odd sequence during the apply tells them to retry.
    store = ShmParamStore.create(ParamSet({"w": np.zeros(3)}))
    slot = ShmParamStore.create(ParamSet({"w": np.zeros(3)}))
    try:
        slot.write(ParamSet({"w": np.ones(3)}), 0)
        requests, acks, replies = queue.Queue(), queue.Queue(), queue.Queue()
        requests.put(("push", 0, 0))
        stop = threading.Event()
        rule = FenceProbeRule(store, stop)
        _server_main(store, [slot], rule, requests, [acks], replies, stop)
        assert rule.consistent == [False]
        assert acks.get_nowait() == ("ack", 1)
        assert replies.empty()
        params, version = store.read()
        assert version == 1
        np.testing.assert_array_equal(params["w"], np.full(3, -0.1))
    finally:
        for segment in (store, slot):
            segment.close()
            segment.unlink()
