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
import threading
import time

import pytest

from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.runtime.multiprocess import _POLL_S
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
