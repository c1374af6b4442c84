"""Tests for the wall-clock scheduler adapter (one thread, deadline heap).

No model or dataset: the adapter is driven through its own ``_schedule``
/ ``handle_notify`` / ``close`` surface with a fixed tuner.
"""

import random
import threading
import time

import pytest

from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.tuning import FixedTuner
from repro.runtime.threaded import _ThreadSafeScheduler

_SETTLE_S = 2.0


def make_adapter(send_resync=None, num_workers=4, abort_time_s=0.005):
    tuner = FixedTuner(
        SpecSyncHyperparams(abort_time_s=abort_time_s, abort_rate=0.2)
    )
    return _ThreadSafeScheduler(
        num_workers=num_workers,
        tuner=tuner,
        send_resync=send_resync or (lambda worker_id, iteration, pushes: None),
    )


def wait_until(predicate, timeout_s=_SETTLE_S):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.002)
    return predicate()


@pytest.fixture
def adapter():
    scheduler = make_adapter()
    yield scheduler
    scheduler.close()


class TestDeadlineOrder:
    def test_shuffled_delays_fire_in_deadline_order_never_early(self, adapter):
        delays = [0.004 * k for k in range(1, 26)]
        random.Random(0).shuffle(delays)
        scheduled, fired = [], []
        with adapter._lock:  # hold the thread off until every entry is in
            for delay in delays:
                # Read just before _schedule stamps its own deadline, so
                # a callback can never run before ``due``.
                due = time.monotonic() + delay
                scheduled.append(due)
                adapter._schedule(
                    delay, lambda due=due: fired.append((due, time.monotonic()))
                )
        assert wait_until(lambda: len(fired) == len(delays))
        assert [due for due, _ in fired] == sorted(scheduled)
        assert all(at >= due for due, at in fired)

    def test_equal_deadlines_fire_in_schedule_order(self, adapter):
        fired = []
        with adapter._lock:  # hold the thread off until all four are in
            for k in range(4):
                adapter._schedule(0.0, lambda k=k: fired.append(k))
        assert wait_until(lambda: len(fired) == 4)
        assert fired == [0, 1, 2, 3]

    def test_earlier_deadline_wakes_a_sleeping_thread(self, adapter):
        fired = []
        adapter._schedule(0.6, lambda: fired.append("late"))
        time.sleep(0.05)  # the thread now sleeps towards t + 0.6 s
        started = time.monotonic()
        adapter._schedule(0.01, lambda: fired.append("early"))
        assert wait_until(lambda: fired, timeout_s=0.3)
        assert fired == ["early"]
        assert time.monotonic() - started < 0.3
        assert wait_until(lambda: len(fired) == 2)
        assert fired == ["early", "late"]

    def test_concurrent_schedulers_lose_and_duplicate_nothing(self, adapter):
        import sys

        producers, per_producer = 8, 150
        fired = []  # appended under the adapter's lock, by its one thread

        def produce(producer):
            rng = random.Random(producer)
            for k in range(per_producer):
                delay = rng.uniform(0.0, 0.02)
                due = time.monotonic() + delay
                adapter._schedule(
                    delay,
                    lambda key=(producer, k), due=due: fired.append(
                        (key, time.monotonic() - due)
                    ),
                )

        threads = [
            threading.Thread(target=produce, args=(p,)) for p in range(producers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert wait_until(lambda: len(fired) >= producers * per_producer, 5.0)
        finally:
            sys.setswitchinterval(interval)
        keys = [key for key, _ in fired]
        assert len(keys) == len(set(keys)) == producers * per_producer
        assert min(late for _, late in fired) >= 0.0


class TestOneThread:
    def test_many_notifies_start_exactly_one_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        resyncs = []
        scheduler = make_adapter(
            send_resync=lambda *args: resyncs.append(args), abort_time_s=0.001
        )
        try:
            for iteration in range(1, 61):
                for worker_id in range(4):
                    scheduler.handle_notify(worker_id, iteration)
                time.sleep(0.0005)
            assert wait_until(lambda: scheduler.inner.checks_run == 240)
            assert resyncs
        finally:
            scheduler.close()
        assert len(started) == 1, started

    def test_thread_starts_lazily(self):
        before = threading.active_count()
        scheduler = make_adapter()
        assert threading.active_count() == before
        scheduler._schedule(0.0, lambda: None)
        assert threading.active_count() == before + 1
        scheduler.close()
        assert threading.active_count() == before


class TestClose:
    def test_close_is_idempotent_and_joins(self):
        before = threading.active_count()
        scheduler = make_adapter()
        scheduler._schedule(5.0, lambda: None)
        scheduler.close()
        assert threading.active_count() == before
        scheduler.close()
        assert threading.active_count() == before

    def test_nothing_fires_after_close(self):
        scheduler = make_adapter()
        fired = []
        for k in range(5):
            scheduler._schedule(0.001 * k, lambda: fired.append("near"))
            scheduler._schedule(0.3 + 0.001 * k, lambda: fired.append("far"))
        assert wait_until(lambda: len(fired) == 5, timeout_s=0.25)
        scheduler.close()
        time.sleep(0.35)  # past every dropped deadline
        assert fired == ["near"] * 5

    def test_schedule_and_notify_after_close_are_no_ops(self):
        before = threading.active_count()
        scheduler = make_adapter()
        scheduler.close()
        fired = []
        scheduler.inner.handle_notify = lambda *args: fired.append(args)
        scheduler._schedule(0.0, lambda: fired.append("callback"))
        scheduler.handle_notify(0, 1)
        time.sleep(0.02)
        assert not fired
        assert threading.active_count() == before

    def test_close_from_a_callback_does_not_self_join(self):
        before = threading.active_count()
        scheduler = make_adapter()
        fired = []

        def close_then_mark():
            scheduler.close()  # a self-join would raise RuntimeError
            fired.append("closed")

        scheduler._schedule(0.0, close_then_mark)
        scheduler._schedule(0.01, lambda: fired.append("after"))
        assert wait_until(lambda: threading.active_count() == before)
        assert fired == ["closed"]
        scheduler.close()  # from outside: joins the finished thread, no raise


class TestCallbackRaises:
    def test_later_checks_still_fire_and_close_raises_the_first(self, caplog):
        before = threading.active_count()
        calls = []

        def send_resync(worker_id, iteration, pushes):
            calls.append(worker_id)
            if len(calls) <= 2:
                raise RuntimeError(f"resync {len(calls)} failed")

        scheduler = make_adapter(send_resync=send_resync, abort_time_s=0.001)
        with caplog.at_level("ERROR", logger="repro.runtime"):
            for iteration in range(1, 40):
                for worker_id in range(4):
                    scheduler.handle_notify(worker_id, iteration)
                time.sleep(0.0005)
                if len(calls) >= 4:
                    break
            assert wait_until(lambda: len(calls) >= 4), calls
            with pytest.raises(RuntimeError, match="resync 1 failed"):
                scheduler.close()
        assert threading.active_count() == before
        assert "callback raised" in caplog.text
        scheduler.close()  # delivered once; a second close is silent
