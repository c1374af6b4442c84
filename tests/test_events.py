"""Tests for the discrete-event simulation kernel."""

import gc
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.events import Event, EventCanceled, SimulationError, Simulator


class TestEventOrdering:
    """Order is decided by the heap entry's (time, seq) prefix, compared in
    C; the handle reports the same key and takes no part in ordering."""

    def test_orders_by_time(self):
        sim = Simulator()
        fired = []
        late = sim.schedule(2.0, fired.append, "late")
        early = sim.schedule(1.0, fired.append, "early")
        assert (early.time, early.seq) < (late.time, late.seq)
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_sequence(self):
        sim = Simulator()
        fired = []
        a = sim.schedule(1.0, fired.append, "a")
        b = sim.schedule_at(1.0, fired.append, "b")
        assert a.time == b.time and a.seq < b.seq
        sim.run()
        assert fired == ["a", "b"]

    def test_handles_define_no_python_comparison(self):
        assert Event.__lt__ is object.__lt__ and Event.__gt__ is object.__gt__
        # 12k simultaneous events, handles and handle-less entries mixed: a
        # comparison that got past the unique seq would have to order an
        # Event against an Event or None, and raise TypeError.
        sim = Simulator()
        fired = []
        for tag in range(12_000):
            if tag % 3:
                sim.defer(1.0, fired.append, tag)
            else:
                sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list(range(12_000))


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in "abcd":
            sim.schedule(5.0, fired.append, name)
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_zero_delay_fires_without_advancing_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: None))
        sim.run()
        assert sim.now == 1.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_or_time_rejected(self):
        # NaN fails every comparison: as a heap key it would fire first and
        # leave the clock at NaN for the rest of the run.
        sim = Simulator()
        nan = float("nan")
        with pytest.raises(SimulationError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.defer(nan, lambda: None)
        assert sim.pending_count == 0 and sim.peek_time() is None

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(3.0, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "nested"))
        sim.run()
        assert fired == ["nested"]
        assert sim.now == 2.0


class TestCancellation:
    def test_canceled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_raises(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(EventCanceled):
            event.cancel()

    def test_pending_property(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert event.pending
        event.cancel()
        assert not event.pending

    def test_pending_count_skips_canceled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count == 1
        assert keep.pending


class TestRunControl:
    def test_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "at-2")
        sim.schedule(2.5, fired.append, "at-2.5")
        sim.run(until=2.0)
        assert fired == ["at-2"]
        assert sim.now == 2.0

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=2.0)
        sim.run()
        assert fired == [1, 3]

    def test_stop_when_predicate(self):
        sim = Simulator()
        fired = []
        for t in range(1, 6):
            sim.schedule(float(t), fired.append, t)
        sim.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [1, 2, 3]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for t in range(1, 6):
            sim.schedule(float(t), fired.append, t)
        sim.run(max_events=2)
        assert fired == [1, 2]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(3):
            sim.schedule(float(t + 1), lambda: None)
        sim.run()
        assert sim.events_fired == 3

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(4.0, lambda: None)
        assert sim.peek_time() == 4.0


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_firing_order_is_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=30),
        st.data(),
    )
    def test_cancellation_removes_exactly_the_canceled(self, delays, data):
        sim = Simulator()
        events = [sim.schedule(d, lambda d=d: fired.append(d)) for d in delays]
        fired = []
        to_cancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(events) - 1))
        )
        for idx in to_cancel:
            events[idx].cancel()
        sim.run()
        expected = sorted(d for i, d in enumerate(delays) if i not in to_cancel)
        assert fired == expected


class TestTapBus:
    """The multi-subscriber event-tap bus (observability + sanitizers)."""

    @pytest.fixture(autouse=True)
    def _clean_bus(self):
        Simulator.remove_tap()
        yield
        Simulator.remove_tap()

    def test_taps_see_every_event_in_installation_order(self):
        calls = []
        Simulator.install_tap(lambda t, s, f, a: calls.append(("first", t)))
        Simulator.install_tap(lambda t, s, f, a: calls.append(("second", t)))
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert calls == [
            ("first", 1.0), ("second", 1.0), ("first", 2.0), ("second", 2.0)
        ]

    def test_duplicate_install_raises(self):
        def tap(t, s, f, a):
            pass

        Simulator.install_tap(tap)
        with pytest.raises(SimulationError):
            Simulator.install_tap(tap)

    def test_remove_specific_tap_leaves_the_rest(self):
        calls = []

        def doomed(t, s, f, a):
            calls.append("doomed")

        def survivor(t, s, f, a):
            calls.append("survivor")

        Simulator.install_tap(doomed)
        Simulator.install_tap(survivor)
        Simulator.remove_tap(doomed)
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert calls == ["survivor"]

    def test_bare_remove_clears_all_taps(self):
        Simulator.install_tap(lambda t, s, f, a: None)
        Simulator.install_tap(lambda t, s, f, a: None)
        Simulator.remove_tap()
        assert Simulator._taps == ()

    def test_tap_receives_callback_and_args(self):
        seen = []
        Simulator.install_tap(lambda t, s, f, a: seen.append((t, s, f, a)))
        sim = Simulator()

        def callback(value):
            pass

        sim.schedule(1.5, callback, 42)
        sim.run()
        assert seen == [(1.5, 0, callback, (42,))]


class TestDeferRecycling:
    """defer(): fire-and-forget scheduling — a heap entry and no handle."""

    def test_defer_fires_in_time_order_with_scheduled_events(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("scheduled"))
        sim.defer(1.0, order.append, "deferred")
        sim.run()
        assert order == ["deferred", "scheduled"]
        assert sim.now == 2.0

    def test_defer_shares_the_seq_counter_for_tie_breaks(self):
        # determinism contract: interleaved schedule()/defer() at the same
        # time fire in call order, exactly as two schedule() calls would
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.defer(1.0, order.append, "b")
        sim.schedule(1.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_defer_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.defer(-0.1, lambda: None)

    def test_fired_deferred_event_is_released(self):
        # once a deferred event fired, the simulator keeps neither its
        # callback nor its arguments alive — already while the run goes on
        class Payload:
            pass

        def callback(_payload):
            pass

        sim = Simulator()
        payload = Payload()
        refs = [weakref.ref(callback), weakref.ref(payload)]
        sim.defer(0.5, callback, payload)
        del callback, payload
        alive_during_run = []
        sim.defer(1.0, lambda: alive_during_run.extend(r() for r in refs))
        sim.run()
        gc.collect()
        assert alive_during_run == [None, None]
        assert [r() for r in refs] == [None, None]

    def test_taps_see_deferred_events(self):
        seen = []
        Simulator.install_tap(lambda t, s, f, a: seen.append((t, a)))
        try:
            sim = Simulator()
            sim.defer(1.0, lambda tag: None, "x")
            sim.run()
        finally:
            Simulator.remove_tap()
        assert seen == [(1.0, ("x",))]


class _ReferenceSimulator:
    """The kernel's contract, restated with a sort per step: fire pending
    entries in (time, seq) order, seq counting every scheduling call."""

    class Handle:
        def __init__(self, time, seq):
            self.time, self.seq = time, seq
            self.canceled = self.fired = False

        def cancel(self):
            self.canceled = True

        @property
        def pending(self):
            return not (self.canceled or self.fired)

    def __init__(self):
        self.now = 0.0
        self.tapped = []
        self._seq = 0
        self._pending = []

    def schedule_at(self, time, fn, *args):
        handle = self.Handle(float(time), self._seq)
        self._pending.append((handle, fn, args))
        self._seq += 1
        return handle

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def defer(self, delay, fn, *args):
        self.schedule(delay, fn, *args)

    def run(self):
        while self._pending:
            self._pending.sort(key=lambda entry: (entry[0].time, entry[0].seq))
            handle, fn, args = self._pending.pop(0)
            if handle.canceled:
                continue
            self.now = handle.time
            handle.fired = True
            self.tapped.append((handle.time, handle.seq, fn, args))
            fn(*args)


def _drive(sim, seed):
    """A seeded schedule on ``sim``: the three scheduling calls, repeated
    timestamps (a coarse time grid), zero delays, callbacks that schedule
    more work and cancel handles that are still pending."""
    rng = random.Random(seed)
    fired, handles = [], []
    budget = [400]
    tags = iter(range(10**6))

    def schedule_one():
        tag = next(tags)
        delay = rng.choice([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, rng.random()])
        how = rng.randrange(3)
        if how == 0:
            handles.append(sim.schedule(delay, callback, tag))
        elif how == 1:
            handles.append(sim.schedule_at(sim.now + delay, callback, tag))
        else:
            sim.defer(delay, callback, tag)

    def callback(tag):
        fired.append((sim.now, tag))
        for _ in range(rng.randrange(4)):
            if budget[0] > 0:
                budget[0] -= 1
                schedule_one()
        pending = [h for h in handles if h.pending]
        if pending and rng.random() < 0.3:
            rng.choice(pending).cancel()

    for _ in range(40):
        schedule_one()
    sim.run()
    return fired, callback


class TestAgainstSortedReference:
    @pytest.fixture(autouse=True)
    def _clean_bus(self):
        Simulator.remove_tap()
        yield
        Simulator.remove_tap()

    @pytest.mark.parametrize("seed", range(12))
    def test_fire_order_and_taps_match_a_sort_per_step(self, seed):
        reference = _ReferenceSimulator()
        expected, expected_fn = _drive(reference, seed)

        tapped = []
        Simulator.install_tap(lambda t, s, f, a: tapped.append((t, s, f, a)))
        sim = Simulator()
        fired, fn = _drive(sim, seed)

        assert len(fired) > 100
        assert fired == expected
        assert len({t for t, _ in fired}) < len(fired)  # timestamps did repeat
        assert sim.events_fired == len(fired) and sim.pending_count == 0
        assert [(t, s, a) for t, s, _, a in tapped] == [
            (t, s, a) for t, s, _, a in reference.tapped
        ]
        assert all(f is fn for _, _, f, _ in tapped)
        assert all(f is expected_fn for _, _, f, _ in reference.tapped)
        keys = [(t, s) for t, s, _, _ in tapped]
        assert keys == sorted(keys)
