"""Tests for the zero-copy shared-memory parameter store (repro.ps.shm).

Covers the seqlock fence semantics in-process, the cross-process path
(fork inheritance), and the ownership protocol (single writer,
closed-segment access).
"""

import multiprocessing

import numpy as np
import pytest

from repro.ml.params import ParamSet
from repro.ps.shm import ShmArraySegment, ShmParamStore


def make_params():
    return ParamSet({
        "w": np.arange(6.0).reshape(2, 3),
        "b": np.array([0.5]),
    })


@pytest.fixture
def store():
    s = ShmParamStore.create(make_params())
    yield s
    s.close()
    s.unlink()


class TestRoundTrip:
    def test_create_publishes_initial_values_at_version_zero(self, store):
        snapshot, version = store.read()
        assert version == 0
        np.testing.assert_allclose(snapshot["w"], make_params()["w"])
        np.testing.assert_allclose(snapshot["b"], [0.5])

    def test_write_then_read_round_trips_values_and_version(self, store):
        updated = make_params().copy()
        updated["w"][...] = 7.0
        store.write(updated, version=3)
        snapshot, version = store.read()
        assert version == 3
        np.testing.assert_allclose(snapshot["w"], np.full((2, 3), 7.0))
        assert store.version == 3

    def test_read_returns_owning_copies(self, store):
        snapshot, _ = store.read()
        snapshot["w"][...] = -1.0
        again, _ = store.read()
        np.testing.assert_allclose(again["w"], make_params()["w"])


class TestFences:
    def test_write_fence_publishes_version_atomically_with_payload(self, store):
        with store.write_fence(5):
            store.backing()["b"][...] = 9.0
        snapshot, version = store.read()
        assert version == 5
        np.testing.assert_allclose(snapshot["b"], [9.0])

    def test_read_fence_reports_torn_read(self, store):
        fence_ctx = store.write_fence(1)
        fence_ctx.__enter__()  # leave the seqlock odd: write in flight
        try:
            with store.read_fence() as fence:
                pass
            assert not fence.consistent
        finally:
            fence_ctx.__exit__(None, None, None)
        with store.read_fence() as fence:
            pass
        assert fence.consistent

    def test_nested_write_fence_rejected(self, store):
        with store.write_fence(1):
            with pytest.raises(RuntimeError, match="single-writer"):
                with store.write_fence(2):
                    pass  # pragma: no cover

    def test_backing_wraps_live_segments_without_copy(self, store):
        live = store.backing()
        with store.write_fence(1):
            live["w"][...] = 2.0
        snapshot, _ = store.read()
        np.testing.assert_allclose(snapshot["w"], np.full((2, 3), 2.0))


class TestCrossProcess:
    def test_fork_inherited_store_sees_fenced_writes(self, store):
        def child(s, done):
            params = s.backing()
            with s.write_fence(11):
                params["w"][...] = 4.0
            done.put("ok")

        done = multiprocessing.Queue()
        proc = multiprocessing.Process(target=child, args=(store, done))
        proc.start()
        assert done.get(timeout=30) == "ok"
        proc.join(timeout=30)
        snapshot, version = store.read()
        assert version == 11
        np.testing.assert_allclose(snapshot["w"], np.full((2, 3), 4.0))


class TestQueuePathEquivalence:
    """The zero-copy path computes exactly what the pickled path did."""

    def test_seeded_update_stream_matches_pickled_transfer(self):
        import pickle

        from repro.ml.optim import ConstantSchedule, SgdUpdateRule

        rng = np.random.default_rng(7)
        initial = ParamSet({
            "w": rng.normal(size=(4, 3)),
            "b": rng.normal(size=(3,)),
        })
        gradients = [
            ParamSet({
                "w": rng.normal(size=(4, 3)),
                "b": rng.normal(size=(3,)),
            })
            for _ in range(20)
        ]

        # Reference: the old control+data-over-queue path — every payload
        # round-trips through pickle, server applies to its own copy.
        reference = initial.copy()
        queue_rule = SgdUpdateRule(ConstantSchedule(0.1))
        for grad in gradients:
            wire = pickle.loads(pickle.dumps(grad))
            queue_rule.apply(reference, wire)

        # Zero-copy: gradients cross through a fenced shm slot, the server
        # applies straight from the slot's backing onto the live store.
        param_store = ShmParamStore.create(initial)
        grad_store = ShmParamStore.create(initial.zeros_like())
        try:
            shm_rule = SgdUpdateRule(ConstantSchedule(0.1))
            params = param_store.backing()
            version = 0
            for grad in gradients:
                grad_store.write(grad, version)
                assert grad_store.version == version
                version += 1
                with param_store.write_fence(version):
                    shm_rule.apply(params, grad_store.backing())
            snapshot, final_version = param_store.read()
            assert final_version == len(gradients)
            for key in reference.keys():
                np.testing.assert_array_equal(snapshot[key], reference[key])
        finally:
            for s in (param_store, grad_store):
                s.close()
                s.unlink()


class TestLifecycle:
    def test_closed_segment_rejects_access(self):
        seg = ShmArraySegment.create("w", np.zeros(3))
        try:
            seg.array[...] = 1.0
            seg.close()
            with pytest.raises(ValueError, match="closed"):
                _ = seg.array
        finally:
            seg.unlink()

    def test_scalar_value_gets_nonzero_segment(self):
        seg = ShmArraySegment.create("s", np.array(3.0))
        try:
            assert seg.array.shape == ()
            assert float(seg.array) == 3.0
        finally:
            seg.close()
            seg.unlink()


class TestCounters:
    """Regression coverage for the exported contention counters."""

    def test_fresh_store_starts_at_zero(self, store):
        assert store.counters() == {
            "reads": 0, "torn_read_retries": 0, "fence_waits": 0,
        }

    def test_clean_reads_count_only_reads(self, store):
        store.read()
        store.read()
        counters = store.counters()
        assert counters["reads"] == 2
        assert counters["torn_read_retries"] == 0
        assert counters["fence_waits"] == 0

    def test_counters_returns_a_copy(self, store):
        store.counters()["reads"] = 99
        assert store.counters()["reads"] == 0

    def test_torn_reads_and_fence_waits_are_counted(self, store, monkeypatch):
        import repro.ps.shm as shm_mod

        # Shrink the retry budget so the in-flight-write case resolves in
        # microseconds instead of the production ~1 s patience.
        monkeypatch.setattr(shm_mod, "_MAX_READ_ATTEMPTS", 20)
        monkeypatch.setattr(shm_mod, "_RETRY_SLEEP_S", 1e-5)
        fence_ctx = store.write_fence(1)
        fence_ctx.__enter__()  # seqlock odd: every read observes a torn write
        try:
            with pytest.raises(RuntimeError, match="consistent"):
                store.read()
        finally:
            fence_ctx.__exit__(None, None, None)
        counters = store.counters()
        assert counters["torn_read_retries"] == 20
        assert counters["fence_waits"] == 20 - shm_mod._SPIN_ATTEMPTS
        assert counters["reads"] == 0
        # Once the writer finishes the reader recovers and counts a read.
        store.read()
        assert store.counters()["reads"] == 1

    def test_version_probe_shares_the_same_counters(self, store, monkeypatch):
        import repro.ps.shm as shm_mod

        monkeypatch.setattr(shm_mod, "_MAX_READ_ATTEMPTS", 18)
        monkeypatch.setattr(shm_mod, "_RETRY_SLEEP_S", 1e-5)
        fence_ctx = store.write_fence(1)
        fence_ctx.__enter__()
        try:
            with pytest.raises(RuntimeError, match="consistent"):
                _ = store.version
        finally:
            fence_ctx.__exit__(None, None, None)
        counters = store.counters()
        assert counters["torn_read_retries"] == 18
        assert counters["fence_waits"] == 18 - shm_mod._SPIN_ATTEMPTS
