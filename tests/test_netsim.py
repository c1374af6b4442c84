"""Tests for the network model and transfer ledger."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.events import Simulator
from repro.netsim import (
    CONTROL_MESSAGE_BYTES,
    LinkModel,
    Message,
    MessageKind,
    Network,
    TransferLedger,
    TransferRecord,
)


def make_message(kind=MessageKind.PUSH, size=1000.0, src="a", dst="b", streams=1):
    return Message(kind=kind, src=src, dst=dst, size_bytes=size,
                   parallel_streams=streams)


class TestMessage:
    def test_categories(self):
        assert MessageKind.PULL_RESPONSE.category == "pull"
        assert MessageKind.PUSH.category == "push"
        for kind in (MessageKind.NOTIFY, MessageKind.RESYNC,
                     MessageKind.PULL_REQUEST, MessageKind.PUSH_ACK):
            assert kind.category == "control"

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_message(size=-1)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_size_rejected(self, size):
        # NaN passes `size < 0`; its NaN delay would be popped first and
        # leave sim.now and the ledger totals NaN.  inf is never delivered.
        with pytest.raises(ValueError):
            make_message(size=size)

    def test_zero_streams_rejected(self):
        with pytest.raises(ValueError):
            make_message(streams=0)

    def test_unique_ids(self):
        assert make_message().msg_id != make_message().msg_id

    def test_control_message_bytes_is_small(self):
        assert 0 < CONTROL_MESSAGE_BYTES <= 1024


class TestLinkModel:
    def test_delay_scales_with_size(self):
        link = LinkModel(bandwidth_bytes_per_s=1000.0, base_latency_s=0.0)
        assert link.delay_for(1000, None) == pytest.approx(1.0)
        assert link.delay_for(2000, None) == pytest.approx(2.0)

    def test_latency_floor(self):
        link = LinkModel(bandwidth_bytes_per_s=1e12, base_latency_s=0.01)
        assert link.delay_for(1, None) == pytest.approx(0.01, rel=1e-3)

    def test_parallel_streams_divide_serialization(self):
        link = LinkModel(bandwidth_bytes_per_s=1000.0, base_latency_s=0.0)
        assert link.delay_for(1000, None, parallel_streams=4) == pytest.approx(0.25)

    def test_congestion_factor(self):
        base = LinkModel(bandwidth_bytes_per_s=1000.0, base_latency_s=0.0)
        congested = LinkModel(
            bandwidth_bytes_per_s=1000.0, base_latency_s=0.0, congestion_factor=2.0
        )
        assert congested.delay_for(1000, None) == 2 * base.delay_for(1000, None)

    def test_jitter_requires_rng(self):
        link = LinkModel(jitter_sigma=0.5)
        # No rng -> deterministic fallback
        assert link.delay_for(1000, None) == link.delay_for(1000, None)

    def test_jitter_varies_with_rng(self):
        link = LinkModel(jitter_sigma=0.5)
        rng = np.random.default_rng(0)
        delays = {link.delay_for(1000, rng) for _ in range(5)}
        assert len(delays) == 5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            LinkModel(base_latency_s=-1)


class TestNetwork:
    def test_delivery_after_delay(self):
        sim = Simulator()
        net = Network(sim, link=LinkModel(bandwidth_bytes_per_s=1000, base_latency_s=0.5))
        delivered = []
        net.send(make_message(size=1000), lambda m: delivered.append(sim.now))
        sim.run()
        assert delivered == [pytest.approx(1.5)]

    def test_loopback_is_instant_and_unaccounted(self):
        sim = Simulator()
        net = Network(sim)
        delivered = []
        net.send(
            make_message(src="n", dst="n", size=1e9),
            lambda m: delivered.append(sim.now),
        )
        sim.run()
        assert delivered == [0.0]
        assert net.ledger.total_bytes == 0

    def test_remote_messages_accounted_at_delivery(self):
        sim = Simulator()
        net = Network(sim)
        net.send(make_message(size=500), lambda m: None)
        assert net.ledger.total_bytes == 0  # not yet delivered
        sim.run()
        assert net.ledger.total_bytes == 500

    def test_in_flight_counter(self):
        sim = Simulator()
        net = Network(sim)
        net.send(make_message(), lambda m: None)
        assert net.in_flight == 1
        sim.run()
        assert net.in_flight == 0
        assert net.messages_delivered == 1


class TestTransferLedger:
    def test_breakdown_by_category(self):
        ledger = TransferLedger()
        ledger.record(1.0, make_message(MessageKind.PULL_RESPONSE, 100))
        ledger.record(2.0, make_message(MessageKind.PUSH, 200))
        ledger.record(3.0, make_message(MessageKind.NOTIFY, 10))
        breakdown = ledger.bytes_by_category()
        assert breakdown == {"pull": 100, "push": 200, "control": 10}

    def test_cumulative_at(self):
        ledger = TransferLedger()
        ledger.record(1.0, make_message(size=100))
        ledger.record(2.0, make_message(size=50))
        assert ledger.cumulative_at(0.5) == 0
        assert ledger.cumulative_at(1.0) == 100
        assert ledger.cumulative_at(5.0) == 150

    def test_cumulative_series(self):
        ledger = TransferLedger()
        ledger.record(1.0, make_message(size=100))
        series = ledger.cumulative_series([0.0, 1.0, 2.0])
        assert series == [(0.0, 0.0), (1.0, 100.0), (2.0, 100.0)]

    def test_out_of_order_rejected(self):
        ledger = TransferLedger()
        ledger.record(2.0, make_message())
        with pytest.raises(ValueError):
            ledger.record(1.0, make_message())

    def test_out_of_order_record_leaves_the_ledger_untouched(self):
        ledger = TransferLedger()
        ledger.record(2.0, make_message(size=10.5))
        with pytest.raises(ValueError):
            ledger.record(1.0, make_message(size=99.0))
        assert ledger.record_count == 1 and ledger.total_bytes == 10.5
        assert [r.size_bytes for r in ledger.records()] == [10.5]

    def test_matches_a_per_message_reference(self):
        # The ledger keeps columns and running totals; the reference keeps
        # one record per message and sums them when asked.  Same floats:
        # both add in delivery order.
        rng = np.random.default_rng(11)
        kinds = list(MessageKind)
        nodes = ["servers", "scheduler", "worker-0", "worker-1", "worker-2"]
        ledger = TransferLedger()
        reference = []
        now = 0.0
        for _ in range(2000):
            now += float(rng.choice([0.0, 0.0, rng.random()]))  # times repeat
            kind = kinds[rng.integers(len(kinds))]
            src, dst = rng.choice(nodes, size=2, replace=False)
            size = float(rng.choice([CONTROL_MESSAGE_BYTES, rng.random() * 1e6 + 0.1]))
            ledger.record(now, make_message(kind, size, str(src), str(dst)))
            reference.append(TransferRecord(
                now, kind.wire_name, kind.category, str(src), str(dst), size
            ))

        def totals_by(attr):
            totals = {}
            for rec in reference:
                key = getattr(rec, attr)
                totals[key] = totals.get(key, 0.0) + rec.size_bytes
            return totals

        def cumulative_at(time):
            total = 0.0
            for rec in reference:
                if rec.time <= time:
                    total += rec.size_bytes
            return total

        assert ledger.records() == reference
        assert ledger.records() is not ledger.records()
        assert ledger.record_count == len(reference)
        assert ledger.bytes_by_kind() == totals_by("kind")
        assert ledger.bytes_by_category() == totals_by("category")
        assert set(ledger.bytes_by_kind()) == {k.wire_name for k in kinds}
        assert ledger.total_bytes == cumulative_at(now)
        for time in [-1.0, 0.0, now / 3, reference[500].time, now, now + 1.0]:
            assert ledger.cumulative_at(time) == cumulative_at(time)
        assert ledger.control_fraction() == (
            totals_by("category")["control"] / cumulative_at(now)
        )

    def test_control_fraction(self):
        ledger = TransferLedger()
        assert ledger.control_fraction() == 0.0
        ledger.record(1.0, make_message(MessageKind.PUSH, 990))
        ledger.record(2.0, make_message(MessageKind.NOTIFY, 10))
        assert ledger.control_fraction() == pytest.approx(0.01)

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
    def test_cumulative_is_monotone_and_totals_match(self, sizes):
        ledger = TransferLedger()
        for i, size in enumerate(sizes):
            ledger.record(float(i), make_message(size=size))
        series = ledger.cumulative_series([float(i) for i in range(len(sizes))])
        values = [v for _, v in series]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(sum(sizes))
        assert ledger.total_bytes == pytest.approx(sum(sizes))


class TestPerNodeBandwidth:
    def make_net(self, node_bandwidth):
        sim = Simulator()
        net = Network(
            sim,
            link=LinkModel(bandwidth_bytes_per_s=1000.0, base_latency_s=0.0),
            node_bandwidth=node_bandwidth,
        )
        return sim, net

    def deliver_time(self, sim, net, src, dst, size=1000.0):
        times = []
        net.send(make_message(src=src, dst=dst, size=size),
                 lambda m: times.append(sim.now))
        sim.run()
        return times[0]

    def test_slow_nic_limits_transfer(self):
        sim, net = self.make_net({"slow-node": 100.0})
        assert self.deliver_time(sim, net, "slow-node", "servers") == pytest.approx(10.0)

    def test_fast_nic_capped_by_fabric(self):
        sim, net = self.make_net({"fast-node": 10_000.0})
        # Fabric link (1000 B/s) is the bottleneck, not the 10k NIC.
        assert self.deliver_time(sim, net, "fast-node", "servers") == pytest.approx(1.0)

    def test_unknown_endpoints_use_default_link(self):
        sim, net = self.make_net({"other": 10.0})
        assert self.deliver_time(sim, net, "a", "b") == pytest.approx(1.0)

    def test_slowest_endpoint_wins(self):
        sim, net = self.make_net({"a": 500.0, "b": 250.0})
        assert self.deliver_time(sim, net, "a", "b") == pytest.approx(4.0)

    def test_empty_map_is_noop(self):
        sim, net = self.make_net({})
        assert self.deliver_time(sim, net, "a", "b") == pytest.approx(1.0)


class TestNodeTransferSerialization:
    def make_net(self, serialize=True):
        sim = Simulator()
        net = Network(
            sim,
            link=LinkModel(bandwidth_bytes_per_s=1000.0, base_latency_s=0.0),
            serialize_node_transfers=serialize,
        )
        return sim, net

    def test_same_sender_transfers_queue(self):
        sim, net = self.make_net()
        times = []
        # Two 1s transfers from the same node, sent back to back.
        net.send(make_message(src="a", dst="x", size=1000),
                 lambda m: times.append(sim.now))
        net.send(make_message(src="a", dst="y", size=1000),
                 lambda m: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_different_senders_parallel(self):
        sim, net = self.make_net()
        times = []
        net.send(make_message(src="a", dst="x", size=1000),
                 lambda m: times.append(sim.now))
        net.send(make_message(src="b", dst="x", size=1000),
                 lambda m: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_disabled_by_default(self):
        sim, net = self.make_net(serialize=False)
        times = []
        net.send(make_message(src="a", dst="x", size=1000),
                 lambda m: times.append(sim.now))
        net.send(make_message(src="a", dst="y", size=1000),
                 lambda m: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_nic_frees_up_over_time(self):
        sim, net = self.make_net()
        times = []
        net.send(make_message(src="a", dst="x", size=1000),
                 lambda m: times.append(sim.now))
        sim.run()
        # After the first transfer completes, a later send is unqueued.
        net.send(make_message(src="a", dst="y", size=500),
                 lambda m: times.append(sim.now))
        sim.run()
        assert times[1] == pytest.approx(1.5)


class TestDelayProperties:
    def test_delay_monotone_in_size(self):
        link = LinkModel(bandwidth_bytes_per_s=1e6, base_latency_s=0.001)
        sizes = [0, 10, 1e3, 1e6, 1e9]
        delays = [link.delay_for(s, None) for s in sizes]
        assert delays == sorted(delays)

    def test_delay_decreases_with_streams(self):
        link = LinkModel(bandwidth_bytes_per_s=1e6, base_latency_s=0.0)
        delays = [link.delay_for(1e6, None, parallel_streams=k)
                  for k in (1, 2, 4, 8)]
        assert delays == sorted(delays, reverse=True)

    def test_deterministic_without_jitter(self):
        sim = Simulator()
        net = Network(sim, link=LinkModel(jitter_sigma=0.0))
        times = []
        for _ in range(3):
            net.send(make_message(size=1234), lambda m: times.append(sim.now))
        sim.run()
        assert len(set(times)) == 1
