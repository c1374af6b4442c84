"""The simulated network: delivers messages with latency + serialization delay.

The model is a full-bisection fabric (like an EC2 placement group): each
message between two distinct nodes experiences

    delay = base_latency + size_bytes / bandwidth_bps * congestion_factor

with optional multiplicative jitter.  Loopback (src == dst, as when an MXNet
node hosts both a worker and a server — paper footnote 2) is free and
unaccounted, matching how the paper measures *network* transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.events import Simulator
from repro.netsim.ledger import TransferLedger
from repro.netsim.messages import Message
from repro.obs.clock import VirtualClock
from repro.obs.core import tracer_for
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["LinkModel", "Network"]


@dataclass(frozen=True)
class LinkModel:
    """Per-message delay parameters.

    ``bandwidth_bps`` defaults to 6 Gb/s in bytes/s (m4.xlarge "high"
    networking, ~750 MB/s); ``base_latency`` to 0.5 ms (same-AZ EC2 RTT/2).
    ``jitter`` is the sigma of a lognormal multiplier on the whole delay
    (0 disables jitter and makes delivery deterministic).
    """

    bandwidth_bytes_per_s: float = 750e6
    base_latency_s: float = 0.0005
    congestion_factor: float = 1.0
    jitter_sigma: float = 0.0

    def __post_init__(self):
        check_positive("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s)
        check_non_negative("base_latency_s", self.base_latency_s)
        check_positive("congestion_factor", self.congestion_factor)
        check_non_negative("jitter_sigma", self.jitter_sigma)

    def delay_for(
        self,
        size_bytes: float,
        rng: Optional[np.random.Generator],
        parallel_streams: int = 1,
    ) -> float:
        """Delay a message of ``size_bytes`` experiences on this link.

        ``parallel_streams`` models a sharded transfer: total bytes stay the
        same, but serialization happens concurrently over that many streams.
        """
        delay = self.base_latency_s + (
            size_bytes / parallel_streams / self.bandwidth_bytes_per_s
        ) * self.congestion_factor
        if self.jitter_sigma > 0 and rng is not None:
            delay *= float(rng.lognormal(mean=0.0, sigma=self.jitter_sigma))
        return delay


class Network:
    """Message fabric over the simulator: send → delay → deliver callback.

    All delivered messages are accounted in the ledger at delivery time,
    except loopback messages which never hit the wire.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Optional[LinkModel] = None,
        ledger: Optional[TransferLedger] = None,
        rng: Optional[np.random.Generator] = None,
        node_bandwidth: Optional[dict] = None,
        serialize_node_transfers: bool = False,
    ):
        self.sim = sim
        self.link = link or LinkModel()
        self.ledger = ledger if ledger is not None else TransferLedger()
        self.rng = rng
        #: optional per-node NIC bandwidth (bytes/s); a message is limited
        #: by the slowest endpoint NIC that appears in the map (instance
        #: heterogeneity: m3 NICs are slower than m4 NICs).
        self.node_bandwidth = dict(node_bandwidth or {})
        #: opt-in congestion: a node's NIC serializes its transfers — each
        #: new message waits until the sender's previous transfers finish.
        #: Off by default (the calibrated experiments model a
        #: full-bisection fabric where parameter transfers are a small
        #: fraction of iteration time).
        self.serialize_node_transfers = serialize_node_transfers
        self._node_busy_until: dict = {}
        #: (src, dst) -> effective LinkModel.  The NIC map is fixed at
        #: construction, so the per-pair link never changes; caching it
        #: keeps the per-message path free of list/LinkModel allocation.
        self._link_cache: dict = {}
        self._messages_sent = 0
        self._messages_delivered = 0
        #: Observability: mirrors the ledger's accounting into live
        #: counters (bytes/messages per transfer category).  The shared
        #: no-op tracer when observability is disabled.
        self.tracer = tracer_for(VirtualClock(sim))
        #: category -> (bytes counter, messages counter, transfer histogram),
        #: resolved on a category's first delivery so the registry holds
        #: only what the run used and the per-message path is three updates.
        self._delivery_instruments: dict = {}

    def _link_for(self, src: str, dst: str) -> LinkModel:
        if not self.node_bandwidth:
            return self.link
        key = (src, dst)
        cached = self._link_cache.get(key)
        if cached is None:
            cached = self._build_link(src, dst)
            self._link_cache[key] = cached
        return cached

    def _build_link(self, src: str, dst: str) -> LinkModel:
        endpoint_bw = [
            self.node_bandwidth[node]
            for node in (src, dst)
            if node in self.node_bandwidth
        ]
        if not endpoint_bw:
            return self.link
        bandwidth = min(min(endpoint_bw), self.link.bandwidth_bytes_per_s)
        if bandwidth == self.link.bandwidth_bytes_per_s:
            return self.link
        return LinkModel(
            bandwidth_bytes_per_s=bandwidth,
            base_latency_s=self.link.base_latency_s,
            congestion_factor=self.link.congestion_factor,
            jitter_sigma=self.link.jitter_sigma,
        )

    def send(self, message: Message, on_delivery: Callable[[Message], None]) -> None:
        """Send ``message``; ``on_delivery(message)`` fires after the link delay."""
        message.sent_at = self.sim.now
        self._messages_sent += 1
        if message.src == message.dst:
            # Loopback: same-node worker/server co-location is free.  The
            # delivery events are fire-and-forget, so defer() spares them
            # the Event handle.
            self.sim.defer(0.0, self._deliver, message, on_delivery, False)
            return
        delay = self._link_for(message.src, message.dst).delay_for(
            message.size_bytes, self.rng, message.parallel_streams
        )
        if self.serialize_node_transfers:
            start = max(
                self.sim.now, self._node_busy_until.get(message.src, 0.0)
            )
            finish = start + delay
            self._node_busy_until[message.src] = finish
            delay = finish - self.sim.now
        self.sim.defer(delay, self._deliver, message, on_delivery, True)

    def _deliver(
        self, message: Message, on_delivery: Callable[[Message], None], account: bool
    ) -> None:
        if account:
            self.ledger.record(self.sim.now, message)
            if self.tracer.enabled:
                category = message.kind.category
                instruments = self._delivery_instruments.get(category)
                if instruments is None:
                    metrics = self.tracer.collector.metrics
                    instruments = self._delivery_instruments[category] = (
                        metrics.counter(f"net.bytes.{category}"),
                        metrics.counter(f"net.messages.{category}"),
                        metrics.histogram("net.transfer_s"),
                    )
                byte_count, message_count, transfer_s = instruments
                byte_count.inc(message.size_bytes)
                message_count.inc()
                transfer_s.observe(self.sim.now - message.sent_at)
        self._messages_delivered += 1
        on_delivery(message)

    @property
    def messages_sent(self) -> int:
        """Messages handed to the network so far."""
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        """Messages whose delivery callback has fired."""
        return self._messages_delivered

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet delivered."""
        return self._messages_sent - self._messages_delivered

    def __repr__(self) -> str:
        return (
            f"Network(sent={self._messages_sent}, "
            f"delivered={self._messages_delivered}, link={self.link})"
        )
