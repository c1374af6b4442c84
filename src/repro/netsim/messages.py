"""Typed messages exchanged between workers, servers, and the scheduler.

Message kinds mirror the SpecSync protocol (paper Sections IV-V):

* ``PULL_REQUEST`` / ``PULL_RESPONSE`` — worker fetches model parameters.
* ``PUSH`` / ``PUSH_ACK`` — worker sends a gradient update.
* ``NOTIFY`` — worker tells the central scheduler an iteration finished
  (Algorithm 2, worker line 10).
* ``RESYNC`` — scheduler tells a worker to abort and re-pull
  (Algorithm 2, scheduler line 10).

Each kind has a transfer category used for the Fig. 13 breakdown: parameter
traffic (pull), gradient traffic (push), and control traffic (everything the
SpecSync machinery adds).
"""

from __future__ import annotations

import enum
import itertools
from math import inf
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["MessageKind", "Message", "CONTROL_MESSAGE_BYTES"]

#: Size of a notify / re-sync / ack message on the wire.  These carry only a
#: sender id and a timestamp; the paper stresses they are negligible next to
#: parameter traffic.  64 bytes covers headers + payload for a small RPC.
CONTROL_MESSAGE_BYTES = 64


class MessageKind(enum.Enum):
    """Protocol message types with their transfer-accounting category."""

    PULL_REQUEST = ("pull_request", "control")
    PULL_RESPONSE = ("pull_response", "pull")
    PUSH = ("push", "push")
    PUSH_ACK = ("push_ack", "control")
    NOTIFY = ("notify", "control")
    RESYNC = ("resync", "control")

    def __init__(self, wire_name: str, category: str):
        self.wire_name = wire_name
        #: one of {"pull", "push", "control"} — the Fig. 13 breakdown buckets
        self.category = category


_message_ids = itertools.count()


@dataclass
class Message:
    """One message on the simulated wire.

    ``payload`` is arbitrary (a parameter snapshot, a gradient dict, a worker
    id); ``size_bytes`` is what the transfer ledger accounts, decoupled from
    the in-memory payload so large paper-scale models can be accounted while
    the numeric model stays laptop-sized (see DESIGN.md, fidelity notes).
    """

    kind: MessageKind
    src: str
    dst: str
    size_bytes: float
    payload: Any = None
    sent_at: Optional[float] = None
    #: Number of server shards the transfer fans out over.  A sharded pull
    #: moves ``size_bytes`` in total but serializes only ``size_bytes /
    #: parallel_streams`` on the bottleneck link, so delay divides by this
    #: while accounting does not.
    parallel_streams: int = 1
    msg_id: int = field(default_factory=_message_ids.__next__)

    def __post_init__(self):
        # NaN passes ``< 0`` and becomes a NaN delay; inf is never delivered.
        if not 0 <= self.size_bytes < inf:
            raise ValueError(f"size_bytes must be finite and >= 0, got {self.size_bytes}")
        if self.parallel_streams < 1:
            raise ValueError(
                f"parallel_streams must be >= 1, got {self.parallel_streams}"
            )

    def __repr__(self) -> str:
        return (
            f"Message({self.kind.wire_name}, {self.src}->{self.dst}, "
            f"{self.size_bytes:.0f}B, id={self.msg_id})"
        )
