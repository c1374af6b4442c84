"""Lock-free SPSC shared-memory telemetry ring (the live exporter's wire).

Each exporting process owns exactly one :class:`ShmRing`: a single
``multiprocessing.shared_memory`` segment holding an int64 cursor header
plus a byte payload area.  The writer (the instrumented child process)
appends variable-length framed records and publishes them by advancing
the ``tail`` cursor; the reader (the parent's aggregator) consumes up to
the published ``tail`` and advances ``head``.  Cursors are monotonically
increasing byte counts — positions are taken modulo the capacity — so a
single aligned int64 store *is* the publish, the same single-writer
memory model :mod:`repro.ps.shm` builds its seqlock on (and the reason
this needs no locks: one producer, one consumer, each owning one cursor).

Overflow never blocks the training hot path: a record that does not fit
is **dropped, newest-first**, and counted in the ``dropped`` header slot
so the aggregator can report exactly how much telemetry was lost.

The wire carries the :mod:`repro.obs.core` records themselves: a child
process records through an ordinary ``Tracer`` on a
:class:`RingCollector`, and the parent drains the same ``SpanRecord`` /
``InstantRecord`` / ``MetricRecord`` values back.  A record on the wire
is ``u32 length | u8 kind | JSON array of its fields`` (little-endian;
JSON round-trips every float, string and args value exactly).

Like the rest of ``repro.obs`` this module never reads a clock: the
tracer's clock stamps every record before it reaches the ring.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from multiprocessing import shared_memory
from typing import List, Optional, Union

from repro.obs.core import InstantRecord, MetricRecord, SpanRecord
from repro.ps.shm import _retrack, _untrack

__all__ = [
    "DEFAULT_RING_BYTES",
    "RingCollector",
    "RingSpec",
    "ShmRing",
    "decode_record",
    "encode_record",
]

#: int64 header slots: read cursor, write cursor, dropped records,
#: pushed records.  Cursors count bytes since creation (never wrap).
_HEADER_SLOTS = 4
_HEAD = 0
_TAIL = 1
_DROPPED = 2
_PUSHED = 3
_HEADER_BYTES = _HEADER_SLOTS * 8

#: Record types on the wire; the kind byte is the position + 1.
_KINDS = (SpanRecord, InstantRecord, MetricRecord)
_KIND_OF = {kind: code for code, kind in enumerate(_KINDS, start=1)}

_LEN = struct.Struct("<I")
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

#: Default ring capacity: 256 KiB of payload per process comfortably
#: holds several seconds of per-iteration records at smoke-bench rates.
DEFAULT_RING_BYTES = 256 * 1024

#: What the ring carries.
WireRecord = Union[SpanRecord, InstantRecord, MetricRecord]


def encode_record(record: WireRecord) -> bytes:
    """One record as its framed wire bytes (length prefix included)."""
    kind = _KIND_OF.get(type(record))
    if kind is None:
        raise TypeError(f"the ring carries no {type(record).__name__}")
    body = bytes((kind,)) + _ENCODE(record).encode("utf-8")
    return _LEN.pack(len(body)) + body


def decode_record(body: bytes) -> Optional[WireRecord]:
    """One record back from its body bytes (no length prefix).

    Returns None for an unknown kind — a newer writer talking to an
    older reader degrades to dropped records, not a crash.
    """
    if not 1 <= body[0] <= len(_KINDS):
        return None
    return _KINDS[body[0] - 1](*json.loads(body[1:]))


@dataclass(frozen=True)
class RingSpec:
    """Picklable/JSON-able attach handle for one ring."""

    source: str
    shm_name: str
    capacity: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RingSpec":
        """Parse one ring entry of a session spec.

        Raises:
            ValueError: when ``data`` is not an object or lacks a key.
        """
        if not isinstance(data, dict):
            raise ValueError(f"ring entry must be a JSON object, not {data!r}")
        missing = [key for key in ("source", "shm_name", "capacity") if key not in data]
        if missing:
            raise ValueError(f"ring entry lacks {', '.join(map(repr, missing))}")
        return cls(
            source=str(data["source"]),
            shm_name=str(data["shm_name"]),
            capacity=int(data["capacity"]),
        )


class ShmRing:
    """One SPSC byte ring over a shared-memory segment.

    The *creator* is the owner (closes **and** unlinks); an attacher
    only closes.  In the multiprocess backend the parent creates every
    ring pre-fork and children inherit the mapping, mirroring the
    ownership protocol of :class:`repro.ps.shm.ShmParamStore`.
    """

    def __init__(
        self,
        source: str,
        shm: shared_memory.SharedMemory,
        capacity: int,
        owner: bool,
    ):
        self.source = source
        self.capacity = capacity
        self._shm = shm
        self._owner = owner
        self._closed = False

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls, source: str, capacity: int = DEFAULT_RING_BYTES
    ) -> "ShmRing":
        """Allocate a ring with ``capacity`` payload bytes."""
        if capacity < 64:
            raise ValueError(f"ring capacity too small: {capacity}")
        shm = shared_memory.SharedMemory(
            create=True, size=_HEADER_BYTES + capacity
        )
        shm.buf[:_HEADER_BYTES] = b"\x00" * _HEADER_BYTES
        return cls(source, shm, capacity, owner=True)

    @classmethod
    def attach(cls, spec: RingSpec) -> "ShmRing":
        """Map an existing ring by spec (non-owning)."""
        shm = shared_memory.SharedMemory(name=spec.shm_name)
        _untrack(shm)
        return cls(spec.source, shm, spec.capacity, owner=False)

    def spec(self) -> RingSpec:
        return RingSpec(
            source=self.source, shm_name=self._shm.name, capacity=self.capacity
        )

    # -- cursor header --------------------------------------------------
    def _load(self, slot: int) -> int:
        return int.from_bytes(
            self._shm.buf[slot * 8:slot * 8 + 8], "little", signed=True
        )

    def _store(self, slot: int, value: int) -> None:
        self._shm.buf[slot * 8:slot * 8 + 8] = value.to_bytes(
            8, "little", signed=True
        )

    @property
    def dropped(self) -> int:
        """Records dropped on overflow since creation."""
        return self._load(_DROPPED)

    @property
    def pushed(self) -> int:
        """Records successfully published since creation."""
        return self._load(_PUSHED)

    def pending_bytes(self) -> int:
        """Published-but-unconsumed payload bytes."""
        return self._load(_TAIL) - self._load(_HEAD)

    # -- producer side --------------------------------------------------
    def push(self, record: WireRecord) -> bool:
        """Encode and publish one record; False (and a drop count) on
        overflow.

        Writer-only.  The payload bytes land before the single tail
        store that publishes them — the write order the consumer's
        tail-snapshot read depends on.
        """
        framed = encode_record(record)
        size = len(framed)
        head = self._load(_HEAD)
        tail = self._load(_TAIL)
        if size > self.capacity - (tail - head):
            self._store(_DROPPED, self._load(_DROPPED) + 1)
            return False
        position = _HEADER_BYTES + tail % self.capacity
        first = min(size, _HEADER_BYTES + self.capacity - position)
        self._shm.buf[position:position + first] = framed[:first]
        if first < size:
            self._shm.buf[_HEADER_BYTES:_HEADER_BYTES + size - first] = (
                framed[first:]
            )
        self._store(_PUSHED, self._load(_PUSHED) + 1)
        self._store(_TAIL, tail + size)
        return True

    # -- consumer side --------------------------------------------------
    def drain(self, max_records: Optional[int] = None) -> List[WireRecord]:
        """Consume every published record (reader-only).

        Snapshots the tail once, decodes the records between the
        cursors, then advances the head in one store — partial records
        are impossible because the producer publishes the tail only
        after the payload bytes are in place.
        """
        tail = self._load(_TAIL)
        head = self._load(_HEAD)
        records: List[WireRecord] = []
        cursor = head
        while cursor < tail:
            if max_records is not None and len(records) >= max_records:
                break
            body_len = int.from_bytes(self._read_bytes(cursor, 4), "little")
            cursor += 4
            body = self._read_bytes(cursor, body_len)
            cursor += body_len
            decoded = decode_record(bytes(body))
            if decoded is not None:
                records.append(decoded)
        self._store(_HEAD, cursor)
        return records

    def _read_bytes(self, cursor: int, size: int) -> bytes:
        position = _HEADER_BYTES + cursor % self.capacity
        first = min(size, _HEADER_BYTES + self.capacity - position)
        chunk = bytes(self._shm.buf[position:position + first])
        if first < size:
            chunk += bytes(
                self._shm.buf[_HEADER_BYTES:_HEADER_BYTES + size - first]
            )
        return chunk

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Unmap the segment in this process (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Free the OS object (owner only)."""
        if not self._owner:
            raise RuntimeError("only the owning ring may unlink its segment")
        _retrack(self._shm)
        self._shm.unlink()

    def __repr__(self) -> str:
        return (
            f"ShmRing({self.source!r}, capacity={self.capacity}, "
            f"owner={self._owner})"
        )


class RingCollector:
    """A collector that publishes each record onto one ring (dropped and
    counted when it is full).

    A child process records through an ordinary
    :class:`~repro.obs.core.Tracer` on one of these; the parent drains
    the same records.  It takes records and metric updates (values sent
    as floats); flows are drawn by the parent, which holds the scheduler.
    """

    def __init__(self, ring: ShmRing) -> None:
        self.ring = ring
        self.append = ring.push

    def count(self, name: str, amount: float) -> None:
        self.ring.push(MetricRecord("count", name, float(amount)))

    def gauge(self, name: str, value: float) -> None:
        self.ring.push(MetricRecord("gauge", name, float(value)))

    def observe(self, name: str, value: float) -> None:
        self.ring.push(MetricRecord("observe", name, float(value)))

    def __repr__(self) -> str:
        return f"RingCollector({self.ring!r})"
