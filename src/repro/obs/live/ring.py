"""Lock-free SPSC shared-memory telemetry ring (the live exporter's wire).

Each exporting process owns exactly one :class:`ShmRing`: a single
``multiprocessing.shared_memory`` segment holding an int64 cursor header
plus a byte payload area.  The writer (the instrumented child process)
appends variable-length binary records and publishes them by advancing
the ``tail`` cursor; the reader (the parent's aggregator) consumes up to
the published ``tail`` and advances ``head``.  Cursors are monotonically
increasing byte counts — positions are taken modulo the capacity — so a
single aligned int64 store *is* the publish, the same single-writer
memory model :mod:`repro.ps.shm` builds its seqlock on (and the reason
this needs no locks: one producer, one consumer, each owning one cursor).

Overflow never blocks the training hot path: a record that does not fit
is **dropped, newest-first**, and counted in the ``dropped`` header slot
so the aggregator can report exactly how much telemetry was lost.

Record wire format (little-endian, packed)::

    u32 length | u8 kind | payload…

with strings as ``u16 length + utf-8`` and all scalars ``f64``.  The
decoded form is the small ``Live*`` record dataclasses below — the
currency between the ring and the aggregator.

Like the rest of ``repro.obs`` this module never reads a clock:
timestamps are stamped by the caller (the runtime backends inject
``time.monotonic`` into :class:`RingWriter`).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Tuple, Union

from repro.ps.shm import _retrack, _untrack

__all__ = [
    "DEFAULT_RING_BYTES",
    "LiveSpan",
    "LiveInstant",
    "LiveCount",
    "LiveGauge",
    "LiveSample",
    "LiveAnnounce",
    "LiveRecord",
    "RingSpec",
    "ShmRing",
    "RingWriter",
    "NullRingWriter",
    "NULL_RING_WRITER",
]

#: int64 header slots: read cursor, write cursor, dropped records,
#: pushed records.  Cursors count bytes since creation (never wrap).
_HEADER_SLOTS = 4
_HEAD = 0
_TAIL = 1
_DROPPED = 2
_PUSHED = 3
_HEADER_BYTES = _HEADER_SLOTS * 8

#: Record kinds on the wire.
_KIND_SPAN = 1
_KIND_INSTANT = 2
_KIND_COUNT = 3
_KIND_GAUGE = 4
_KIND_SAMPLE = 5
_KIND_ANNOUNCE = 6

_LEN = struct.Struct("<I")
_KIND = struct.Struct("<B")
_F64 = struct.Struct("<d")
_STR_LEN = struct.Struct("<H")

#: Default ring capacity: 256 KiB of payload per process comfortably
#: holds several seconds of per-iteration records at smoke-bench rates.
DEFAULT_RING_BYTES = 256 * 1024


# ----------------------------------------------------------------------
# Decoded records — the currency between ring and aggregator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveSpan:
    """One completed operation ``[start, end]`` on a track."""

    track: str
    name: str
    cat: str
    start: float
    end: float


@dataclass(frozen=True)
class LiveInstant:
    """One point event on a track (``args_json`` may carry decoration)."""

    track: str
    name: str
    cat: str
    ts: float
    args_json: str = ""


@dataclass(frozen=True)
class LiveCount:
    """A counter increment (``amount`` since the previous record)."""

    name: str
    amount: float
    ts: float


@dataclass(frozen=True)
class LiveGauge:
    """A gauge level at ``ts`` (queue depth, staleness, pending timers)."""

    name: str
    value: float
    ts: float


@dataclass(frozen=True)
class LiveSample:
    """One histogram/series observation (latency, byte size)."""

    name: str
    value: float
    ts: float


@dataclass(frozen=True)
class LiveAnnounce:
    """The writer's hello: its source name, clock reading, and metadata."""

    source: str
    writer_ts: float
    meta_json: str = ""


LiveRecord = Union[
    LiveSpan, LiveInstant, LiveCount, LiveGauge, LiveSample, LiveAnnounce
]


# ----------------------------------------------------------------------
# Binary encoding
# ----------------------------------------------------------------------
def _pack_str(parts: List[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raw = raw[:0xFFFF]
    parts.append(_STR_LEN.pack(len(raw)))
    parts.append(raw)


def _unpack_str(buf: bytes, offset: int) -> Tuple[str, int]:
    (length,) = _STR_LEN.unpack_from(buf, offset)
    offset += _STR_LEN.size
    return buf[offset:offset + length].decode("utf-8"), offset + length


def encode_record(record: LiveRecord) -> bytes:
    """One record as its framed wire bytes (length prefix included)."""
    parts: List[bytes] = []
    if isinstance(record, LiveSpan):
        parts.append(_KIND.pack(_KIND_SPAN))
        parts.append(_F64.pack(record.start))
        parts.append(_F64.pack(record.end))
        _pack_str(parts, record.track)
        _pack_str(parts, record.name)
        _pack_str(parts, record.cat)
    elif isinstance(record, LiveInstant):
        parts.append(_KIND.pack(_KIND_INSTANT))
        parts.append(_F64.pack(record.ts))
        _pack_str(parts, record.track)
        _pack_str(parts, record.name)
        _pack_str(parts, record.cat)
        _pack_str(parts, record.args_json)
    elif isinstance(record, LiveCount):
        parts.append(_KIND.pack(_KIND_COUNT))
        parts.append(_F64.pack(record.ts))
        parts.append(_F64.pack(record.amount))
        _pack_str(parts, record.name)
    elif isinstance(record, LiveGauge):
        parts.append(_KIND.pack(_KIND_GAUGE))
        parts.append(_F64.pack(record.ts))
        parts.append(_F64.pack(record.value))
        _pack_str(parts, record.name)
    elif isinstance(record, LiveSample):
        parts.append(_KIND.pack(_KIND_SAMPLE))
        parts.append(_F64.pack(record.ts))
        parts.append(_F64.pack(record.value))
        _pack_str(parts, record.name)
    elif isinstance(record, LiveAnnounce):
        parts.append(_KIND.pack(_KIND_ANNOUNCE))
        parts.append(_F64.pack(record.writer_ts))
        _pack_str(parts, record.source)
        _pack_str(parts, record.meta_json)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown live record {record!r}")
    body = b"".join(parts)
    return _LEN.pack(len(body)) + body


def decode_record(body: bytes) -> Optional[LiveRecord]:
    """One record back from its body bytes (no length prefix).

    Returns None for an unknown kind — a newer writer talking to an
    older reader degrades to dropped records, not a crash.
    """
    (kind,) = _KIND.unpack_from(body, 0)
    offset = _KIND.size
    if kind == _KIND_SPAN:
        start, end = struct.unpack_from("<dd", body, offset)
        offset += 16
        track, offset = _unpack_str(body, offset)
        name, offset = _unpack_str(body, offset)
        cat, _ = _unpack_str(body, offset)
        return LiveSpan(track=track, name=name, cat=cat, start=start, end=end)
    if kind == _KIND_INSTANT:
        (ts,) = _F64.unpack_from(body, offset)
        offset += 8
        track, offset = _unpack_str(body, offset)
        name, offset = _unpack_str(body, offset)
        cat, offset = _unpack_str(body, offset)
        args_json, _ = _unpack_str(body, offset)
        return LiveInstant(
            track=track, name=name, cat=cat, ts=ts, args_json=args_json
        )
    if kind in (_KIND_COUNT, _KIND_GAUGE, _KIND_SAMPLE):
        ts, value = struct.unpack_from("<dd", body, offset)
        offset += 16
        name, _ = _unpack_str(body, offset)
        if kind == _KIND_COUNT:
            return LiveCount(name=name, amount=value, ts=ts)
        if kind == _KIND_GAUGE:
            return LiveGauge(name=name, value=value, ts=ts)
        return LiveSample(name=name, value=value, ts=ts)
    if kind == _KIND_ANNOUNCE:
        (writer_ts,) = _F64.unpack_from(body, offset)
        offset += 8
        source, offset = _unpack_str(body, offset)
        meta_json, _ = _unpack_str(body, offset)
        return LiveAnnounce(
            source=source, writer_ts=writer_ts, meta_json=meta_json
        )
    return None


# ----------------------------------------------------------------------
# The ring itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RingSpec:
    """Picklable/JSON-able attach handle for one ring."""

    source: str
    shm_name: str
    capacity: int

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "shm_name": self.shm_name,
            "capacity": self.capacity,
        }

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

    def stats(self) -> dict:
        """JSON-ready cursor/drop summary."""
        return {
            "capacity": self.capacity,
            "pushed": self.pushed,
            "dropped": self.dropped,
            "pending_bytes": self.pending_bytes(),
        }

    # -- producer side --------------------------------------------------
    def try_push(self, framed: bytes) -> bool:
        """Publish one framed record; False (and a drop count) on overflow.

        Writer-only.  The payload bytes land before the single tail
        store that publishes them — the write order the consumer's
        tail-snapshot read depends on.
        """
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

    def push(self, record: LiveRecord) -> bool:
        """Encode and publish one record (writer-only)."""
        return self.try_push(encode_record(record))

    # -- consumer side --------------------------------------------------
    def drain(self, max_records: Optional[int] = None) -> List[LiveRecord]:
        """Consume every published record (reader-only).

        Snapshots the tail once, decodes the records between the
        cursors, then advances the head in one store — partial records
        are impossible because the producer publishes the tail only
        after the payload bytes are in place.
        """
        tail = self._load(_TAIL)
        head = self._load(_HEAD)
        records: List[LiveRecord] = []
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


# ----------------------------------------------------------------------
# Writer facade
# ----------------------------------------------------------------------
class RingWriter:
    """The instrumentation-facing handle: tracer-shaped methods that
    encode straight into the ring.

    ``now_fn`` is injected by the runtime backend (the only layer allowed
    to read a wall clock); every method also accepts an explicit ``ts``
    so call sites that already stamped a time don't read the clock twice.
    """

    enabled = True

    def __init__(
        self,
        ring: ShmRing,
        source: str,
        now_fn: Callable[[], float],
        meta_json: str = "",
    ):
        self.ring = ring
        self.source = source
        self._now = now_fn
        self.ring.push(
            LiveAnnounce(source=source, writer_ts=now_fn(), meta_json=meta_json)
        )

    def span(
        self,
        track: str,
        name: str,
        start: float,
        end: Optional[float] = None,
        cat: str = "span",
    ) -> None:
        self.ring.push(
            LiveSpan(
                track=track, name=name, cat=cat, start=start,
                end=self._now() if end is None else end,
            )
        )

    def instant(
        self,
        track: str,
        name: str,
        ts: Optional[float] = None,
        cat: str = "instant",
        args: Optional[dict] = None,
    ) -> None:
        self.ring.push(
            LiveInstant(
                track=track, name=name, cat=cat,
                ts=self._now() if ts is None else ts,
                args_json=json.dumps(args) if args else "",
            )
        )

    def count(
        self, name: str, amount: float = 1.0, ts: Optional[float] = None
    ) -> None:
        self.ring.push(
            LiveCount(
                name=name, amount=amount,
                ts=self._now() if ts is None else ts,
            )
        )

    def gauge(self, name: str, value: float, ts: Optional[float] = None) -> None:
        self.ring.push(
            LiveGauge(
                name=name, value=value,
                ts=self._now() if ts is None else ts,
            )
        )

    def sample(self, name: str, value: float, ts: Optional[float] = None) -> None:
        self.ring.push(
            LiveSample(
                name=name, value=value,
                ts=self._now() if ts is None else ts,
            )
        )

    def now(self) -> float:
        """The injected clock, for call sites that span an operation."""
        return self._now()

    def __repr__(self) -> str:
        return f"RingWriter({self.source!r}, ring={self.ring!r})"


class NullRingWriter:
    """The disabled fast path: every method is an empty body.

    The shared :data:`NULL_RING_WRITER` is what instrumentation sites
    hold when live export is off — one attribute lookup plus one no-op
    call, bounded by the overhead-guard test alongside the null tracer.
    """

    enabled = False

    def span(self, *_args, **_kwargs) -> None:
        """No-op."""

    def instant(self, *_args, **_kwargs) -> None:
        """No-op."""

    def count(self, *_args, **_kwargs) -> None:
        """No-op."""

    def gauge(self, *_args, **_kwargs) -> None:
        """No-op."""

    def sample(self, *_args, **_kwargs) -> None:
        """No-op."""

    def now(self) -> float:
        """No-op (no clock behind it)."""
        return 0.0

    def __repr__(self) -> str:
        return "NullRingWriter()"


#: Shared disabled writer — instrumented code's default when live export
#: is off.
NULL_RING_WRITER = NullRingWriter()
