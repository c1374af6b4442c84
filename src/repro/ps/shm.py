"""Zero-copy shared-memory parameter transport with seqlock version fences.

The multiprocess backend used to pickle every ndarray payload through its
queues — the exact per-iteration cost the ROADMAP's "make the hot paths
actually fast" item targets.  This module is the replacement data plane:
each parameter key lives in its own ``multiprocessing.shared_memory``
segment, and a store-wide *version fence* (a seqlock) makes multi-key
snapshots consistent without locks:

* the **writer** bumps the fence sequence to an odd value, mutates the
  payload segments, publishes the new version, and bumps the sequence
  back to even — all inside :meth:`ShmParamStore.write_fence`;
* a **reader** samples the sequence, copies the payload out, and retries
  whenever the sequence was odd (a write was in flight) or changed while
  it copied — :meth:`ShmParamStore.read_fence` / :meth:`ShmParamStore.read`.

The queues stay as the *control plane*: pull/push wire tags still cross
the server's request queue in processing order (trace conformance replays
that stream through the protocol model), but the array payloads never do.

Single-writer discipline
------------------------
Each store has exactly one writing process (the server for the parameter
store; the owning worker for its gradient slot).  The seqlock's int64
header accesses are single aligned stores/loads, which CPython + the
queue round-trips (full memory barriers at every ``put``/``get`` syscall)
make safe at this scale; :meth:`write_fence` still detects and rejects a
second concurrent writer loudly.

Ownership
---------
The parent process creates every segment and children inherit the mapped
objects across ``fork`` — nothing attaches by name, so no process
double-registers with the resource tracker (the Python < 3.13 pitfall
where an attaching process unlinks segments its creator still owns at
exit).  The parent is the single owner: :meth:`close` drops the local
mapping, :meth:`unlink` frees the OS objects.  The tracker helpers below
serve :mod:`repro.obs.live.ring`, whose rings other processes do attach.

Raw segment buffers (``ShmArraySegment.array``) must only be touched
inside a fence ``with`` block; the ``BUF-SHM-UNFENCED`` rule of the
ownership lint pack enforces exactly that for code outside this module.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.ml.params import ParamSet

__all__ = [
    "ShmArraySegment",
    "ShmParamStore",
    "ShmTornRead",
]

#: int64 header slots of the store's meta segment.
_HEADER_SLOTS = 2
_SEQ = 0
_VERSION = 1

#: A reader retries a torn snapshot this many times before concluding the
#: writer died mid-fence.  Bounded by *count*, not wall time: ``repro.ps``
#: is in the deterministic zone, so no wall clock is read here.
_MAX_READ_ATTEMPTS = 10_000

#: Backoff between retries once the first few spins fail — the writer's
#: fence window is microseconds unless the OS preempted it mid-write.
_SPIN_ATTEMPTS = 16
_RETRY_SLEEP_S = 0.0001


class ShmTornRead(RuntimeError):
    """A fenced read never saw a stable sequence (writer died mid-fence?)."""


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop *shm* from this process's resource tracker after an attach.

    ``SharedMemory.__init__`` registers every mapping (not just created
    ones) with the tracker on Python < 3.13, so an attaching process
    would unlink the creator's segments when it exits.  The creator keeps
    the one canonical registration; attachers unregister theirs.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(
            getattr(shm, "_name", shm.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker layout is stdlib-private
        pass


def _retrack(shm: shared_memory.SharedMemory) -> None:
    """Re-register *shm* just before the owner unlinks it.

    When creator and attacher share one (forked) resource tracker, an
    attacher's :func:`_untrack` removes the single cache entry for the
    name; ``SharedMemory.unlink`` would then send an unmatched
    unregister and the tracker logs a ``KeyError``.  Registering again
    (idempotent — the cache is a set) keeps the books balanced.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(
            getattr(shm, "_name", shm.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker layout is stdlib-private
        pass


class ShmArraySegment:
    """One parameter key's float64 payload in its own shared segment.

    The ``array`` property is a live numpy view onto the mapped buffer —
    zero-copy by construction, and therefore only safe to touch inside
    the owning store's version fence.
    """

    def __init__(
        self, key: str, shape: Tuple[int, ...], shm: shared_memory.SharedMemory
    ):
        self.key = key
        self.shape = tuple(shape)
        self._shm = shm
        self._array: np.ndarray = np.ndarray(
            self.shape, dtype=np.float64, buffer=shm.buf
        )

    @classmethod
    def create(cls, key: str, value: np.ndarray) -> "ShmArraySegment":
        """Allocate a segment sized for *value* and copy it in."""
        initial = np.asarray(value, dtype=np.float64)
        shm = shared_memory.SharedMemory(
            create=True, size=max(int(initial.nbytes), 8)
        )
        segment = cls(key, initial.shape, shm)
        segment.array[...] = initial
        return segment

    @property
    def array(self) -> np.ndarray:
        """Live view onto the shared buffer — fence-guarded access only."""
        if self._array is None:
            raise ValueError(f"segment {self.key!r} is closed")
        return self._array

    def close(self) -> None:
        """Drop the numpy view and unmap the buffer in this process."""
        # The view must go first: SharedMemory.close() releases the
        # exported memoryview and raises BufferError while anything still
        # references it.
        self._array = None  # type: ignore[assignment]
        self._shm.close()

    def unlink(self) -> None:
        """Free the OS object (owner only, after every process closed)."""
        self._shm.unlink()

    def __repr__(self) -> str:
        return f"ShmArraySegment({self.key!r}, shape={self.shape})"


class _ReadFence:
    """Consistency token yielded by :meth:`ShmParamStore.read_fence`."""

    __slots__ = ("seq_at_enter", "consistent")

    def __init__(self, seq_at_enter: int):
        self.seq_at_enter = seq_at_enter
        self.consistent = False


class ShmParamStore:
    """A fenced set of shared-memory segments, one per parameter key.

    One process writes (under :meth:`write_fence`), any number read
    (:meth:`read` / :meth:`read_fence`).  The fence couples a version
    number to the payload: a consistent read returns the exact arrays
    that were published with that version, however many keys there are.
    """

    def __init__(
        self,
        meta_shm: shared_memory.SharedMemory,
        segments: Dict[str, ShmArraySegment],
    ):
        self._meta_shm = meta_shm
        self._meta: np.ndarray = np.ndarray(
            (_HEADER_SLOTS,), dtype=np.int64, buffer=meta_shm.buf
        )
        self._segments = segments
        # Per-process retry visibility (satellite of the live telemetry
        # plane): retries were always bounded but previously invisible.
        self._counters: Dict[str, int] = {
            "reads": 0,
            "torn_read_retries": 0,
            "fence_waits": 0,
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, params: ParamSet) -> "ShmParamStore":
        """Allocate segments for every key of *params* at version 0."""
        meta = shared_memory.SharedMemory(create=True, size=_HEADER_SLOTS * 8)
        store = cls(
            meta,
            {key: ShmArraySegment.create(key, value) for key, value in params.items()},
        )
        store._meta[:] = 0
        return store

    # ------------------------------------------------------------------
    # Fences
    # ------------------------------------------------------------------
    @contextmanager
    def write_fence(self, version: int) -> Iterator[None]:
        """Single-writer fence: odd sequence while the payload is torn.

        Publishes *version* and re-evens the sequence on exit — also on
        the exception path, so a crashed apply never wedges readers in
        the retry loop (the backend tears down loudly instead).
        """
        seq = int(self._meta[_SEQ])
        if seq % 2:
            raise RuntimeError(
                "shared-memory store already inside a write fence; the "
                "seqlock is single-writer by protocol"
            )
        self._meta[_SEQ] = seq + 1
        try:
            yield
        finally:
            self._meta[_VERSION] = version
            self._meta[_SEQ] = seq + 2

    @contextmanager
    def read_fence(self) -> Iterator[_ReadFence]:
        """Yield a fence token; ``fence.consistent`` is valid after exit."""
        fence = _ReadFence(int(self._meta[_SEQ]))
        yield fence
        fence.consistent = (
            fence.seq_at_enter % 2 == 0
            and int(self._meta[_SEQ]) == fence.seq_at_enter
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def write(self, params: ParamSet, version: int) -> None:
        """Publish *params* as *version* (single-writer)."""
        with self.write_fence(version):
            for key, segment in self._segments.items():
                segment.array[...] = params[key]

    def read(self) -> Tuple[ParamSet, int]:
        """A consistent ``(snapshot, version)`` pair; retries torn reads."""
        for attempt in range(_MAX_READ_ATTEMPTS):
            with self.read_fence() as fence:
                arrays = {
                    key: segment.array.copy()
                    for key, segment in self._segments.items()
                }
                version = int(self._meta[_VERSION])
            if fence.consistent:
                self._counters["reads"] += 1
                return ParamSet(arrays), version
            self._counters["torn_read_retries"] += 1
            if attempt >= _SPIN_ATTEMPTS:
                self._counters["fence_waits"] += 1
                time.sleep(_RETRY_SLEEP_S)
        raise ShmTornRead(
            f"no consistent snapshot after {_MAX_READ_ATTEMPTS} attempts; "
            f"the writer likely died inside its fence"
        )

    @property
    def version(self) -> int:
        """The last published version, read through the fence."""
        for attempt in range(_MAX_READ_ATTEMPTS):
            with self.read_fence() as fence:
                version = int(self._meta[_VERSION])
            if fence.consistent:
                return version
            self._counters["torn_read_retries"] += 1
            if attempt >= _SPIN_ATTEMPTS:
                self._counters["fence_waits"] += 1
                time.sleep(_RETRY_SLEEP_S)
        raise ShmTornRead(
            f"no consistent version after {_MAX_READ_ATTEMPTS} attempts; "
            f"the writer likely died inside its fence"
        )

    def backing(self) -> ParamSet:
        """A :class:`ParamSet` over the *live* segment arrays (no copy).

        Strictly the single writer's tool: mutate it only inside
        :meth:`write_fence`, and never hand it to a reading process —
        readers go through :meth:`read`, which is what the fence
        certifies.
        """
        return ParamSet(
            {key: segment.array for key, segment in self._segments.items()}
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """This process's fence statistics, as a metrics-ready dict.

        ``reads`` counts consistent snapshots, ``torn_read_retries``
        counts snapshots discarded because a write fence was in flight
        (or the sequence moved mid-copy), and ``fence_waits`` counts the
        retries that escalated past the spin phase into a sleep.  The
        numbers are local to this process's mapping — each worker sees
        its own contention, which is exactly what the live telemetry
        plane exports per source.
        """
        return dict(self._counters)

    def close(self) -> None:
        """Unmap every segment in this process (idempotent per process)."""
        for segment in self._segments.values():
            segment.close()
        self._meta = None  # type: ignore[assignment]
        self._meta_shm.close()

    def unlink(self) -> None:
        """Free the OS objects (the creating process, once children exit)."""
        for segment in self._segments.values():
            segment.unlink()
        self._meta_shm.unlink()

    def __repr__(self) -> str:
        return f"ShmParamStore(keys={list(self._segments)})"
