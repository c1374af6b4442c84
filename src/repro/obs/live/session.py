"""Run-level wiring for live telemetry: one ring per process, one spec file.

A :class:`LiveTelemetrySession` is what a runtime backend (or ``repro
top --smoke``) holds: the parent creates one ring per worker plus a
``server`` and a ``parent`` ring *before* forking, children inherit
their mapping, and the parent stays the single owner that unlinks at
teardown — the same ownership protocol as the shm parameter store.

The session is JSON-serializable (:meth:`spec` / :meth:`write_spec`) so
a *separate* ``repro top`` process can attach to a run already in
flight.  SPSC discipline: each ring has exactly one consumer, so either
the run's own parent polls the aggregator (``--smoke``, in-process
monitoring) or an external dashboard does (spec-file attach) — never
both at once.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.live.aggregate import TelemetryAggregator
from repro.obs.live.ring import DEFAULT_RING_BYTES, RingSpec, ShmRing

__all__ = [
    "LIVE_SPEC_SCHEMA_VERSION",
    "SERVER_SOURCE",
    "PARENT_SOURCE",
    "LiveTelemetrySession",
    "worker_source",
]

#: Version stamp of the spec-file JSON.
LIVE_SPEC_SCHEMA_VERSION = 1

SERVER_SOURCE = "server"
PARENT_SOURCE = "parent"


def worker_source(worker_id: int) -> str:
    """Ring source name for one worker process."""
    return f"worker-{worker_id}"


class LiveTelemetrySession:
    """All the rings of one live-exported run, plus their lifecycle."""

    def __init__(
        self, rings: Dict[str, ShmRing], num_workers: int, owner: bool
    ) -> None:
        self._rings = rings
        self.num_workers = num_workers
        self._owner = owner

    @classmethod
    def create(
        cls, num_workers: int, ring_bytes: int = DEFAULT_RING_BYTES
    ) -> "LiveTelemetrySession":
        """Allocate one ring per worker plus server and parent rings."""
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        rings: Dict[str, ShmRing] = {}
        try:
            for worker_id in range(num_workers):
                source = worker_source(worker_id)
                rings[source] = ShmRing.create(source, ring_bytes)
            rings[SERVER_SOURCE] = ShmRing.create(SERVER_SOURCE, ring_bytes)
            rings[PARENT_SOURCE] = ShmRing.create(PARENT_SOURCE, ring_bytes)
        except Exception:
            for ring in rings.values():
                ring.close()
                ring.unlink()
            raise
        return cls(rings, num_workers, owner=True)

    @classmethod
    def attach(cls, spec: dict) -> "LiveTelemetrySession":
        """Map an existing session from its spec dict (non-owning).

        Raises:
            ValueError: when ``spec`` is not an object, has another
                ``schema_version``, lacks a key, or a ring entry is
                malformed.
        """
        if not isinstance(spec, dict):
            raise ValueError(
                f"live spec must be a JSON object, not {type(spec).__name__}"
            )
        version = spec.get("schema_version")
        if version != LIVE_SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported live spec schema_version {version!r} "
                f"(this build reads v{LIVE_SPEC_SCHEMA_VERSION})"
            )
        missing = [key for key in ("num_workers", "rings") if key not in spec]
        if missing:
            raise ValueError(f"live spec lacks {', '.join(map(repr, missing))}")
        rings: Dict[str, ShmRing] = {}
        try:
            for entry in spec["rings"]:
                ring = ShmRing.attach(RingSpec.from_dict(entry))
                rings[ring.source] = ring
        except Exception:
            for ring in rings.values():
                ring.close()
            raise
        return cls(rings, int(spec["num_workers"]), owner=False)

    @classmethod
    def load_spec(cls, path: str) -> "LiveTelemetrySession":
        """Attach from a spec file written by :meth:`write_spec`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.attach(json.load(handle))

    def spec(self) -> dict:
        """The JSON-able attach handle for every ring."""
        return {
            "schema_version": LIVE_SPEC_SCHEMA_VERSION,
            "num_workers": self.num_workers,
            "rings": [
                self._rings[source].spec().to_dict()
                for source in sorted(self._rings)
            ],
        }

    def write_spec(self, path: str) -> None:
        """Write the spec file an external ``repro top`` attaches through."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spec(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    def ring(self, source: str) -> ShmRing:
        return self._rings[source]

    def worker_ring(self, worker_id: int) -> ShmRing:
        return self._rings[worker_source(worker_id)]

    @property
    def server_ring(self) -> ShmRing:
        return self._rings[SERVER_SOURCE]

    @property
    def parent_ring(self) -> ShmRing:
        return self._rings[PARENT_SOURCE]

    def sources(self) -> List[str]:
        return sorted(self._rings)

    def aggregator(self) -> TelemetryAggregator:
        """A fresh aggregator polling every ring of this session."""
        aggregator = TelemetryAggregator()
        for source in sorted(self._rings):
            aggregator.add_ring(self._rings[source])
        return aggregator

    def close(self) -> None:
        """Unmap every ring in this process (idempotent)."""
        for ring in self._rings.values():
            ring.close()

    def unlink(self) -> None:
        """Free the OS segments (owner only, after every process closed)."""
        if not self._owner:
            raise RuntimeError("only the creating session may unlink its rings")
        for ring in self._rings.values():
            ring.unlink()

    def __repr__(self) -> str:
        return (
            f"LiveTelemetrySession(workers={self.num_workers}, "
            f"rings={len(self._rings)}, owner={self._owner})"
        )
