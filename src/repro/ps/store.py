"""The versioned parameter store (the servers' shared state).

A single logical store holds the global model parameters.  Sharding across
server machines affects only *transfer timing* (a pull fans out over
``num_shards`` parallel streams) — the store's semantics are those of
MXNet's KVStore: atomically apply one pushed gradient at a time, serve
consistent snapshots, and stamp everything with a global version (the count
of pushes applied so far).

Version arithmetic gives the staleness measure used throughout the paper:
a gradient computed on snapshot version ``v`` and applied at version ``V``
missed ``V − v`` peer updates.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.ml.optim import SgdUpdateRule
from repro.ml.params import ParamSet

__all__ = ["PullSnapshot", "PushRecord", "ParameterStore"]


class PullSnapshot(NamedTuple):
    """What a pull returns: a deep parameter copy and its version stamp."""

    params: ParamSet
    version: int
    time: float


class PushRecord(NamedTuple):
    """Bookkeeping for one applied push."""

    worker_id: int
    version_after: int
    snapshot_version: int
    staleness: int
    learning_rate: float
    time: float


class ParameterStore:
    """Global parameters + update rule + version counter.

    ``num_shards`` is exposed so clients can size their parallel transfers,
    but all shards share this one consistent state — the simulation treats
    the shard set as a single serialization point, which matches MXNet's
    per-key atomic updates (each of our updates touches every key, so the
    per-key and whole-model orderings coincide).
    """

    def __init__(self, initial_params: ParamSet, update_rule: SgdUpdateRule,
                 num_shards: int = 1):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._params = initial_params.copy()
        self._update_rule = update_rule
        self.num_shards = int(num_shards)
        self._version = 0
        self._push_records: list[PushRecord] = []

    # ------------------------------------------------------------------
    # Server operations
    # ------------------------------------------------------------------
    def snapshot(self, time: float) -> PullSnapshot:
        """A consistent deep copy of the current parameters."""
        return PullSnapshot(self._params.copy(), self._version, time)

    def apply_push(
        self, worker_id: int, gradient: ParamSet, snapshot_version: int, time: float
    ) -> PushRecord:
        """Apply one pushed gradient; returns the push's bookkeeping record."""
        if snapshot_version > self._version:
            raise ValueError(
                f"snapshot version {snapshot_version} is from the future "
                f"(store at {self._version})"
            )
        staleness = self._version - snapshot_version
        # Staleness-aware rules (related work [29]) damp the rate of
        # out-of-date gradients; the store is where staleness is known.
        rate = self._update_rule.apply_stale(self._params, gradient, staleness)
        self._version += 1
        record = PushRecord(
            worker_id, self._version, snapshot_version, staleness, rate, time
        )
        self._push_records.append(record)
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Number of pushes applied so far."""
        return self._version

    @property
    def params(self) -> ParamSet:
        """Live view of the parameters (read-only by convention)."""
        return self._params

    def push_records(self) -> list:
        """All applied pushes, in apply order."""
        return list(self._push_records)

    def mean_staleness(self) -> float:
        """Average missed-updates count over all applied pushes."""
        if not self._push_records:
            return 0.0
        return sum(r.staleness for r in self._push_records) / len(self._push_records)

    def __repr__(self) -> str:
        return f"ParameterStore(version={self._version}, shards={self.num_shards})"
