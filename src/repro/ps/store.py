"""The versioned parameter store: the one server state every substrate hosts.

The store's semantics are those of MXNet's KVStore (paper §V, Fig. 7):
atomically apply one pushed gradient at a time, serve consistent snapshots,
and stamp everything with a global version (the count of pushes applied so
far).  Version arithmetic gives the staleness measure used throughout the
paper: a gradient computed on snapshot version ``v`` and applied at version
``V`` missed ``V − v`` peer updates.

This class is written once and hosted three ways: the DES engine calls it
from its event callbacks (``TrainingEngine.store``), the threaded backend
wraps it in a lock and wall-clock instrumentation
(``ThreadedParameterServer``), and the server process runs it over the
live backing of its shared-memory store, applying each push inside the
write fence that publishes the new version.  Serialisation is the host's
job; the store itself holds no lock and reads no clock.
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


class PushRecord(NamedTuple):
    """Bookkeeping for one applied push."""

    worker_id: int
    version_after: int
    snapshot_version: int
    staleness: int
    learning_rate: float


class ParameterStore:
    """Global parameters + update rule + version counter.

    The store *adopts* ``initial_params``: it applies every push to those
    arrays in place, so the caller hands over freshly made arrays it does
    not read again — or, in the server process, the shared-memory backing
    that the write fence publishes.
    """

    def __init__(self, initial_params: ParamSet, update_rule: SgdUpdateRule):
        self._params = initial_params
        self._update_rule = update_rule
        self._version = 0
        self._missed = 0  # staleness summed over every applied push

    def snapshot(self) -> PullSnapshot:
        """A consistent deep copy of the current parameters."""
        return PullSnapshot(self._params.copy(), self._version)

    def apply_push(
        self, worker_id: int, gradient: ParamSet, snapshot_version: int
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
        self._missed += staleness
        return PushRecord(worker_id, self._version, snapshot_version, staleness, rate)

    @property
    def version(self) -> int:
        """Number of pushes applied so far."""
        return self._version

    @property
    def params(self) -> ParamSet:
        """Live view of the parameters (read-only by convention)."""
        return self._params

    def mean_staleness(self) -> float:
        """Average missed-updates count over all applied pushes."""
        return self._missed / self._version if self._version else 0.0

    def __repr__(self) -> str:
        return f"ParameterStore(version={self._version})"
