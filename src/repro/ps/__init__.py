"""Parameter-server substrate: sharded store, versioning, training engine.

This package is the from-scratch stand-in for MXNet's KVStore plus the
distributed worker runtime (paper Fig. 1): a versioned parameter store that
servers own, worker clients that pull snapshots and push gradients over the
simulated network, and the :class:`TrainingEngine` that drives every worker
through the pull → compute → push loop under a pluggable synchronization
policy.
"""

from repro.ps.store import ParameterStore, PullSnapshot, PushRecord
from repro.ps.policy import SyncPolicy, WorkerView
from repro.ps.engine import TrainingEngine, EngineConfig, WorkerRuntime
from repro.ps.result import RunResult, WorkerStats
from repro.ps.shm import ShmArraySegment, ShmParamStore, ShmTornRead

__all__ = [
    "ParameterStore",
    "PullSnapshot",
    "PushRecord",
    "SyncPolicy",
    "WorkerView",
    "TrainingEngine",
    "EngineConfig",
    "WorkerRuntime",
    "RunResult",
    "WorkerStats",
    "ShmArraySegment",
    "ShmParamStore",
    "ShmTornRead",
]
