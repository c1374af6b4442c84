"""Track-name and flow-key conventions shared by all instrumented layers.

The exporter lays out one Perfetto thread per track name; the scheduler
registers abort-flow origins under the same key the engine closes at the
abort point.  Centralizing both here keeps the DES (``worker-N``) and
runtime (``rt.worker-N``) namespaces consistent and the causal pairing
typo-proof.
"""

from __future__ import annotations

import re
from typing import Tuple

__all__ = [
    "SERVER_TRACK",
    "SCHEDULER_TRACK",
    "RT_SERVER_TRACK",
    "RT_SCHEDULER_TRACK",
    "RT_RUN_TRACK",
    "WORKER_TRACK_RE",
    "worker_track",
    "rt_worker_track",
    "resync_flow_key",
]

#: DES tracks (virtual-time domain)
SERVER_TRACK = "server"
SCHEDULER_TRACK = "scheduler"

#: Runtime-backend tracks (wall-time domain)
RT_SERVER_TRACK = "rt.server"
RT_SCHEDULER_TRACK = "rt.scheduler"
RT_RUN_TRACK = "rt.run"

#: Worker tracks in both namespaces (DES ``worker-N``, runtime
#: ``rt.worker-N``); everything else is infrastructure.
WORKER_TRACK_RE = re.compile(r"^(?:rt\.)?worker-(\d+)$")


def worker_track(worker_id: int) -> str:
    """The DES track for one worker."""
    return f"worker-{worker_id}"


def rt_worker_track(worker_id: int) -> str:
    """The runtime-backend track for one worker."""
    return f"rt.worker-{worker_id}"


def resync_flow_key(worker_id: int, iteration: int) -> Tuple[str, int, int]:
    """Pending-flow key linking a re-sync decision to the abort it causes."""
    return ("resync", worker_id, iteration)
