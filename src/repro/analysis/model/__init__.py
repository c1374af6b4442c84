"""Explicit-state model checking of the SpecSync abort/re-sync protocol.

This subpackage has two halves that check each other:

* :mod:`~repro.analysis.model.checker` — a small zero-dependency
  explicit-state model checker (BFS/DFS over hashed states, invariant +
  deadlock + liveness checks, shortest-counterexample reconstruction);
* :mod:`~repro.analysis.model.specsync` — a formal model of the
  scheduler/worker/server protocol whose alphabet is exactly
  :class:`repro.netsim.messages.MessageKind` (enforced by
  ``tests/test_model_specsync.py``).

:mod:`~repro.analysis.model.conformance` closes the loop by projecting
*real* runs — DES runs via the simulator tap bus, multiprocess runs via
the server wire-tag trace — onto model transitions, and
:mod:`~repro.analysis.model.mutations` seeds known protocol bugs that
the checker must reject.  :mod:`~repro.analysis.model.harness` wires it
all into ``repro modelcheck``.
"""

from __future__ import annotations

from repro.analysis.model.checker import CheckResult, Violation, explore
from repro.analysis.model.conformance import (
    ConformanceReport,
    ShadowTracker,
    replay_wire_trace,
    run_des_conformance,
)
from repro.analysis.model.harness import (
    ModelCheckReport,
    MutantOutcome,
    SchemeCheck,
    run_modelcheck,
    run_mutation_harness,
)
from repro.analysis.model.mutations import MUTATIONS, Mutation, mutation_names
from repro.analysis.model.specsync import (
    INTERNAL_ACTIONS,
    MODEL_ALPHABET,
    SCHEMES,
    Action,
    ProtocolState,
    SpecSyncModel,
    WorkerState,
)

__all__ = [
    "explore",
    "CheckResult",
    "Violation",
    "SpecSyncModel",
    "Action",
    "WorkerState",
    "ProtocolState",
    "MODEL_ALPHABET",
    "INTERNAL_ACTIONS",
    "SCHEMES",
    "Mutation",
    "MUTATIONS",
    "mutation_names",
    "ShadowTracker",
    "ConformanceReport",
    "run_des_conformance",
    "replay_wire_trace",
    "SchemeCheck",
    "MutantOutcome",
    "ModelCheckReport",
    "run_modelcheck",
    "run_mutation_harness",
]
