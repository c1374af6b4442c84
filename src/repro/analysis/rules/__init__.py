"""Rule packs and the registry.

Three packs; each rule either caught a real defect here or guards an
invariant no test, type or runtime check holds (the audit is logged in
CHANGES.md, the rules are tabled in ``docs/static_analysis.md``):

* :mod:`repro.analysis.rules.determinism` — ``None`` defaults under
  non-``Optional`` annotations;
* :mod:`repro.analysis.rules.concurrency` — lock-order cycles, daemonless
  threads, un-timed queue blocking, unlocked shared state in
  ``repro.runtime``, and ndarrays pickled onto the multiprocessing
  queues that the zero-copy ``repro.ps.shm`` store replaced;
* :mod:`repro.analysis.rules.flow` — resources released on every CFG
  path (built on :mod:`repro.analysis.flow`).

To add a rule: subclass :class:`repro.analysis.engine.Rule`, give it a
unique ``rule_id``, implement ``check_module`` (per-file) or
``check_project`` (cross-file), and register it in :data:`RULE_PACKS`.
See ``docs/static_analysis.md`` for the full walkthrough.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Type

from repro.analysis.engine import Rule
from repro.analysis.rules.concurrency import (
    LockOrderRule,
    PicklePayloadRule,
    QueueTimeoutRule,
    ThreadDaemonRule,
    UnlockedStateRule,
)
from repro.analysis.rules.determinism import ImplicitOptionalRule
from repro.analysis.rules.flow import ReleaseOnAllPathsRule

__all__ = [
    "default_rules",
    "rules_for",
    "RULE_CLASSES",
    "RULE_PACKS",
]

#: pack name -> rule classes; ``repro lint --pack <name>`` selects one.
RULE_PACKS: Dict[str, Tuple[Type[Rule], ...]] = {
    "determinism": (ImplicitOptionalRule,),
    "concurrency": (
        LockOrderRule,
        ThreadDaemonRule,
        QueueTimeoutRule,
        UnlockedStateRule,
        PicklePayloadRule,
    ),
    "flow": (ReleaseOnAllPathsRule,),
}

#: Every registered rule class, in pack order.
RULE_CLASSES: Tuple[Type[Rule], ...] = tuple(
    cls for pack in RULE_PACKS.values() for cls in pack
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULE_CLASSES]


def rules_for(
    rule_ids: Optional[Iterable[str]] = None,
    packs: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Fresh instances of the selected rules.

    ``rule_ids`` selects by exact id (``FLOW-RELEASE``), ``packs`` by
    pack name (``flow``); the two union.  With neither given, every
    registered rule is returned.  Unknown names raise ``ValueError``
    listing the valid choices — a typo must not silently lint nothing.
    """
    wanted_ids = set(rule_ids or ())
    wanted_packs = set(packs or ())
    if not wanted_ids and not wanted_packs:
        return default_rules()

    unknown_packs = wanted_packs - set(RULE_PACKS)
    if unknown_packs:
        raise ValueError(
            f"unknown pack(s) {sorted(unknown_packs)}; "
            f"choose from {sorted(RULE_PACKS)}"
        )
    all_ids = {cls.rule_id for cls in RULE_CLASSES}
    unknown_ids = wanted_ids - all_ids
    if unknown_ids:
        raise ValueError(
            f"unknown rule id(s) {sorted(unknown_ids)}; "
            f"choose from {sorted(all_ids)}"
        )

    selected: List[Rule] = []
    for pack_name, classes in RULE_PACKS.items():
        for cls in classes:
            if pack_name in wanted_packs or cls.rule_id in wanted_ids:
                selected.append(cls())
    return selected
