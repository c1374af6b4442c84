"""Rule packs and the default registry.

Five packs, one per failure class the reproduction cannot afford:

* :mod:`repro.analysis.rules.determinism` — stray wall clocks, global
  RNG, unordered-set iteration, mutable defaults, lying annotations;
* :mod:`repro.analysis.rules.protocol` — message kinds without size
  accounting or handlers, dead wire tags;
* :mod:`repro.analysis.rules.concurrency` — lock-order cycles, daemonless
  threads, un-timed queue blocking, unlocked shared state in
  ``repro.runtime``;
* :mod:`repro.analysis.rules.flow` — flow-sensitive: resources released
  on every CFG path, no blocking calls reachable from async/tap code,
  no undeclared exceptions escaping the re-sync path, no dead branches
  or dispatch arms (built on :mod:`repro.analysis.flow`);
* :mod:`repro.analysis.rules.ownership` — buffer ownership & aliasing
  (BUF-*): in-place mutation of borrowed arrays, views of internal
  state escaping public APIs, caller arrays stored without copy, and
  unfenced shared-memory access — the pack that certifies the
  zero-copy ``repro.ps.shm`` parameter path — plus PERF-PICKLE-PAYLOAD,
  which keeps ndarrays off the multiprocess queues so that path stays
  the only one arrays take.  **Opt-in**: it reasons
  about array-typed code only, so CI runs it as a dedicated
  ``--pack ownership`` gate rather than in the default self-lint.

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
    QueueTimeoutRule,
    ThreadDaemonRule,
    UnlockedStateRule,
)
from repro.analysis.rules.determinism import (
    GlobalRngRule,
    ImplicitOptionalRule,
    MutableDefaultRule,
    SetIterationRule,
    WallClockRule,
)
from repro.analysis.rules.flow import (
    BlockingReachableRule,
    DeadPathRule,
    ExceptionEscapeRule,
    ReleaseOnAllPathsRule,
)
from repro.analysis.rules.ownership import (
    BufAliasStoreRule,
    BufMutateBorrowedRule,
    BufReturnViewRule,
    BufShmUnfencedRule,
    PicklePayloadRule,
)
from repro.analysis.rules.protocol import (
    MessageCategoryRule,
    MessageSizeRule,
    ModelAlphabetRule,
    UnhandledMessageKindRule,
    WireTagRule,
)

__all__ = [
    "default_rules",
    "rules_for",
    "ALL_RULE_CLASSES",
    "DEFAULT_RULE_CLASSES",
    "OPT_IN_PACKS",
    "RULE_PACKS",
]

#: pack name -> rule classes; ``repro lint --pack <name>`` selects one.
RULE_PACKS: Dict[str, Tuple[Type[Rule], ...]] = {
    "determinism": (
        WallClockRule,
        GlobalRngRule,
        SetIterationRule,
        MutableDefaultRule,
        ImplicitOptionalRule,
    ),
    "protocol": (
        MessageCategoryRule,
        UnhandledMessageKindRule,
        MessageSizeRule,
        WireTagRule,
        ModelAlphabetRule,
    ),
    "concurrency": (
        LockOrderRule,
        ThreadDaemonRule,
        QueueTimeoutRule,
        UnlockedStateRule,
    ),
    "flow": (
        ReleaseOnAllPathsRule,
        BlockingReachableRule,
        ExceptionEscapeRule,
        DeadPathRule,
    ),
    "ownership": (
        BufMutateBorrowedRule,
        BufReturnViewRule,
        BufAliasStoreRule,
        BufShmUnfencedRule,
        PicklePayloadRule,
    ),
}

#: Packs that only run when explicitly selected.  The ownership rules
#: reason about array aliasing and run as their own CI gate
#: (``--pack ownership --fail-on warning``).
OPT_IN_PACKS: Tuple[str, ...] = ("ownership",)

DEFAULT_RULE_CLASSES: Tuple[Type[Rule], ...] = tuple(
    cls
    for name, pack in RULE_PACKS.items()
    if name not in OPT_IN_PACKS
    for cls in pack
)

#: Every registered rule class, opt-in packs included (``--rule`` ids).
ALL_RULE_CLASSES: Tuple[Type[Rule], ...] = tuple(
    cls for pack in RULE_PACKS.values() for cls in pack
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in DEFAULT_RULE_CLASSES]


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
    all_ids = {cls.rule_id for cls in ALL_RULE_CLASSES}
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
