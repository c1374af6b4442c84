"""BUF-*: buffer ownership & aliasing rules over the ownership analysis.

The zero-copy shared-memory parameter path (``repro.ps.shm``) is only
correct if three invariants hold everywhere arrays flow: nobody mutates
an array they merely borrowed, public APIs never hand out views of
internal state, and raw shared-segment buffers are touched only inside a
version fence.  These rules check exactly that, driven by the
interprocedural facts :class:`repro.analysis.ownership.OwnershipAnalysis`
computes (see that module for the abstract domain):

``BUF-MUT-BORROWED`` (warning)
    in-place mutation (``+=``, ``x[...] =``, ``out=``, ``.fill()``...)
    through a variable that may alias a caller's argument.  Functions
    whose docstring declares the in-place contract ("in place",
    "mutates") are exempt — the mutation *is* the documented API.
``BUF-RETURN-VIEW`` (warning)
    a public function returning a view of ``self`` internals, with the
    alias-introducing line as the finding's witness path.  Docstrings
    that advertise the view ("live view", "alias") are exempt.
``BUF-ALIAS-STORE`` (warning)
    storing a caller's array into ``self``-rooted state without a copy —
    a store must not alias its caller's array; the caller's later writes
    would silently corrupt the store.
``BUF-SHM-UNFENCED`` (error)
    a raw shared-memory buffer (``segment.array`` / ``shm.buf``) read or
    written outside a ``read_fence()``/``write_fence()`` block.  Torn
    snapshots are a correctness bug, not a style issue, hence the
    severity.  ``repro.ps.shm`` itself — the fence implementation — is
    exempt.
``PERF-PICKLE-PAYLOAD`` (warning)
    an array-carrying payload ``put()`` on a multiprocessing queue.  The
    multiprocess data plane is the shared-memory store; its queues carry
    control tags only, and an ndarray on one is pickled across the
    process boundary on every transfer.

The four BUF rules are project rules: they share one
:class:`OwnershipAnalysis` per lint batch through a one-slot cache.
PERF-PICKLE-PAYLOAD is a per-file syntactic check.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.astutil import dotted_name, import_aliases
from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.ownership import (
    ARRAYISH_RE,
    FunctionOwnership,
    OwnershipAnalysis,
    param_name,
    self_attr,
)

__all__ = [
    "BufMutateBorrowedRule",
    "BufReturnViewRule",
    "BufAliasStoreRule",
    "BufShmUnfencedRule",
    "PicklePayloadRule",
]

#: docstrings that declare an in-place mutation contract.
_INPLACE_DOC_RE = re.compile(r"in[- ]?place|mutat", re.IGNORECASE)

#: docstrings that advertise returning a view/alias of internal state.
_VIEW_DOC_RE = re.compile(r"\bview\b|\balias", re.IGNORECASE)

#: One-slot cache: the engine hands every rule the same batch object, so
#: the four BUF rules share one call graph + dataflow fixpoint.
_ANALYSIS_CACHE: List[Tuple[Tuple[Tuple[str, int], ...], OwnershipAnalysis]] = []


def _ownership(modules: Sequence[ModuleInfo]) -> OwnershipAnalysis:
    key = tuple((m.path, hash(m.source)) for m in modules)
    if _ANALYSIS_CACHE and _ANALYSIS_CACHE[0][0] == key:
        return _ANALYSIS_CACHE[0][1]
    analysis = OwnershipAnalysis(modules)
    _ANALYSIS_CACHE.clear()
    _ANALYSIS_CACHE.append((key, analysis))
    return analysis


class _OwnershipRule(Rule):
    """Shared plumbing: run the batch analysis, dispatch per function."""

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        analysis = _ownership(modules)
        by_module: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        for qualname in sorted(analysis.results):
            result = analysis.results[qualname]
            module = by_module.get(result.module)
            if module is None:  # pragma: no cover - results come from modules
                continue
            yield from self.check_function(module, result)

    def check_function(
        self, module: ModuleInfo, fn: FunctionOwnership
    ) -> Iterator[Finding]:
        raise NotImplementedError


def _origins_text(origins: frozenset, prefix_fmt: str) -> str:
    names = sorted(
        param_name(o) if o.startswith("param:") else self_attr(o) for o in origins
    )
    return prefix_fmt.format(", ".join(f"'{n}'" for n in names))


class BufMutateBorrowedRule(_OwnershipRule):
    rule_id = "BUF-MUT-BORROWED"
    severity = Severity.WARNING
    description = (
        "in-place mutation of an array the function does not own "
        "(borrowed from a caller's argument)"
    )

    def check_function(
        self, module: ModuleInfo, fn: FunctionOwnership
    ) -> Iterator[Finding]:
        if _INPLACE_DOC_RE.search(fn.docstring):
            return  # documented in-place contract
        for site in fn.mutations:
            params = _origins_text(site.origins, "parameter(s) {}")
            yield self.finding(
                module,
                site.line,
                f"{fn.name}() mutates '{site.target}' in place ({site.kind}), "
                f"but it may alias {params} the caller still owns; "
                f".copy() before mutating, or document the in-place "
                f"contract in the docstring",
            )


class BufReturnViewRule(_OwnershipRule):
    rule_id = "BUF-RETURN-VIEW"
    severity = Severity.WARNING
    description = (
        "public function returns a view aliasing internal (self) state"
    )

    def check_function(
        self, module: ModuleInfo, fn: FunctionOwnership
    ) -> Iterator[Finding]:
        if not fn.is_public:
            return
        if _VIEW_DOC_RE.search(fn.docstring):
            return  # the view is the documented API
        for site in fn.returns:
            internals = frozenset(o for o in site.origins if o.startswith("self:"))
            if not internals:
                continue
            attrs = _origins_text(internals, "internal state {}")
            flow_path: Tuple[int, ...] = ()
            if site.intro_line is not None and site.intro_line != site.line:
                flow_path = (site.intro_line, site.line)
            yield self.finding(
                module,
                site.line,
                f"public {fn.name}() returns a view of {attrs}; a caller "
                f"mutating the result corrupts the object — return a .copy() "
                f"or document the view contract",
                flow_path=flow_path,
            )


class BufAliasStoreRule(_OwnershipRule):
    rule_id = "BUF-ALIAS-STORE"
    severity = Severity.WARNING
    description = (
        "caller's array stored into self-rooted state without a copy"
    )

    def check_function(
        self, module: ModuleInfo, fn: FunctionOwnership
    ) -> Iterator[Finding]:
        for site in fn.stores:
            params = _origins_text(site.origins, "parameter(s) {}")
            yield self.finding(
                module,
                site.line,
                f"{fn.name}() stores {params} into '{site.target}' without "
                f"copying; the store now aliases caller memory and the "
                f"caller's later writes corrupt it — a store must not "
                f"alias its caller's array; np.array(value, copy=True) first",
            )


class BufShmUnfencedRule(_OwnershipRule):
    rule_id = "BUF-SHM-UNFENCED"
    severity = Severity.ERROR
    description = (
        "raw shared-memory buffer access outside a version fence"
    )

    def check_function(
        self, module: ModuleInfo, fn: FunctionOwnership
    ) -> Iterator[Finding]:
        seen: set = set()
        for site in fn.shm_accesses:
            if site.line in seen:
                continue  # dataflow + lexical passes both saw this line
            seen.add(site.line)
            how = (
                "touches the raw shared buffer"
                if site.kind == "raw"
                else "mutates a view of a shared buffer"
            )
            yield self.finding(
                module,
                site.line,
                f"{fn.name}() {how} '{site.expr}' outside a read_fence()/"
                f"write_fence() block; concurrent writers make unfenced "
                f"access a torn read/write — wrap it in the owning store's "
                f"fence",
            )


class PicklePayloadRule(Rule):
    """ndarrays crossing multiprocessing queues by pickling."""

    rule_id = "PERF-PICKLE-PAYLOAD"
    severity = Severity.WARNING
    description = (
        "ndarray payload put on a multiprocessing queue — every transfer "
        "pickles the full array across the process boundary"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if "multiprocessing" not in import_aliases(module.tree).values():
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if not isinstance(node.func, ast.Attribute) or node.func.attr != "put":
                continue
            # See through one subscript: ``queues[i].put`` -> ``queues``.
            receiver_node = node.func.value
            if isinstance(receiver_node, ast.Subscript):
                receiver_node = receiver_node.value
            receiver = dotted_name(receiver_node)
            if receiver is None or "queue" not in receiver.lower():
                continue
            carrier = self._array_payload(node.args[0])
            if carrier is None:
                continue
            yield self.finding(
                module,
                node.lineno,
                f"payload {carrier!r} on {receiver}.put() pickles an "
                "ndarray across the process boundary on every transfer; "
                "move bulk arrays to shared memory "
                "(multiprocessing.shared_memory) or keep the queue for "
                "control messages only",
            )

    @staticmethod
    def _array_payload(payload: ast.expr) -> Optional[str]:
        """Name of an array-carrying expression inside ``payload``."""
        for sub in ast.walk(payload):
            if isinstance(sub, ast.Name) and ARRAYISH_RE.search(sub.id):
                return sub.id
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "copy"
            ):
                base = dotted_name(sub.func.value)
                if base is not None and ARRAYISH_RE.search(base):
                    return f"{base}.copy()"
        return None
