"""The ownership pack: buffer aliasing and array transport.

The zero-copy shared-memory parameter path (``repro.ps.shm``) is only
correct if no store keeps a caller's array by reference, and only fast
if arrays travel through shared memory rather than through the queues.

``BUF-ALIAS-STORE`` (warning, project rule)
    storing a caller's array into ``self``-rooted state without a copy —
    a store must not alias its caller's array; the caller's later writes
    would silently corrupt the store.  Runs the interprocedural
    :class:`repro.analysis.ownership.OwnershipAnalysis` (see that module
    for the abstract domain).
``PERF-PICKLE-PAYLOAD`` (warning, per-file syntactic check)
    an array-carrying payload ``put()`` on a multiprocessing queue.  The
    multiprocess data plane is the shared-memory store; its queues carry
    control tags only, and an ndarray on one is pickled across the
    process boundary on every transfer.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence

from repro.analysis.astutil import dotted_name, import_aliases
from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.ownership import ARRAYISH_RE, OwnershipAnalysis, param_name

__all__ = [
    "BufAliasStoreRule",
    "PicklePayloadRule",
]

class BufAliasStoreRule(Rule):
    rule_id = "BUF-ALIAS-STORE"
    severity = Severity.WARNING
    description = (
        "caller's array stored into self-rooted state without a copy"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        analysis = OwnershipAnalysis(modules)
        by_module: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        for qualname in sorted(analysis.results):
            fn = analysis.results[qualname]
            for site in fn.stores:
                params = ", ".join(
                    f"'{name}'" for name in sorted(map(param_name, site.origins))
                )
                yield self.finding(
                    by_module[fn.module],
                    site.line,
                    f"{fn.name}() stores parameter(s) {params} into "
                    f"'{site.target}' without copying; the store now aliases "
                    f"caller memory and the caller's later writes corrupt "
                    f"it — a store must not alias its caller's array; "
                    f"np.array(value, copy=True) first",
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
