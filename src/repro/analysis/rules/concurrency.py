"""Concurrency rule pack for ``repro.runtime``.

The threaded and multiprocess backends are the one place this codebase
uses real locks, timers, and queues — and the one place a silent ordering
bug costs a debugging epoch instead of a failed assertion.  These rules
build a *static* picture of that machinery:

* a lock-acquisition-order graph across ``threaded.py`` /
  ``multiprocess.py`` — a cycle means two code paths can acquire the same
  locks in opposite orders, the classic deadlock;
* thread/timer hygiene — a non-daemon thread that is never joined keeps
  the process alive after a test run finishes;
* blocking queue calls without timeouts — a worker blocked forever on a
  dead peer's queue is indistinguishable from a hang;
* shared mutable state (underscore attributes of lock-owning classes)
  touched outside the lock;
* ndarrays pickled onto the multiprocessing queues that the zero-copy
  ``repro.ps.shm`` store replaced.

The first four rules only fire on modules under ``repro.runtime`` — the
rest of the codebase is single-threaded by design and the DES needs none
of this.  ``PERF-PICKLE-PAYLOAD`` fires in any module that imports
``multiprocessing``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    dotted_name,
    import_aliases,
    resolve_call_name,
    resolve_name,
    walk_functions as _walk_functions,
    walk_own_scope,
)
from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity

__all__ = [
    "RUNTIME_PACKAGE",
    "StaticLockGraph",
    "build_lock_order_graph",
    "find_cycles",
    "LockOrderRule",
    "ThreadDaemonRule",
    "QueueTimeoutRule",
    "UnlockedStateRule",
    "PicklePayloadRule",
]

RUNTIME_PACKAGE = "repro.runtime"

_LOCK_CONSTRUCTORS = {
    "threading.Lock": False,
    "threading.RLock": True,
    "multiprocessing.Lock": False,
    "multiprocessing.RLock": True,
}


def in_runtime_zone(module: ModuleInfo) -> bool:
    """Whether the module is part of the real-time runtime package."""
    return module.module == RUNTIME_PACKAGE or module.module.startswith(
        RUNTIME_PACKAGE + "."
    )


@dataclass
class _LockTable:
    """Locks declared in one module, keyed for cross-function lookup."""

    #: class name -> attribute name -> reentrant?
    class_locks: Dict[str, Dict[str, bool]] = field(default_factory=dict)
    #: module-level lock variable name -> reentrant?
    global_locks: Dict[str, bool] = field(default_factory=dict)


def _collect_locks(module: ModuleInfo, aliases: Dict[str, str]) -> _LockTable:
    table = _LockTable()
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            name = resolve_call_name(node.value, aliases)
            if name in _LOCK_CONSTRUCTORS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        table.global_locks[target.id] = _LOCK_CONSTRUCTORS[name]
        elif isinstance(node, ast.ClassDef):
            attrs: Dict[str, bool] = {}
            for statement in ast.walk(node):
                if not isinstance(statement, ast.Assign):
                    continue
                if not isinstance(statement.value, ast.Call):
                    continue
                ctor = resolve_call_name(statement.value, aliases)
                if ctor not in _LOCK_CONSTRUCTORS:
                    continue
                for target in statement.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs[target.attr] = _LOCK_CONSTRUCTORS[ctor]
            if attrs:
                table.class_locks[node.name] = attrs
    return table


def _lock_for_expr(
    expr: ast.AST,
    module: ModuleInfo,
    class_name: Optional[str],
    table: _LockTable,
) -> Optional[Tuple[str, bool]]:
    """``(lock_qualname, reentrant)`` for a ``with`` context, if a lock."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and class_name is not None
    ):
        attrs = table.class_locks.get(class_name, {})
        if expr.attr in attrs:
            return f"{module.module}.{class_name}.{expr.attr}", attrs[expr.attr]
    elif isinstance(expr, ast.Name) and expr.id in table.global_locks:
        return f"{module.module}.{expr.id}", table.global_locks[expr.id]
    return None


@dataclass
class StaticLockGraph:
    """The statically derived lock-acquisition-order facts.

    ``edges[src][dst]`` holds the first witness ``(module, line)`` where
    ``dst`` is acquired while ``src`` is held; ``self_deadlocks`` lists
    non-reentrant locks re-acquired while already held.
    """

    edges: Dict[str, Dict[str, Tuple[ModuleInfo, int]]] = field(default_factory=dict)
    self_deadlocks: List[Tuple[str, ModuleInfo, int]] = field(default_factory=list)


def build_lock_order_graph(modules: Sequence[ModuleInfo]) -> StaticLockGraph:
    """Build the static lock-acquisition-order graph over ``modules``.

    Edges ``A -> B`` are added whenever lock B is acquired while A is
    held — directly through nested ``with`` blocks, or one call deep
    through ``self.method()`` / module-function calls made under a lock.
    Lock names are fully qualified (``module.Class.attr`` / ``module.var``).
    """
    graph = StaticLockGraph()
    direct: Dict[Tuple[str, Optional[str], str], Set[str]] = {}
    deferred_calls: List[
        Tuple[List[str], Tuple[str, Optional[str], str], ModuleInfo, int]
    ] = []

    def add_edge(src: str, dst: str, module: ModuleInfo, line: int) -> None:
        graph.edges.setdefault(src, {}).setdefault(dst, (module, line))

    for module in modules:
        aliases = import_aliases(module.tree)
        table = _collect_locks(module, aliases)

        def walk(
            node: ast.AST,
            held: List[str],
            class_name: Optional[str],
            fn_key: Tuple[str, Optional[str], str],
            module: ModuleInfo = module,
            table: _LockTable = table,
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
                ):
                    continue  # separate execution context
                if isinstance(child, ast.With):
                    acquired: List[str] = []
                    for item in child.items:
                        info = _lock_for_expr(
                            item.context_expr, module, class_name, table
                        )
                        if info is None:
                            continue
                        lock, reentrant = info
                        if lock in held and not reentrant:
                            graph.self_deadlocks.append(
                                (lock, module, child.lineno)
                            )
                        for holder in held:
                            if holder != lock:
                                add_edge(holder, lock, module, child.lineno)
                        acquired.append(lock)
                        direct.setdefault(fn_key, set()).add(lock)
                    walk(child, held + acquired, class_name, fn_key)
                    continue
                if isinstance(child, ast.Call) and held:
                    callee: Optional[Tuple[str, Optional[str], str]] = None
                    func = child.func
                    if (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ):
                        callee = (module.module, class_name, func.attr)
                    elif isinstance(func, ast.Name):
                        callee = (module.module, None, func.id)
                    if callee is not None:
                        deferred_calls.append(
                            (list(held), callee, module, child.lineno)
                        )
                walk(child, held, class_name, fn_key)

        for class_def, fn in _walk_functions(module.tree):
            class_name = class_def.name if class_def is not None else None
            fn_key = (module.module, class_name, fn.name)
            direct.setdefault(fn_key, set())
            walk(fn, [], class_name, fn_key)

    # One call level deep: locks the callee takes while the caller
    # holds its own.
    for held, callee, module, line in deferred_calls:
        for lock in direct.get(callee, ()):
            for holder in held:
                if holder != lock:
                    add_edge(holder, lock, module, line)

    return graph


def find_cycles(edges: Mapping[str, Mapping[str, object]]) -> List[Tuple[str, ...]]:
    """Elementary cycles in a directed graph, deduped by member set.

    ``edges`` maps source node -> {destination node -> payload}; payloads
    are ignored.  Each cycle is reported once, as the node tuple starting
    from its smallest member, in deterministic (sorted) order.
    """
    cycles: List[Tuple[str, ...]] = []
    seen: Set[frozenset] = set()

    def dfs(start: str, node: str, path: List[str], visited: Set[str]) -> None:
        for succ in sorted(edges.get(node, ())):
            if succ == start and len(path) > 1:
                key = frozenset(path)
                if key not in seen:
                    seen.add(key)
                    cycles.append(tuple(path))
            elif succ not in visited and succ > start:
                # Only explore nodes ordered after the start so each cycle
                # is discovered from its smallest member exactly once.
                visited.add(succ)
                dfs(start, succ, path + [succ], visited)
                visited.discard(succ)

    for start in sorted(edges):
        dfs(start, start, [start], {start})
    return cycles


class LockOrderRule(Rule):
    """CONC-LOCK-ORDER: cyclic lock-acquisition order across the runtime.

    Runs :func:`build_lock_order_graph` over the runtime modules and
    reports any cycle (including a non-reentrant lock acquired while
    already held) as a potential deadlock.
    """

    rule_id = "CONC-LOCK-ORDER"
    severity = Severity.ERROR
    description = "Lock-acquisition-order cycle (potential deadlock)."

    def check_project(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterator[Finding]:
        runtime_modules = [m for m in modules if in_runtime_zone(m)]
        if not runtime_modules:
            return

        graph = build_lock_order_graph(runtime_modules)

        for lock, module, line in graph.self_deadlocks:
            yield self.finding(
                module,
                line,
                f"non-reentrant lock {lock} acquired while already held "
                f"(guaranteed self-deadlock); use RLock or restructure",
            )

        for cycle in find_cycles(graph.edges):
            first, second = cycle[0], cycle[1 % len(cycle)]
            module, line = graph.edges[first][second]
            chain = " -> ".join(cycle + (cycle[0],))
            yield self.finding(
                module,
                line,
                f"lock-order cycle {chain}; two paths can acquire these "
                f"locks in opposite orders and deadlock",
            )


class ThreadDaemonRule(Rule):
    """CONC-THREAD-DAEMON: threads/timers that can outlive the run.

    A ``threading.Thread`` or ``threading.Timer`` must either be created
    with ``daemon=``, have ``.daemon`` assigned before start, or be
    joined in the same function — otherwise a stuck worker keeps the
    whole process (and the test suite) alive forever.  Thread subclasses
    must pass ``daemon=`` through ``super().__init__``.
    """

    rule_id = "CONC-THREAD-DAEMON"
    severity = Severity.ERROR
    description = "Thread/Timer without daemon= and without a join."

    _THREAD_CTORS = ("threading.Thread", "threading.Timer")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not in_runtime_zone(module):
            return
        aliases = import_aliases(module.tree)
        for class_def, fn in _walk_functions(module.tree):
            assigns_daemon = False
            joins = False
            for node in walk_own_scope(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Attribute) and target.attr == "daemon":
                            assigns_daemon = True
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr == "join":
                        joins = True
            for node in walk_own_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = resolve_call_name(node, aliases)
                if name in self._THREAD_CTORS:
                    has_daemon_kw = any(kw.arg == "daemon" for kw in node.keywords)
                    if not has_daemon_kw and not assigns_daemon and not joins:
                        yield self.finding(
                            module,
                            node.lineno,
                            f"{name}(...) created without daemon= and never "
                            f"joined in {fn.name}(); a stuck thread would "
                            f"hang process exit",
                        )
        yield from self._check_thread_subclasses(module, aliases)

    def _check_thread_subclasses(
        self, module: ModuleInfo, aliases: Dict[str, str]
    ) -> Iterator[Finding]:
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            is_thread = any(
                (base_name := dotted_name(base)) is not None
                and resolve_name(base_name, aliases) == "threading.Thread"
                for base in node.bases
            )
            if not is_thread:
                continue
            for statement in node.body:
                if (
                    isinstance(statement, ast.FunctionDef)
                    and statement.name == "__init__"
                ):
                    ok = False
                    for call in ast.walk(statement):
                        if (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "__init__"
                            and any(kw.arg == "daemon" for kw in call.keywords)
                        ):
                            ok = True
                        if isinstance(call, ast.Assign):
                            for target in call.targets:
                                if (
                                    isinstance(target, ast.Attribute)
                                    and target.attr == "daemon"
                                ):
                                    ok = True
                    if not ok:
                        yield self.finding(
                            module,
                            statement.lineno,
                            f"Thread subclass {node.name} does not pass "
                            f"daemon= to super().__init__ (nor assign "
                            f".daemon); instances default to non-daemon",
                        )


class QueueTimeoutRule(Rule):
    """CONC-QUEUE-TIMEOUT: blocking queue calls with no way out.

    ``get()``/``put()`` on anything queue-named must pass ``timeout=`` or
    ``block=False`` (or use the ``_nowait`` variants).  Exception: ``put``
    on a queue constructed unbounded (``Queue()`` with no maxsize) in the
    same function never blocks, so it is exempt.  Queues received as
    parameters have unknown boundedness — an unbounded-by-construction
    put through a parameter deserves a suppression with a justification
    rather than silence.
    """

    rule_id = "CONC-QUEUE-TIMEOUT"
    severity = Severity.WARNING
    description = "Blocking Queue.get/put without timeout or block=False."

    @staticmethod
    def _queue_base_name(func: ast.Attribute) -> Optional[str]:
        value = func.value
        if isinstance(value, ast.Subscript):
            value = value.value
        name = dotted_name(value)
        if name is None:
            return None
        base = name.split(".")[-1]
        return base if "queue" in base.lower() else None

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not in_runtime_zone(module):
            return
        for _class_def, fn in _walk_functions(module.tree):
            unbounded: Set[str] = set()
            for node in walk_own_scope(fn):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    ctor = dotted_name(node.value.func)
                    if (
                        ctor is not None
                        and ctor.split(".")[-1] == "Queue"
                        and not node.value.args
                        and not any(kw.arg == "maxsize" for kw in node.value.keywords)
                    ):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                unbounded.add(target.id)
            for node in walk_own_scope(fn):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "put")
                ):
                    continue
                base = self._queue_base_name(node.func)
                if base is None:
                    continue
                has_timeout = any(kw.arg == "timeout" for kw in node.keywords)
                non_blocking = any(
                    kw.arg == "block"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.keywords
                )
                if has_timeout or non_blocking:
                    continue
                if node.func.attr == "put" and base in unbounded:
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    f"blocking {base}.{node.func.attr}() without timeout= in "
                    f"{fn.name}(); a dead peer turns this into a silent hang",
                )


class UnlockedStateRule(Rule):
    """CONC-UNLOCKED-STATE: guarded attributes touched outside the lock.

    For classes that own a lock, the convention is that every underscore
    attribute assigned in ``__init__`` is guarded by it.  Reading or
    writing such an attribute in any other method outside a ``with
    self.<lock>`` block is a data race (or at best a dirty read).
    """

    rule_id = "CONC-UNLOCKED-STATE"
    severity = Severity.WARNING
    description = "Lock-owning class touches guarded state outside the lock."

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not in_runtime_zone(module):
            return
        aliases = import_aliases(module.tree)
        table = _collect_locks(module, aliases)
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            lock_attrs = table.class_locks.get(node.name)
            if not lock_attrs:
                continue
            guarded = self._guarded_attrs(node, lock_attrs)
            if not guarded:
                continue
            for statement in node.body:
                if (
                    isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and statement.name != "__init__"
                ):
                    yield from self._check_method(
                        module, node.name, statement, lock_attrs, guarded
                    )

    @staticmethod
    def _guarded_attrs(
        class_def: ast.ClassDef, lock_attrs: Dict[str, bool]
    ) -> Set[str]:
        guarded: Set[str] = set()
        for statement in class_def.body:
            if (
                isinstance(statement, ast.FunctionDef)
                and statement.name == "__init__"
            ):
                for node in ast.walk(statement):
                    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and target.attr.startswith("_")
                                and not target.attr.startswith("__")
                                and target.attr not in lock_attrs
                            ):
                                guarded.add(target.attr)
        return guarded

    def _check_method(
        self,
        module: ModuleInfo,
        class_name: str,
        method: ast.AST,
        lock_attrs: Dict[str, bool],
        guarded: Set[str],
    ) -> Iterator[Finding]:
        reported: Set[str] = set()

        def is_lock_with(stmt: ast.With) -> bool:
            for item in stmt.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in lock_attrs
                ):
                    return True
            return False

        def walk(node: ast.AST, locked: bool) -> Iterator[Finding]:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
                ):
                    continue  # deferred execution: treated separately
                if isinstance(child, ast.With):
                    yield from walk(child, locked or is_lock_with(child))
                    continue
                if (
                    not locked
                    and isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "self"
                    and child.attr in guarded
                    and child.attr not in reported
                ):
                    reported.add(child.attr)
                    yield self.finding(
                        module,
                        child.lineno,
                        f"{class_name}.{method.name}() touches guarded "
                        f"attribute self.{child.attr} outside the lock",
                    )
                yield from walk(child, locked)

        yield from walk(method, locked=False)


#: Names that very likely bind ndarrays in this codebase.
ARRAYISH_RE = re.compile(
    r"(^|_)(grad|gradient|param|params|weights?|tensor|array|snapshot|vec|buf|buffer)s?($|_)",
    re.IGNORECASE,
)


class PicklePayloadRule(Rule):
    """PERF-PICKLE-PAYLOAD: ndarrays crossing multiprocessing queues.

    The multiprocess data plane is the shared-memory store; its queues
    carry control tags only, and an ndarray on one is pickled across the
    process boundary on every transfer.
    """

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
