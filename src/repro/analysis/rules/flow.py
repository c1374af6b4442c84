"""Flow-sensitive rule pack: path and reachability properties.

Four rules built on :mod:`repro.analysis.flow` (CFG + dataflow solver +
call graph), complementing the per-node packs:

* **FLOW-RELEASE** — typestate: a lock/file/socket/thread resource
  acquired in a function must reach its release on *every* CFG path,
  including exception edges.  It subsumes the syntactic "acquire not in
  a ``with``" approximation.
* **FLOW-BLOCKING** — no blocking primitive (``time.sleep``, untimed
  ``Queue.get``/``put``, ``socket.recv``/``accept``, untimed
  ``Thread.join``/``Event.wait``) may be reachable from an ``async def``
  body or a registered simulator-tap callback, via call-graph closure.
* **FLOW-EXC** — an exception raised on the abort/re-sync path
  (``repro.ps.engine`` / ``repro.core.scheduler``) must be caught in the
  raising function or declared in its docstring's ``Raises`` section, so
  no recovery path can die silently.
* **FLOW-DEAD** — unreachable CFG blocks, plus ``MessageKind`` dispatch
  arms that are duplicates or test kinds outside the protocol model's
  ``MODEL_ALPHABET`` (arms the model checker proves can never fire).

All four attach ``flow_path`` — the line numbers along the offending
control or call path — so findings are actionable without re-deriving
the path by hand.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.astutil import (
    dotted_name,
    import_aliases,
    resolve_call_name,
    walk_functions,
    walk_own_scope,
)
from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.flow.cfg import CFG, EXIT, RAISE, Block, build_cfg
from repro.analysis.flow.solve import DataflowProblem, solve
from repro.analysis.rules.protocol import ModelAlphabetRule

__all__ = [
    "ReleaseOnAllPathsRule",
    "BlockingReachableRule",
    "ExceptionEscapeRule",
    "DeadPathRule",
]


# ----------------------------------------------------------------------
# FLOW-RELEASE
# ----------------------------------------------------------------------
#: functions that are themselves resource-management plumbing; a lock
#: wrapper's ``acquire`` intentionally acquires without releasing.
_WRAPPER_NAMES = {
    "acquire",
    "release",
    "close",
    "shutdown",
    "__enter__",
    "__exit__",
}

#: ``x = <ctor>()`` resources: resolved constructor -> release attrs
_CTOR_RESOURCES = {
    "open": ("file", ("close",)),
    "io.open": ("file", ("close",)),
    "socket.socket": ("socket", ("close", "shutdown")),
    "socket.create_connection": ("socket", ("close", "shutdown")),
}

#: ``x.start()`` resources are only tracked when a matching stop call
#: exists somewhere in the function — a fire-and-forget daemon thread is
#: a deliberate pattern, a started-then-sometimes-joined one is a leak.
_START_RELEASES = ("join", "cancel", "terminate", "stop")


@dataclass
class _Resource:
    """One tracked resource inside one function."""

    key: str  # receiver/variable dotted name, e.g. "self._lock", "handle"
    kind: str  # "lock" | "file" | "socket" | "started"
    acquire_blocks: Dict[int, int]  # block id -> line
    release_attrs: Tuple[str, ...]


def _stmt_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            yield node
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return  # nested scopes are analyzed separately


def _block_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls the CFG block for ``stmt`` actually evaluates.

    Compound-statement head blocks (``if``/``while``/``for``/``with``)
    only run their test or iterable — the body statements live in their
    own blocks — so walking the whole node would credit the head with
    calls it never makes.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        exprs: List[ast.expr] = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        exprs = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Try):
        return
    else:
        yield from _stmt_calls(stmt)
        return
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                yield node


def _is_release(stmt: Optional[ast.stmt], resource: _Resource) -> bool:
    if stmt is None:
        return False
    for call in _block_calls(stmt):
        name = dotted_name(call.func)
        if name is None:
            continue
        owner, _, attr = name.rpartition(".")
        if owner == resource.key and attr in resource.release_attrs:
            return True
    return False


class _HeldProblem(DataflowProblem[FrozenSet[str]]):
    """Forward may-analysis: which resources may be held at each block.

    Exception edges are per-block: an *acquire* that raises never
    acquired (pre-state flows out), while any other statement — release
    included — propagates its post-state, so ``finally: x.release()``
    does not self-report when the release itself could raise.
    """

    direction = "forward"

    def __init__(self, resources: Sequence[_Resource]):
        self._resources = resources

    def boundary(self, cfg: CFG) -> FrozenSet[str]:
        return frozenset()

    def initial(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def transfer(self, block: Block, value: FrozenSet[str]) -> FrozenSet[str]:
        out = set(value)
        for resource in self._resources:
            if block.block_id in resource.acquire_blocks:
                out.add(resource.key)
            elif _is_release(block.stmt, resource):
                out.discard(resource.key)
        return frozenset(out)

    def edge_value(
        self,
        block: Block,
        pre: FrozenSet[str],
        post: FrozenSet[str],
        kind: str,
    ) -> FrozenSet[str]:
        if kind != "exc":
            return post
        if block.in_finally:
            # a raise inside cleanup code is a double fault; flagging
            # "the statement before the release raised" would make every
            # multi-statement finally unfixable
            return frozenset()
        acquired_here = {
            r.key for r in self._resources if block.block_id in r.acquire_blocks
        }
        # the acquire did not complete on the exc edge; everything else
        # (including releases) keeps its post-state effect
        return post - frozenset(acquired_here) | (pre & frozenset(acquired_here))


def _escapes(fn: ast.AST, var: str) -> bool:
    """Whether local ``var``'s ownership leaves the function.

    Returned, yielded, stored on an object, or passed as an argument to
    another callable (``started.append(worker)``, ``register(handle)``)
    all transfer responsibility for the release to someone else.
    """
    for node in walk_own_scope(fn):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and any(
                isinstance(sub, ast.Name) and sub.id == var
                for sub in ast.walk(value)
            ):
                return True
        elif isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if any(
                    isinstance(sub, ast.Name) and sub.id == var
                    for sub in ast.walk(arg)
                ):
                    return True
        elif isinstance(node, ast.Assign):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ) and any(
                isinstance(sub, ast.Name) and sub.id == var
                for sub in ast.walk(node.value)
            ):
                return True
    return False


class ReleaseOnAllPathsRule(Rule):
    """FLOW-RELEASE: acquired resources reach their release on all paths.

    Tracks four acquisition shapes — ``x.acquire()`` (lock),
    ``x = open(...)`` (file), ``x = socket.socket(...)`` (socket), and
    ``x.start()`` (thread/timer/process, only when a matching
    ``join``/``cancel``/``terminate``/``stop`` appears in the same
    function) — and solves a may-held dataflow over the CFG.  A resource
    still held at function exit *or* on an escaping exception edge is a
    leak.  ``with`` acquisitions are safe by construction and never
    tracked; resources that escape (returned, yielded, stored on an
    object) transfer ownership and are exempt, as are resource-plumbing
    wrappers (``acquire``/``release``/``close``/``__enter__``/…).
    """

    rule_id = "FLOW-RELEASE"
    severity = Severity.ERROR
    description = "Resource may not be released on every CFG path."

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for cls, fn in walk_functions(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name in _WRAPPER_NAMES:
                continue
            yield from self._check_function(module, cls, fn, aliases)

    def _check_function(
        self,
        module: ModuleInfo,
        cls: Optional[ast.ClassDef],
        fn: ast.AST,
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        cfg = build_cfg(fn, f"{cls.name}.{fn.name}" if cls else fn.name)
        resources = self._collect_resources(cfg, fn, aliases)
        if not resources:
            return
        solution = solve(cfg, _HeldProblem(resources))
        for resource in resources:
            held_at: List[int] = []
            for sink in (EXIT, RAISE):
                if resource.key in solution[sink][0]:
                    held_at.append(sink)
            if not held_at:
                continue
            acquire_block = min(resource.acquire_blocks)
            line = resource.acquire_blocks[acquire_block]
            witness = _witness_path(
                cfg, solution, resource, acquire_block, held_at[0]
            )
            how = (
                "escapes on an exception path"
                if held_at == [RAISE]
                else "is not released on every path"
            )
            verb = {
                "lock": "acquired",
                "file": "opened",
                "socket": "opened",
                "started": "started",
            }[resource.kind]
            release = "/".join(resource.release_attrs[:2])
            yield self.finding(
                module,
                line,
                f"{resource.kind} '{resource.key}' {verb} here {how}; "
                f"call {resource.key}.{release}() in a finally block or "
                f"use a with-statement",
                flow_path=witness,
            )

    @staticmethod
    def _collect_resources(
        cfg: CFG, fn: ast.AST, aliases: Dict[str, str]
    ) -> List[_Resource]:
        by_key: Dict[Tuple[str, str], _Resource] = {}
        stop_calls: Set[str] = set()  # receivers with a join/cancel/... call
        for block in cfg.blocks.values():
            if block.stmt is None:
                continue
            for call in _stmt_calls(block.stmt):
                name = dotted_name(call.func)
                if name is None:
                    continue
                owner, _, attr = name.rpartition(".")
                if owner and attr in _START_RELEASES:
                    stop_calls.add(owner)

        for block in cfg.blocks.values():
            stmt = block.stmt
            if stmt is None:
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                name = dotted_name(stmt.value.func)
                if name is not None:
                    owner, _, attr = name.rpartition(".")
                    if owner and owner != "self" and attr == "acquire":
                        _add_resource(
                            by_key, owner, "lock", ("release",), block
                        )
                    elif (
                        owner
                        and owner != "self"
                        and attr == "start"
                        and owner in stop_calls
                        and not _escapes(fn, owner)
                    ):
                        _add_resource(
                            by_key, owner, "started", _START_RELEASES, block
                        )
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                ctor = resolve_call_name(stmt.value, aliases)
                if ctor in _CTOR_RESOURCES:
                    kind, release_attrs = _CTOR_RESOURCES[ctor]
                    var = stmt.targets[0].id
                    if not _escapes(fn, var):
                        _add_resource(by_key, var, kind, release_attrs, block)
        return list(by_key.values())


def _add_resource(
    by_key: Dict[Tuple[str, str], _Resource],
    key: str,
    kind: str,
    release_attrs: Tuple[str, ...],
    block: Block,
) -> None:
    resource = by_key.setdefault(
        (key, kind),
        _Resource(
            key=key, kind=kind, acquire_blocks={}, release_attrs=release_attrs
        ),
    )
    resource.acquire_blocks[block.block_id] = block.line


def _witness_path(
    cfg: CFG,
    solution: Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]],
    resource: _Resource,
    start: int,
    sink: int,
) -> Tuple[int, ...]:
    """Line numbers of a shortest held-throughout path from acquire to sink."""
    parents: Dict[int, int] = {}
    queue = deque([start])
    found = False
    while queue and not found:
        current = queue.popleft()
        for edge in cfg.successors(current):
            if edge.dst in parents or edge.dst == start:
                continue
            # only follow edges where the resource is still (may be) held
            if edge.kind == "exc" and current in resource.acquire_blocks:
                continue  # the acquire itself raising means never held
            if edge.kind == "exc" and cfg.blocks[current].in_finally:
                continue  # double faults in cleanup are out of scope
            if _is_release(cfg.blocks[current].stmt, resource):
                continue
            if edge.dst not in (EXIT, RAISE) and resource.key not in (
                solution[edge.dst][0]
            ):
                continue
            parents[edge.dst] = current
            if edge.dst == sink:
                found = True
                break
            queue.append(edge.dst)
    if not found:
        return ()
    blocks: List[int] = []
    node = sink
    while node != start:
        blocks.append(node)
        node = parents[node]
    blocks.append(start)
    blocks.reverse()
    lines: List[int] = []
    for bid in blocks:
        block = cfg.blocks[bid]
        if block.synthetic or block.line <= 0:
            continue
        if not lines or lines[-1] != block.line:
            lines.append(block.line)
    return tuple(lines)


# ----------------------------------------------------------------------
# FLOW-BLOCKING
# ----------------------------------------------------------------------
_BLOCKING_EXTERNALS = {"time.sleep"}
_SOCKET_BLOCKING_ATTRS = {"recv", "recv_into", "recvfrom", "accept"}


@dataclass(frozen=True)
class _BlockingCall:
    line: int
    what: str


def _has_kw(call: ast.Call, *names: str) -> bool:
    return any(kw.arg in names for kw in call.keywords)


def _nonblocking_kw(call: ast.Call) -> bool:
    if _has_kw(call, "timeout"):
        return True
    return any(
        kw.arg == "block"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is False
        for kw in call.keywords
    )


def _queue_base_name(func: ast.Attribute) -> Optional[str]:
    value = func.value
    if isinstance(value, ast.Subscript):
        value = value.value
    name = dotted_name(value)
    if name is None:
        return None
    base = name.split(".")[-1]
    return base if "queue" in base.lower() else None


def _blocking_calls(graph: CallGraph, fi: FunctionInfo) -> List[_BlockingCall]:
    calls: List[_BlockingCall] = []
    for full, line in graph.external.get(fi.qualname, []):
        if full in _BLOCKING_EXTERNALS:
            calls.append(_BlockingCall(line, full))
    for node in walk_own_scope(fi.node):
        if not (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ):
            continue
        attr = node.func.attr
        if attr == "join" and not node.args and not _has_kw(node, "timeout"):
            # zero-arg join: Thread.join — str.join always takes an argument
            calls.append(_BlockingCall(node.lineno, f"untimed .{attr}()"))
        elif attr in _SOCKET_BLOCKING_ATTRS:
            calls.append(_BlockingCall(node.lineno, f"socket .{attr}()"))
        elif attr == "wait" and not node.args and not _has_kw(node, "timeout"):
            calls.append(_BlockingCall(node.lineno, f"untimed .{attr}()"))
        elif attr in ("get", "put") and _queue_base_name(node.func) is not None:
            if not _nonblocking_kw(node):
                calls.append(
                    _BlockingCall(node.lineno, f"untimed queue .{attr}()")
                )
    return sorted(set(calls), key=lambda c: (c.line, c.what))


class BlockingReachableRule(Rule):
    """FLOW-BLOCKING: no blocking call reachable from async/tap contexts.

    Roots are every ``async def`` body and every callback registered via
    ``install_tap(...)``; the call-graph closure from those roots must be
    free of blocking primitives (``time.sleep``, untimed ``Queue.get`` /
    ``put``, ``socket.recv``/``accept``, zero-argument ``join``/``wait``).
    A blocking call in a tap stalls the simulated clock for every worker;
    in an ``async def`` it stalls the whole event loop.  The finding's
    flow path is the call chain from the root to the blocking line.
    """

    rule_id = "FLOW-BLOCKING"
    severity = Severity.WARNING
    description = "Blocking call reachable from async def or simulator tap."

    def check_project(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterator[Finding]:
        by_name = {m.module: m for m in modules}
        graph = build_call_graph(modules)
        roots: Dict[str, str] = {}  # qualname -> why it is a root
        for fi in graph.functions.values():
            if fi.is_async:
                roots.setdefault(fi.qualname, "async def")
        for fi in graph.functions.values():
            for node in walk_own_scope(fi.node):
                if not (
                    isinstance(node, ast.Call)
                    and node.args
                    and dotted_name(node.func) is not None
                    and str(dotted_name(node.func)).split(".")[-1]
                    == "install_tap"
                ):
                    continue
                target = graph.resolve_callable(fi.module, node.args[0], fi)
                if target is not None:
                    roots.setdefault(
                        target, f"tap registered at {fi.module}:{node.lineno}"
                    )

        reported: Set[Tuple[str, int]] = set()
        for root in sorted(roots):
            for qualname in sorted(graph.reachable_from([root])):
                target_fi = graph.functions[qualname]
                module = by_name.get(target_fi.module)
                if module is None:
                    continue
                for call in _blocking_calls(graph, target_fi):
                    if (qualname, call.line) in reported:
                        continue
                    reported.add((qualname, call.line))
                    chain = graph.call_path(root, qualname) or []
                    flow_path = tuple(
                        edge.line for edge in chain
                    ) + (call.line,)
                    via = (
                        " via " + " -> ".join(e.callee for e in chain)
                        if chain
                        else ""
                    )
                    yield self.finding(
                        module,
                        call.line,
                        f"{call.what} in {qualname} is reachable from "
                        f"{root} ({roots[root]}){via}; blocking here stalls "
                        f"the event loop/simulated clock",
                        flow_path=flow_path,
                    )


# ----------------------------------------------------------------------
# FLOW-EXC
# ----------------------------------------------------------------------
_EXC_SCOPE_MODULES = ("repro.ps.engine", "repro.core.scheduler")
_EXC_ROOT_NAMES = ("request_resync", "handle_notify", "_check_resync")


def _uncaught_raises(fn: ast.AST) -> List[ast.Raise]:
    """``raise`` statements no enclosing in-function handler can catch.

    Any enclosing ``try`` with handlers counts as catching (no type
    matching — a typed handler plus a typed raise is reviewed by eye).
    Bare ``raise`` re-raises inside a handler are deliberate propagation
    and exempt.
    """
    found: List[ast.Raise] = []

    def handle(node: ast.AST, protected: bool) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        if isinstance(node, ast.Raise):
            if not protected and node.exc is not None:
                found.append(node)
            return
        if isinstance(node, ast.Try):
            inner = protected or bool(node.handlers)
            for stmt in node.body + node.orelse:
                handle(stmt, inner)
            for handler in node.handlers:
                for stmt in handler.body:
                    handle(stmt, protected)
            for stmt in node.finalbody:
                handle(stmt, protected)
            return
        for child in ast.iter_child_nodes(node):
            handle(child, protected)

    for child in ast.iter_child_nodes(fn):
        handle(child, False)
    return found


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    name = dotted_name(exc) if exc is not None else None
    return name.split(".")[-1] if name else None


def _declared_raises(fn: ast.AST) -> Set[str]:
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    doc = ast.get_docstring(fn, clean=True) or ""
    if "Raises" not in doc:
        return set()
    _, _, tail = doc.partition("Raises")
    return {word.strip(":,.()") for word in tail.split()}


def _protected_spans(fi: FunctionInfo) -> List[Tuple[int, int]]:
    """Line ranges inside a ``try``-with-handlers (calls there are caught)."""
    spans: List[Tuple[int, int]] = []
    for node in walk_own_scope(fi.node):
        if isinstance(node, ast.Try) and node.handlers:
            for stmt in node.body + node.orelse:
                end = getattr(stmt, "end_lineno", None) or stmt.lineno
                spans.append((stmt.lineno, end))
    return spans


class ExceptionEscapeRule(Rule):
    """FLOW-EXC: abort/re-sync path exceptions must be caught or declared.

    The speculative-synchronization recovery path (``request_resync`` /
    ``handle_notify`` / ``_check_resync`` in ``repro.ps.engine`` and
    ``repro.core.scheduler``, plus their call-graph closure inside those
    modules) is the code that runs precisely when the system is already
    in trouble; an exception escaping it silently kills recovery.  Every
    ``raise`` in that closure must be lexically inside a ``try`` with
    handlers (in the raising function, or at the call site the path goes
    through), or named in the function docstring's ``Raises`` section so
    callers know to catch it.
    """

    rule_id = "FLOW-EXC"
    severity = Severity.WARNING
    description = "Undeclared exception can escape the abort/re-sync path."

    @staticmethod
    def _unprotected_closure(
        graph: CallGraph, roots: Sequence[str]
    ) -> Set[str]:
        """Reachable set that never traverses a try-protected call site."""
        spans: Dict[str, List[Tuple[int, int]]] = {}
        seen: Set[str] = set(r for r in roots if r in graph.functions)
        queue = deque(sorted(seen))
        while queue:
            current = queue.popleft()
            caller = graph.functions[current]
            if current not in spans:
                spans[current] = _protected_spans(caller)
            for edge in graph.callees(current):
                if any(lo <= edge.line <= hi for lo, hi in spans[current]):
                    continue
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    queue.append(edge.callee)
        return seen

    def check_project(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterator[Finding]:
        by_name = {m.module: m for m in modules}
        in_scope = [m for m in modules if m.module in _EXC_SCOPE_MODULES]
        if not in_scope:
            return
        graph = build_call_graph(modules)
        roots = [
            fi.qualname
            for fi in graph.functions.values()
            if fi.module in _EXC_SCOPE_MODULES
            and fi.qualname.rpartition(".")[2] in _EXC_ROOT_NAMES
        ]
        closure = {
            q
            for q in self._unprotected_closure(graph, sorted(roots))
            if graph.functions[q].module in _EXC_SCOPE_MODULES
        }
        for qualname in sorted(closure):
            fi = graph.functions[qualname]
            module = by_name.get(fi.module)
            if module is None:
                continue
            declared = _declared_raises(fi.node)
            for raise_node in _uncaught_raises(fi.node):
                name = _raised_name(raise_node)
                if name is not None and name in declared:
                    continue
                root = next(
                    (r for r in sorted(roots) if graph.call_path(r, qualname) is not None),
                    qualname,
                )
                chain = graph.call_path(root, qualname) or []
                flow_path = tuple(e.line for e in chain) + (raise_node.lineno,)
                shown = name or "exception"
                yield self.finding(
                    module,
                    raise_node.lineno,
                    f"{shown} raised in {qualname} can escape the "
                    f"abort/re-sync path (reached from {root}); catch it "
                    f"here or declare it in a docstring 'Raises' section",
                    flow_path=flow_path,
                )


# ----------------------------------------------------------------------
# FLOW-DEAD
# ----------------------------------------------------------------------
def _kind_tested(test: ast.expr) -> Optional[Tuple[str, int]]:
    """``(KIND, line)`` when ``test`` compares something to MessageKind.KIND."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Eq, ast.Is))
        and len(test.comparators) == 1
    ):
        return None
    for side in (test.left, test.comparators[0]):
        if isinstance(side, ast.Attribute):
            base = dotted_name(side.value)
            if base is not None and base.split(".")[-1] == "MessageKind":
                return side.attr, test.lineno
    return None


class DeadPathRule(Rule):
    """FLOW-DEAD: unreachable code and dead MessageKind dispatch arms.

    Two halves.  Per module: CFG blocks no path from the function entry
    reaches — code after an unconditional ``return``/``raise``, a branch
    whose test is a constant, a loop that can never be entered.  Per
    project: ``if kind == MessageKind.X`` dispatch ladders where an arm
    repeats an earlier kind (shadowed, can never fire) or tests a kind
    absent from the protocol model's ``MODEL_ALPHABET`` (the model
    checker proves no such message exists).  The alphabet cross-check
    only runs when the alphabet is in the linted batch, so linting a
    subset of the tree cannot false-positive.
    """

    rule_id = "FLOW-DEAD"
    severity = Severity.WARNING
    description = "Unreachable branch or dead MessageKind handler arm."

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for cls, fn in walk_functions(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qualname = f"{cls.name}.{fn.name}" if cls else fn.name
            cfg = build_cfg(fn, qualname)
            dead = cfg.unreachable_blocks()
            last_id = -2
            for block in dead:
                if block.stmt is None:
                    continue
                if block.block_id == last_id + 1:
                    last_id = block.block_id  # same dead region; one finding
                    continue
                last_id = block.block_id
                yield self.finding(
                    module,
                    block.line,
                    f"unreachable code in {qualname}: no execution path "
                    f"from the function entry reaches this statement",
                )

    def check_project(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterator[Finding]:
        alphabet: Optional[Set[str]] = None
        for module in modules:
            found = ModelAlphabetRule._find_alphabet(module)
            if found is not None:
                entries = found[1]
                alphabet = {
                    e.attr for e in entries if isinstance(e, ast.Attribute)
                }
        for module in modules:
            for _cls, fn in walk_functions(module.tree):
                for node in walk_own_scope(fn):
                    if not isinstance(node, ast.If):
                        continue
                    if self._is_elif_arm(fn, node):
                        continue
                    yield from self._check_ladder(module, node, alphabet)

    @staticmethod
    def _is_elif_arm(fn: ast.AST, node: ast.If) -> bool:
        """Whether ``node`` is the elif of another If (only check ladder heads)."""
        for parent in ast.walk(fn):
            if isinstance(parent, ast.If) and parent.orelse == [node]:
                return True
        return False

    def _check_ladder(
        self,
        module: ModuleInfo,
        head: ast.If,
        alphabet: Optional[Set[str]],
    ) -> Iterator[Finding]:
        seen: Dict[str, int] = {}
        node: Optional[ast.If] = head
        while node is not None:
            tested = _kind_tested(node.test)
            if tested is not None:
                kind, line = tested
                if kind in seen:
                    yield self.finding(
                        module,
                        line,
                        f"dead dispatch arm: MessageKind.{kind} already "
                        f"handled at line {seen[kind]}; this arm can "
                        f"never fire",
                        flow_path=(seen[kind], line),
                    )
                else:
                    seen[kind] = line
                    if alphabet is not None and kind not in alphabet:
                        yield self.finding(
                            module,
                            line,
                            f"dead dispatch arm: MessageKind.{kind} is not "
                            f"in MODEL_ALPHABET — the protocol model "
                            f"admits no such message, so this arm can "
                            f"never fire",
                        )
            if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
                node = node.orelse[0]
            else:
                node = None
