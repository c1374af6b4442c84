"""Flow-sensitive rule: resources released on every CFG path.

**FLOW-RELEASE** is typestate over :mod:`repro.analysis.flow` (CFG +
dataflow solver): a lock/file/socket/thread resource acquired in a
function must reach its release on *every* CFG path, including
exception edges.  It subsumes the syntactic "acquire not in a ``with``"
approximation, and its findings attach ``flow_path`` — the line numbers
along one leaking path — so they are actionable without re-deriving the
path by hand.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    dotted_name,
    import_aliases,
    resolve_call_name,
    walk_functions,
    walk_own_scope,
)
from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.cfg import CFG, EXIT, RAISE, Block, build_cfg
from repro.analysis.flow.solve import DataflowProblem, solve

__all__ = ["ReleaseOnAllPathsRule"]


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
