"""Control-flow graphs for Python functions, at statement granularity.

Each function body becomes a :class:`CFG`: one :class:`Block` per simple
statement (plus heads for ``if``/``while``/``for``/``with``/``except``),
three synthetic blocks — ``entry``, ``exit`` (normal return) and
``raise`` (an uncaught exception leaving the function) — and kinded
:class:`Edge` s between them:

``next``
    sequential flow (including ``return`` → exit and ``break`` → after);
``true`` / ``false``
    the two sides of a branch head (for ``except`` heads: handler
    matched / try the next handler);
``back``
    a loop back-edge (``continue`` or the end of a loop body);
``exc``
    the statement may raise: control leaves *before* the statement's
    effect, toward the innermost handler, finalizer, or the ``raise``
    block.

Statement granularity keeps exception edges precise — the classic
"lock acquired, a call raises, release never runs" path is a real edge
here — at the cost of larger graphs, which lint-sized functions afford.

``try``/``finally`` uses *finalizer duplication*: each distinct way of
leaving the ``try`` region (falling off the end, ``return``, an
exception, ``break``/``continue``) gets its own copy of the ``finally``
body wired to the right continuation, so a ``return`` inside ``try``
flows through the finalizer to ``exit`` and never leaks into the code
after the statement.  Only exit kinds actually used materialize a copy.

Deliberate approximations (documented for rule authors):

* only statements containing a call, ``raise``, or ``assert`` get ``exc``
  edges — attribute/subscript errors on plain data are below lint grade;
* ``except`` clauses are matched structurally, not by type: any handler
  chain may catch, and only a bare ``except`` (or ``Exception`` /
  ``BaseException``) seals the escape edge;
* a context manager never suppresses exceptions (no ``__exit__`` → True
  modeling) — true for every ``with`` in this codebase;
* constant branch tests (``if True:``, ``while True:``) drop the
  impossible edge, so no path reaches the dead side.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

__all__ = ["Block", "Edge", "CFG", "build_cfg", "build_cfgs", "render_cfg"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: ids of the three synthetic blocks every CFG has.
ENTRY, EXIT, RAISE = 0, 1, 2

#: handler annotations treated as catching *everything* (sealing the
#: escape edge of an except chain).
_CATCH_ALL_NAMES = {"Exception", "BaseException"}


@dataclass
class Block:
    """One CFG node: a single statement, or a synthetic entry/exit."""

    block_id: int
    label: str
    line: int = 0
    #: the AST statement this block executes (None for synthetic blocks
    #: and branch heads that only evaluate a test)
    stmt: Optional[ast.stmt] = None
    #: True for blocks inside an inlined ``finally`` copy — cleanup code,
    #: where analyses usually ignore double-fault exception edges
    in_finally: bool = False

    @property
    def synthetic(self) -> bool:
        return self.block_id in (ENTRY, EXIT, RAISE)


@dataclass(frozen=True)
class Edge:
    """A directed, kinded edge between two blocks."""

    src: int
    dst: int
    kind: str  # "next" | "true" | "false" | "back" | "exc"


@dataclass
class CFG:
    """The control-flow graph of one function."""

    qualname: str
    line: int
    blocks: Dict[int, Block] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)
    #: the function's AST node (for rules that re-inspect statements)
    node: Optional[FunctionNode] = None

    def successors(self, block_id: int) -> List[Edge]:
        return [e for e in self.edges if e.src == block_id]

    def predecessors(self, block_id: int) -> List[Edge]:
        return [e for e in self.edges if e.dst == block_id]

    def reachable(self) -> Set[int]:
        """Block ids reachable from ``entry`` along any edge."""
        seen = {ENTRY}
        stack = [ENTRY]
        out: Dict[int, List[int]] = {}
        for edge in self.edges:
            out.setdefault(edge.src, []).append(edge.dst)
        while stack:
            for dst in out.get(stack.pop(), ()):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen


# ----------------------------------------------------------------------
# Builder internals
# ----------------------------------------------------------------------
#: a dangling out-edge waiting for its destination: (source block, kind)
_Dangling = Tuple[int, str]


class _LoopFrame:
    """An enclosing loop: where ``continue``/``break`` go."""

    def __init__(self, head: int):
        self.head = head
        self.breaks: List[_Dangling] = []


class _TryFrame:
    """An enclosing ``try`` with handlers: where exceptions go."""

    def __init__(self, dispatch: int):
        self.dispatch = dispatch


class _FinallyFrame:
    """An enclosing ``finally``: every exit inlines a copy of its body."""

    def __init__(self, body: List[ast.stmt], outer: List[object]):
        self.body = body
        self.outer = outer  # the frame stack outside this try statement
        self._copies: Dict[str, int] = {}  # exit kind -> copy entry block
        self.next_out: List[_Dangling] = []  # normal-completion dangling


_Frame = Union[_LoopFrame, _TryFrame, _FinallyFrame]


def _may_raise(stmt: ast.stmt) -> bool:
    """Whether the statement gets an ``exc`` edge (see module docstring)."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False  # defining, not running
    return any(isinstance(node, ast.Call) for node in ast.walk(stmt))


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    node = handler.type
    if isinstance(node, ast.Attribute):
        return node.attr in _CATCH_ALL_NAMES
    return isinstance(node, ast.Name) and node.id in _CATCH_ALL_NAMES


def _handler_label(handler: ast.ExceptHandler) -> str:
    if handler.type is None:
        return "except"
    try:
        return f"except {ast.unparse(handler.type)}"
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "except ?"


_STMT_LABELS = {
    ast.Assign: "assign",
    ast.AugAssign: "augassign",
    ast.AnnAssign: "annassign",
    ast.Expr: "expr",
    ast.Return: "return",
    ast.Raise: "raise",
    ast.Pass: "pass",
    ast.Break: "break",
    ast.Continue: "continue",
    ast.Assert: "assert",
    ast.Delete: "delete",
    ast.Import: "import",
    ast.ImportFrom: "import",
    ast.Global: "global",
    ast.Nonlocal: "nonlocal",
    ast.FunctionDef: "def",
    ast.AsyncFunctionDef: "def",
    ast.ClassDef: "class",
}


class _Builder:
    def __init__(self, fn: FunctionNode, qualname: str):
        self.cfg = CFG(qualname=qualname, line=fn.lineno, node=fn)
        self._next_id = 0
        self._new_block("entry", fn.lineno)  # ENTRY
        self._new_block("exit", fn.lineno)  # EXIT
        self._new_block("raise", fn.lineno)  # RAISE
        self._edge_set: Set[Tuple[int, int, str]] = set()
        dangling = self._build_stmts(fn.body, [(ENTRY, "next")], [])
        self._connect(dangling, EXIT)

    # -- graph assembly ------------------------------------------------
    def _new_block(
        self, label: str, line: int, stmt: Optional[ast.stmt] = None
    ) -> Block:
        block = Block(self._next_id, label, line, stmt)
        self.cfg.blocks[block.block_id] = block
        self._next_id += 1
        return block

    def _edge(self, src: int, dst: int, kind: str) -> None:
        key = (src, dst, kind)
        if key not in self._edge_set:
            self._edge_set.add(key)
            self.cfg.edges.append(Edge(src, dst, kind))

    def _connect(self, dangling: Sequence[_Dangling], dst: int) -> None:
        for src, kind in dangling:
            self._edge(src, dst, kind)

    # -- abrupt-exit routing -------------------------------------------
    def _route(
        self, dangling: Sequence[_Dangling], kind: str, frames: List[_Frame]
    ) -> None:
        """Send ``dangling`` toward the target of an abrupt ``kind`` exit
        (``return`` / ``raise`` / ``break`` / ``continue``), inlining
        ``finally`` copies and stopping at handlers/loops on the way."""
        if not dangling:
            return
        for i in range(len(frames) - 1, -1, -1):
            frame = frames[i]
            if isinstance(frame, _FinallyFrame):
                entry = self._finally_copy(frame, kind)
                self._connect(dangling, entry)
                return
            if isinstance(frame, _TryFrame) and kind == "raise":
                self._connect(dangling, frame.dispatch)
                return
            if isinstance(frame, _LoopFrame):
                if kind == "break":
                    frame.breaks.extend(dangling)
                    return
                if kind == "continue":
                    self._connect(dangling, frame.head)
                    return
        self._connect(dangling, RAISE if kind == "raise" else EXIT)

    def _finally_copy(self, frame: _FinallyFrame, kind: str) -> int:
        """Entry block of the finalizer copy for one exit kind (cached)."""
        if kind in frame._copies:
            return frame._copies[kind]
        entry_id = self._next_id
        # Reserve the cache entry before building: routing inside the
        # copy consults only outer frames, so it can never re-enter this
        # frame, but the reservation keeps that a structural guarantee.
        frame._copies[kind] = entry_id
        out = self._build_stmts(frame.body, [], list(frame.outer))
        for bid in range(entry_id, self._next_id):
            self.cfg.blocks[bid].in_finally = True
        if kind == "next":
            # normal completion: the try builder connects `out` onward
            frame.next_out = out
        else:
            self._route(out, kind, list(frame.outer))
        return entry_id

    # -- statement builders --------------------------------------------
    def _build_stmts(
        self,
        stmts: Sequence[ast.stmt],
        incoming: List[_Dangling],
        frames: List[_Frame],
    ) -> List[_Dangling]:
        dangling = list(incoming)
        for stmt in stmts:
            dangling = self._build_stmt(stmt, dangling, frames)
        return dangling

    def _build_stmt(
        self, stmt: ast.stmt, incoming: List[_Dangling], frames: List[_Frame]
    ) -> List[_Dangling]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, incoming, frames)
        if isinstance(stmt, ast.While):
            return self._build_while(stmt, incoming, frames)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._build_for(stmt, incoming, frames)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, incoming, frames)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, incoming, frames)
        return self._build_simple(stmt, incoming, frames)

    def _build_simple(
        self, stmt: ast.stmt, incoming: List[_Dangling], frames: List[_Frame]
    ) -> List[_Dangling]:
        label = _STMT_LABELS.get(type(stmt), type(stmt).__name__.lower())
        block = self._new_block(label, stmt.lineno, stmt)
        self._connect(incoming, block.block_id)
        if _may_raise(stmt) or (
            _protected(frames) and not isinstance(stmt, _NEVER_RAISES)
        ):
            self._route([(block.block_id, "exc")], "raise", frames)
        if isinstance(stmt, ast.Return):
            self._route([(block.block_id, "next")], "return", frames)
            return []
        if isinstance(stmt, ast.Raise):
            # the exc edge above already routed it; no fall-through
            return []
        if isinstance(stmt, ast.Break):
            self._route([(block.block_id, "next")], "break", frames)
            return []
        if isinstance(stmt, ast.Continue):
            self._route([(block.block_id, "back")], "continue", frames)
            return []
        return [(block.block_id, "next")]

    def _build_if(
        self, stmt: ast.If, incoming: List[_Dangling], frames: List[_Frame]
    ) -> List[_Dangling]:
        head = self._new_block("if", stmt.lineno, stmt)
        self._connect(incoming, head.block_id)
        if _may_raise_expr(stmt.test) or _protected(frames):
            self._route([(head.block_id, "exc")], "raise", frames)
        truth = _constant_truth(stmt.test)
        body_in = [(head.block_id, "true")] if truth is not False else []
        else_in = [(head.block_id, "false")] if truth is not True else []
        out = self._build_stmts(stmt.body, body_in, frames)
        if stmt.orelse:
            out += self._build_stmts(stmt.orelse, else_in, frames)
        else:
            out += else_in
        return out

    def _build_while(
        self, stmt: ast.While, incoming: List[_Dangling], frames: List[_Frame]
    ) -> List[_Dangling]:
        head = self._new_block("while", stmt.lineno, stmt)
        self._connect(incoming, head.block_id)
        if _may_raise_expr(stmt.test) or _protected(frames):
            self._route([(head.block_id, "exc")], "raise", frames)
        truth = _constant_truth(stmt.test)
        frame = _LoopFrame(head.block_id)
        body_in = [(head.block_id, "true")] if truth is not False else []
        body_out = self._build_stmts(stmt.body, body_in, frame_push(frames, frame))
        self._connect(body_out, head.block_id)  # back-edge
        exhaust = [(head.block_id, "false")] if truth is not True else []
        out = (
            self._build_stmts(stmt.orelse, exhaust, frames)
            if stmt.orelse
            else exhaust
        )
        return out + frame.breaks

    def _build_for(
        self,
        stmt: Union[ast.For, ast.AsyncFor],
        incoming: List[_Dangling],
        frames: List[_Frame],
    ) -> List[_Dangling]:
        head = self._new_block("for", stmt.lineno, stmt)
        self._connect(incoming, head.block_id)
        # advancing the iterator can always raise (StopIteration aside)
        self._route([(head.block_id, "exc")], "raise", frames)
        frame = _LoopFrame(head.block_id)
        body_out = self._build_stmts(
            stmt.body, [(head.block_id, "true")], frame_push(frames, frame)
        )
        self._connect(body_out, head.block_id)  # back-edge
        exhaust: List[_Dangling] = [(head.block_id, "false")]
        out = (
            self._build_stmts(stmt.orelse, exhaust, frames)
            if stmt.orelse
            else exhaust
        )
        return out + frame.breaks

    def _build_with(
        self,
        stmt: Union[ast.With, ast.AsyncWith],
        incoming: List[_Dangling],
        frames: List[_Frame],
    ) -> List[_Dangling]:
        head = self._new_block("with", stmt.lineno, stmt)
        self._connect(incoming, head.block_id)
        # entering the context managers can raise
        self._route([(head.block_id, "exc")], "raise", frames)
        return self._build_stmts(stmt.body, [(head.block_id, "next")], frames)

    def _build_try(
        self, stmt: ast.Try, incoming: List[_Dangling], frames: List[_Frame]
    ) -> List[_Dangling]:
        inner_frames = frames
        fin_frame: Optional[_FinallyFrame] = None
        if stmt.finalbody:
            fin_frame = _FinallyFrame(stmt.finalbody, list(frames))
            inner_frames = frame_push(frames, fin_frame)

        heads: List[Block] = [
            self._new_block(_handler_label(h), h.lineno, None)
            for h in stmt.handlers
        ]
        body_frames = inner_frames
        if heads:
            body_frames = frame_push(inner_frames, _TryFrame(heads[0].block_id))

        body_out = self._build_stmts(stmt.body, incoming, body_frames)
        # else clause: runs only on normal body completion; its exceptions
        # bypass this statement's handlers
        if stmt.orelse:
            body_out = self._build_stmts(stmt.orelse, body_out, inner_frames)

        out = list(body_out)
        sealed = any(_is_catch_all(h) for h in stmt.handlers)
        for i, handler in enumerate(stmt.handlers):
            head = heads[i]
            out += self._build_stmts(
                handler.body, [(head.block_id, "true")], inner_frames
            )
            if i + 1 < len(heads):
                self._edge(head.block_id, heads[i + 1].block_id, "false")
            elif not sealed:
                # no handler matched: keep unwinding
                self._route([(head.block_id, "false")], "raise", inner_frames)

        if fin_frame is not None and out:
            entry = self._finally_copy(fin_frame, "next")
            self._connect(out, entry)
            out = fin_frame.next_out
        return out


def frame_push(frames: List[_Frame], frame: _Frame) -> List[_Frame]:
    """A copy of ``frames`` with ``frame`` innermost (stacks are shared
    snapshots, never mutated in place)."""
    return frames + [frame]


#: statements that cannot raise at runtime even pessimistically
_NEVER_RAISES = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)


def _protected(frames: List[_Frame]) -> bool:
    """Whether an enclosing ``try`` (handlers or finally) observes raises.

    Outside any ``try``, only statements containing calls/raise/assert
    get exception edges — precise enough and keeps graphs small.  Inside
    one, a subscript, attribute access, or arithmetic can raise too, and
    pretending otherwise makes the handler look unreachable; so every
    effectful statement gets the edge.
    """
    return any(isinstance(f, (_TryFrame, _FinallyFrame)) for f in frames)


def _constant_truth(test: ast.expr) -> Optional[bool]:
    """The truth of a constant test expression, else None."""
    if isinstance(test, ast.Constant):
        return bool(test.value)
    return None


def _may_raise_expr(expr: ast.expr) -> bool:
    return any(isinstance(node, ast.Call) for node in ast.walk(expr))


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def build_cfg(fn: FunctionNode, qualname: Optional[str] = None) -> CFG:
    """The CFG of one function definition."""
    return _Builder(fn, qualname or fn.name).cfg


def build_cfgs(tree: ast.AST, module_name: str = "") -> Dict[str, CFG]:
    """CFGs for every function in ``tree``, keyed by dotted qualname.

    Nested functions get ``outer.<locals>.inner``-style names flattened
    to ``outer.inner`` — unique enough for diagnostics, and stable.
    """
    cfgs: Dict[str, CFG] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                key = qualname
                serial = 2
                while key in cfgs:  # lambdas/overloads sharing a name
                    key = f"{qualname}#{serial}"
                    serial += 1
                cfgs[key] = build_cfg(child, key)
                visit(child, qualname)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}" if prefix else child.name)
            else:
                visit(child, prefix)

    visit(tree, module_name)
    return cfgs


def render_cfg(cfg: CFG) -> str:
    """Deterministic text dump of a CFG (the golden-test format).

    Blocks print in id order with entry first and the synthetic
    exit/raise blocks last; edges print sorted by (src, dst, kind).
    """
    lines = [f"cfg {cfg.qualname} (line {cfg.line})"]
    order = [ENTRY] + [
        bid for bid in sorted(cfg.blocks) if bid not in (ENTRY, EXIT, RAISE)
    ] + [EXIT, RAISE]
    for bid in order:
        block = cfg.blocks[bid]
        if block.synthetic:
            lines.append(f"  B{bid} {block.label}")
        else:
            lines.append(f"  B{bid} L{block.line} {block.label}")
    lines.append("  edges:")
    for edge in sorted(cfg.edges, key=lambda e: (e.src, e.dst, e.kind)):
        lines.append(f"  B{edge.src} -> B{edge.dst} [{edge.kind}]")
    return "\n".join(lines)
