"""Interprocedural buffer ownership & aliasing analysis over numpy arrays.

Zero-copy code (the shared-memory parameter path, ``repro.ps.shm``) moves
the cost of safety from the runtime to the reviewer: nothing crashes when
a function mutates an array it merely *borrowed* — results just go subtly
wrong, the data-centric consistency hazard the Parameter Database line of
work frames.  This module is the static side of that bargain: a
flow-sensitive, interprocedural abstract interpretation that tracks where
every array-typed local *came from*, so the ``BUF-*`` rules
(:mod:`repro.analysis.rules.ownership`) can certify the invariants the
zero-copy refactor leans on.

Abstract state
--------------
Each local variable maps to a set of **origin facts** — the memory its
value may alias:

``param:<name>``
    borrowed view of the caller's argument ``<name>`` (only parameters
    that plausibly bind arrays are tracked — annotation or name
    heuristic);
``self:<attr>``
    view of the object's internal state reachable from ``self.<attr>``;
``shm:<var>``
    view of a shared-memory segment's live buffer (``<var>.array``).

The empty set is **owned**: a fresh allocation this function may freely
mutate, return, or store.  A variable *escapes* when it is stored into
``self`` or a ``self``-rooted container — its facts then include the
``self:`` origin, so returning it later is still reported as leaking
internal state.

Transfer highlights (the ISSUE's alias algebra):

* alias-creating — plain assignment, slicing with ranges, ``.view()`` /
  ``.reshape()`` / ``.ravel()`` / ``np.asarray`` / ``np.frombuffer``,
  attribute loads, dict/element subscripts, ``.items()``/``.values()``
  iteration — propagate the source's facts;
* ownership-creating — ``.copy()``, ``np.array(...)`` (which copies by
  default), ``np.zeros``/``ones``/``*_like``, arithmetic results, fancy
  *gather* indexing with an index-looking subscript — produce the empty
  set, killing aliases on strong updates (``x = x.copy()``);
* cross-function flow — per-function :class:`FunctionSummary` objects
  (does it return a view of a parameter / of ``self``? does its
  ``__init__`` absorb a parameter without copy?) are computed to a
  fixpoint over the call graph and applied at call sites, so a view
  that leaks *through* a helper is still attributed to its origin.

Everything is a may-analysis over the statement-granular CFG
(:mod:`repro.analysis.flow`): facts join by union, and a missing fact is
a claim of ownership — under-approximate resolution (dynamic dispatch,
``getattr``) costs a missed warning, never a false crash.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.astutil import dotted_name, import_aliases, resolve_name
from repro.analysis.engine import ModuleInfo
from repro.analysis.flow.callgraph import CallGraph, FunctionInfo, build_call_graph
from repro.analysis.flow.cfg import CFG, Block, build_cfg
from repro.analysis.flow.solve import DataflowProblem, solve

__all__ = [
    "ARRAYISH_RE",
    "FunctionSummary",
    "FunctionOwnership",
    "MutationSite",
    "ReturnSite",
    "StoreSite",
    "ShmAccess",
    "OwnershipAnalysis",
]

#: Names that very likely bind ndarrays in this codebase.
ARRAYISH_RE = re.compile(
    r"(^|_)(grad|gradient|param|params|weights?|tensor|array|snapshot|vec|buf|buffer)s?($|_)",
    re.IGNORECASE,
)

#: Subscript names that signal a *gather* (fancy indexing copies).
_INDEXISH_RE = re.compile(r"(^|_)(ids?|idx|indices|index|rows?|cols?|mask)($|_)")

#: Annotation text fragments that mark a parameter as array-like.
_ARRAY_ANNOTATIONS = ("ndarray", "NDArray", "ArrayLike", "ParamSet", "memoryview")

#: numpy calls whose result owns fresh memory.
_OWNING_CALLS = frozenset(
    {
        "numpy.array",
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "numpy.full",
        "numpy.zeros_like",
        "numpy.ones_like",
        "numpy.empty_like",
        "numpy.full_like",
        "numpy.copy",
        "numpy.arange",
        "numpy.linspace",
        "numpy.concatenate",
        "numpy.stack",
        "numpy.vstack",
        "numpy.hstack",
    }
)

#: numpy calls whose result may alias their first argument.
_ALIASING_CALLS = frozenset(
    {
        "numpy.asarray",
        "numpy.asanyarray",
        "numpy.ascontiguousarray",
        "numpy.asfortranarray",
        "numpy.atleast_1d",
        "numpy.atleast_2d",
        "numpy.ravel",
        "numpy.reshape",
        "numpy.transpose",
        "numpy.squeeze",
        "numpy.swapaxes",
        "numpy.expand_dims",
        "numpy.broadcast_to",
        "numpy.frombuffer",
    }
)

#: method calls whose result may alias the receiver (ndarray views and
#: container iteration plumbing).
_VIEW_METHODS = frozenset(
    {
        "view",
        "reshape",
        "ravel",
        "transpose",
        "swapaxes",
        "squeeze",
        "diagonal",
        "astype_view",  # never emitted by numpy; kept for symmetry
        "items",
        "values",
        "get",
        "setdefault",
        "pop",
    }
)

#: builtins that pass their argument's contents through unchanged.
_PASSTHROUGH_CALLS = frozenset({"zip", "enumerate", "reversed", "sorted", "iter"})

#: ndarray methods that mutate the receiver in place.
_MUTATOR_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "itemset", "setfield", "byteswap"}
)

#: methods that store their first argument into the receiver container.
_CONTAINER_STORES = frozenset({"append", "add", "extend", "insert", "appendleft"})

#: class names whose construction/attach binds a shared-memory object.
_SHM_CLASS_NAMES = frozenset({"ShmArraySegment", "ShmParamStore"})

#: raw buffer attributes on shared-memory objects.
_SHM_RAW_ATTRS = frozenset({"array", "buf"})

_FENCE_METHODS = frozenset({"read_fence", "write_fence"})

#: summary-fixpoint bound; the repo's helper chains are shallow, and the
#: lattice is finite either way (summaries only grow).
_MAX_SUMMARY_PASSES = 5

_PARAM = "param:"
_SELF = "self:"
_SHM = "shm:"
#: wrapper for *indirect* aliasing: the variable's own buffer is fresh,
#: but it holds references to the wrapped origin's memory (a dict built
#: by ``d[k] = view``).  Mutating the holder is safe; returning or
#: storing it still leaks the held memory.
_HELD = "held:"

Env = FrozenSet[Tuple[str, str]]
_EMPTY: FrozenSet[str] = frozenset()


def strip_held(origin: str) -> str:
    """The direct origin behind a possibly ``held:``-wrapped one."""
    return origin[len(_HELD):] if origin.startswith(_HELD) else origin


def _hold(origins: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(
        o if o.startswith(_HELD) else _HELD + o for o in origins
    )


def _unhold(origins: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(strip_held(o) for o in origins)


def _is_param(origin: str) -> bool:
    return strip_held(origin).startswith(_PARAM)


def _is_direct_param(origin: str) -> bool:
    return origin.startswith(_PARAM)


def _is_self(origin: str) -> bool:
    return strip_held(origin).startswith(_SELF)


def _is_shm(origin: str) -> bool:
    return origin.startswith(_SHM)


def param_name(origin: str) -> str:
    """The parameter a (possibly held) ``param:`` origin refers to."""
    return strip_held(origin)[len(_PARAM):]


def self_attr(origin: str) -> str:
    """The attribute a (possibly held) ``self:`` origin refers to."""
    return strip_held(origin)[len(_SELF):]


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FunctionSummary:
    """The caller-visible aliasing behaviour of one function."""

    #: parameters whose view the return value may alias
    returns_params: FrozenSet[str] = _EMPTY
    #: ``self`` attributes whose view the return value may alias
    returns_self: FrozenSet[str] = _EMPTY
    #: parameters an ``__init__`` stores into ``self`` without copying —
    #: constructing the class absorbs the caller's array by reference
    absorbs_params: FrozenSet[str] = _EMPTY


@dataclass(frozen=True)
class MutationSite:
    """An in-place write through a variable the function does not own."""

    line: int
    target: str
    origins: FrozenSet[str]
    kind: str  # "augassign" | "setitem" | "out=" | "method"


@dataclass(frozen=True)
class ReturnSite:
    """A ``return`` whose value may alias non-owned memory."""

    line: int
    origins: FrozenSet[str]
    #: witness: line that created the alias, when distinct from ``line``
    intro_line: Optional[int] = None


@dataclass(frozen=True)
class StoreSite:
    """A caller's array stored into ``self``-rooted state without copy."""

    line: int
    target: str
    origins: FrozenSet[str]


@dataclass(frozen=True)
class ShmAccess:
    """A raw shared-segment buffer touched outside any version fence."""

    line: int
    expr: str
    kind: str  # "raw" (direct .array/.buf) | "aliased" (tracked variable)


@dataclass
class FunctionOwnership:
    """Everything the BUF rules need to know about one function."""

    qualname: str
    module: str
    line: int
    name: str
    docstring: str
    is_public: bool
    mutations: List[MutationSite] = field(default_factory=list)
    returns: List[ReturnSite] = field(default_factory=list)
    stores: List[StoreSite] = field(default_factory=list)
    shm_accesses: List[ShmAccess] = field(default_factory=list)


# ----------------------------------------------------------------------
# Parameter gating
# ----------------------------------------------------------------------
def _annotation_is_arrayish(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return False
    return any(marker in text for marker in _ARRAY_ANNOTATIONS)


def tracked_params(fn: ast.AST) -> List[str]:
    """Parameters plausibly binding arrays: annotation or name heuristic."""
    args = fn.args
    names: List[str] = []
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg in ("self", "cls"):
            continue
        if _annotation_is_arrayish(arg.annotation) or ARRAYISH_RE.search(arg.arg):
            names.append(arg.arg)
    return names


def _contains_slice(index: ast.expr) -> bool:
    return any(isinstance(node, ast.Slice) for node in ast.walk(index))


def _is_gather_index(index: ast.expr) -> bool:
    """Whether a subscript looks like fancy (copying) gather indexing."""
    if isinstance(index, (ast.List,)):
        return True
    if isinstance(index, ast.Name):
        return bool(_INDEXISH_RE.search(index.id))
    if isinstance(index, ast.Call):
        # e.g. array[np.where(...)], array[mask.nonzero()]
        name = dotted_name(index.func)
        return name is not None and name.split(".")[-1] in ("where", "nonzero", "argsort")
    return False


def _docstring(fn: ast.AST) -> str:
    try:
        return ast.get_docstring(fn) or ""
    except TypeError:  # pragma: no cover - non-function nodes
        return ""


# ----------------------------------------------------------------------
# The per-function abstract interpreter
# ----------------------------------------------------------------------
class _FunctionAnalyzer:
    """Evaluates origin facts over one function's CFG."""

    def __init__(
        self,
        analysis: "OwnershipAnalysis",
        fi: FunctionInfo,
        summaries: Mapping[str, FunctionSummary],
    ):
        self.analysis = analysis
        self.fi = fi
        self.aliases = analysis.aliases_for(fi.module)
        self.summaries = summaries
        self.tracked = tracked_params(fi.node)
        self.shm_vars: Set[str] = set()
        self.shm_attrs: Set[str] = set()
        self.fence_spans: List[Tuple[int, int]] = []
        self._collect_shm_context()

    # -- environment plumbing ------------------------------------------
    def boundary(self) -> Env:
        return frozenset((name, _PARAM + name) for name in self.tracked)

    @staticmethod
    def lookup(env: Env, var: str) -> FrozenSet[str]:
        return frozenset(origin for name, origin in env if name == var)

    @staticmethod
    def _assign(env: Env, var: str, origins: FrozenSet[str]) -> Env:
        kept = frozenset(fact for fact in env if fact[0] != var)
        return kept | frozenset((var, origin) for origin in origins)

    @staticmethod
    def _taint(env: Env, var: str, origins: FrozenSet[str]) -> Env:
        return env | frozenset((var, origin) for origin in origins)

    # -- expression evaluation -----------------------------------------
    def eval(self, node: Optional[ast.expr], env: Env) -> FrozenSet[str]:
        """The origin facts of an expression's value under ``env``."""
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.lookup(env, node.id)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            return self.eval(node.body, env) | self.eval(node.orelse, env)
        if isinstance(node, ast.BoolOp):
            out: FrozenSet[str] = _EMPTY
            for value in node.values:
                out |= self.eval(value, env)
            return out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = _EMPTY
            for elt in node.elts:
                out |= self.eval(elt, env)
            return out
        if isinstance(node, ast.Dict):
            out = _EMPTY
            for value in node.values:
                if value is not None:
                    out |= self.eval(value, env)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            inner = self._comprehension_env(node, env)
            return self.eval(node.elt, inner)
        if isinstance(node, ast.DictComp):
            inner = self._comprehension_env(node, env)
            return self.eval(node.value, inner)
        if isinstance(node, ast.NamedExpr):
            return self.eval(node.value, env)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, ast.Await):
            return self.eval(node.value, env)
        # BinOp / UnaryOp / Compare / constants: fresh values.
        return _EMPTY

    def _comprehension_env(self, node: ast.expr, env: Env) -> Env:
        inner = env
        for gen in node.generators:  # type: ignore[attr-defined]
            origins = self.eval(gen.iter, inner)
            inner = self._bind_target(inner, gen.target, origins)
        return inner

    def _eval_attribute(self, node: ast.Attribute, env: Env) -> FrozenSet[str]:
        base = node.value
        if isinstance(base, ast.Name) and base.id == "self":
            # only array-looking attributes become tracked internal state;
            # scalars/counters on self are below this analysis's grade
            if ARRAYISH_RE.search(node.attr):
                return frozenset({_SELF + node.attr})
            return _EMPTY
        if node.attr in _SHM_RAW_ATTRS:
            text = dotted_name(base)
            if text is not None and (text in self.shm_vars or text in self.shm_attrs):
                return frozenset({_SHM + text})
        if isinstance(base, ast.Name) and base.id == "cls":
            return _EMPTY
        # an array-looking attribute of a borrowed object is still
        # borrowed memory; other attributes (counters, ids) are not
        if ARRAYISH_RE.search(node.attr):
            return _unhold(self.eval(base, env))
        return _EMPTY

    def _eval_subscript(self, node: ast.Subscript, env: Env) -> FrozenSet[str]:
        index = node.slice
        if isinstance(index, ast.Index):  # pragma: no cover - Python < 3.9
            index = index.value  # type: ignore[attr-defined]
        if _is_gather_index(index):
            return _EMPTY  # fancy indexing materializes a fresh array
        # an element of a holding container is the held memory itself
        return _unhold(self.eval(node.value, env))

    def _eval_call(self, node: ast.Call, env: Env) -> FrozenSet[str]:
        out_kw = next((kw for kw in node.keywords if kw.arg == "out"), None)
        if out_kw is not None:
            # np.add(a, b, out=x) returns (and mutated) x
            return self.eval(out_kw.value, env)

        dotted = dotted_name(node.func)
        resolved = resolve_name(dotted, self.aliases) if dotted else None

        if resolved in _OWNING_CALLS:
            if resolved == "numpy.array" and any(
                kw.arg == "copy"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            ):
                return self.eval(node.args[0], env) if node.args else _EMPTY
            return _EMPTY
        if resolved in _ALIASING_CALLS:
            return self.eval(node.args[0], env) if node.args else _EMPTY
        if resolved in _PASSTHROUGH_CALLS:
            out: FrozenSet[str] = _EMPTY
            for arg in node.args:
                out |= self.eval(arg, env)
            return out

        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method == "copy":
                return _EMPTY
            if method in _VIEW_METHODS:
                return self.eval(node.func.value, env)
            if method in _FENCE_METHODS:
                return self.eval(node.func.value, env)

        return self._eval_summary_call(node, env)

    def _eval_summary_call(self, node: ast.Call, env: Env) -> FrozenSet[str]:
        """Apply a batch callee's :class:`FunctionSummary` at a call site."""
        target = self.analysis.resolve_call(self.fi, node)
        if target is None:
            return _EMPTY
        summary = self.summaries.get(target)
        callee = self.analysis.graph.functions.get(target)
        if summary is None or callee is None:
            return _EMPTY

        out: FrozenSet[str] = _EMPTY
        interesting = summary.returns_params | summary.absorbs_params
        if interesting:
            mapping = self._match_args(callee, node)
            for name in interesting:
                arg = mapping.get(name)
                if arg is not None:
                    out |= self.eval(arg, env)
        if summary.returns_self:
            if isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                if isinstance(receiver, ast.Name) and receiver.id == "self":
                    out |= frozenset(_SELF + attr for attr in summary.returns_self)
                else:
                    # a view of *that object's* internals aliases whatever
                    # the object itself aliases (e.g. a parameter)
                    out |= self.eval(receiver, env)
        return out

    def _match_args(
        self, callee: FunctionInfo, call: ast.Call
    ) -> Dict[str, ast.expr]:
        params = [a.arg for a in callee.node.args.args]
        if params and params[0] in ("self", "cls") and self._call_is_bound(callee, call):
            params = params[1:]
        mapping: Dict[str, ast.expr] = {}
        for position, arg in enumerate(call.args):
            if position < len(params):
                mapping[params[position]] = arg
        for kw in call.keywords:
            if kw.arg is not None:
                mapping[kw.arg] = kw.value
        return mapping

    @staticmethod
    def _call_is_bound(callee: FunctionInfo, call: ast.Call) -> bool:
        if callee.class_qualname is None:
            return False
        if callee.node.name == "__init__":
            # ClassName(...) — the caller never passes self
            func_name = dotted_name(call.func) or ""
            return not func_name.endswith("__init__")
        # obj.method(...) is bound; ClassName.method(obj, ...) is not —
        # approximate the latter by the capitalized-receiver convention.
        if isinstance(call.func, ast.Attribute) and isinstance(
            call.func.value, ast.Name
        ):
            return not call.func.value.id[:1].isupper()
        return isinstance(call.func, ast.Attribute)

    # -- statement transfer --------------------------------------------
    def transfer(self, block: Block, env: Env) -> Env:
        stmt = block.stmt
        if stmt is None:
            return env  # synthetic blocks and except-dispatch heads
        if isinstance(stmt, ast.Assign):
            origins = self.eval(stmt.value, env)
            for target in stmt.targets:
                env = self._bind_target(env, target, origins, value=stmt.value)
            return env
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            origins = self.eval(stmt.value, env)
            return self._bind_target(env, stmt.target, origins, value=stmt.value)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            # loop heads keep the whole For node; bind the target from the
            # iterable's facts (items()/values() preserve the container's)
            origins = self.eval(stmt.iter, env)
            return self._bind_target(env, stmt.target, origins)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    env = self._bind_target(
                        env,
                        item.optional_vars,
                        self.eval(item.context_expr, env),
                    )
            return env
        return env

    def _bind_target(
        self,
        env: Env,
        target: ast.expr,
        origins: FrozenSet[str],
        value: Optional[ast.expr] = None,
    ) -> Env:
        if isinstance(target, ast.Name):
            return self._assign(env, target.id, origins)
        if isinstance(target, ast.Starred):
            return self._bind_target(env, target.value, origins, value)
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
                target.elts
            ):
                for t, v in zip(target.elts, value.elts):
                    env = self._bind_target(env, t, self.eval(v, env), value=v)
                return env
            for t in target.elts:
                env = self._bind_target(env, t, origins)
            return env
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                # the stored value escaped into self: tag it so a later
                # `return v` still reads as leaking internal state
                if isinstance(value, ast.Name) and ARRAYISH_RE.search(target.attr):
                    env = self._taint(
                        env, value.id, frozenset({_SELF + target.attr})
                    )
                return env
            if isinstance(base, ast.Name):
                # container/object absorb: obj.x = v makes obj *hold* v
                return self._taint(env, base.id, _hold(origins))
            return env
        if isinstance(target, ast.Subscript):
            index = target.slice
            if isinstance(index, ast.Index):  # pragma: no cover - < 3.9
                index = index.value  # type: ignore[attr-defined]
            if _contains_slice(index) or _is_gather_index(index):
                # ndarray element/slice write: data is copied into the
                # target's own buffer, no reference is retained
                return env
            base = target.value
            if isinstance(base, ast.Name):
                # dict-style keyed store retains a reference
                return self._taint(env, base.id, _hold(origins))
            return env
        return env

    # -- shared-memory lexical context ---------------------------------
    def _collect_shm_context(self) -> None:
        fn = self.fi.node
        for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]:
            if arg.annotation is not None:
                try:
                    text = ast.unparse(arg.annotation)
                except Exception:  # pragma: no cover
                    text = ""
                if any(name in text for name in _SHM_CLASS_NAMES):
                    self.shm_vars.add(arg.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if self._is_shm_constructor(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.shm_vars.add(target.id)
                        elif isinstance(target, ast.Attribute):
                            text = dotted_name(target)
                            if text is not None:
                                self.shm_attrs.add(text)
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and isinstance(expr.func, ast.Attribute)
                        and expr.func.attr in _FENCE_METHODS
                    ):
                        end = getattr(node, "end_lineno", None) or node.lineno
                        self.fence_spans.append((node.lineno, end))
                        break

    def _is_shm_constructor(self, call: ast.Call) -> bool:
        dotted = dotted_name(call.func)
        if dotted is not None and any(
            part in _SHM_CLASS_NAMES for part in dotted.split(".")
        ):
            return True
        target = self.analysis.resolve_call(self.fi, call)
        if target is None:
            return False
        callee = self.analysis.graph.functions.get(target)
        return callee is not None and callee.module == "repro.ps.shm"

    def in_fence(self, line: int) -> bool:
        return any(start <= line <= end for start, end in self.fence_spans)


class _OwnershipProblem(DataflowProblem[Env]):
    """Forward may-analysis: union join over (var, origin) fact sets."""

    direction = "forward"
    exc_propagates_in = True

    def __init__(self, analyzer: _FunctionAnalyzer):
        self.analyzer = analyzer

    def boundary(self, cfg: CFG) -> Env:
        return self.analyzer.boundary()

    def initial(self) -> Env:
        return frozenset()

    def join(self, a: Env, b: Env) -> Env:
        return a | b

    def transfer(self, block: Block, value: Env) -> Env:
        return self.analyzer.transfer(block, value)


# ----------------------------------------------------------------------
# Whole-batch analysis
# ----------------------------------------------------------------------
class OwnershipAnalysis:
    """Ownership facts for every function in a lint batch.

    Builds the call graph once, then iterates per-function abstract
    interpretation and summary extraction to a fixpoint (summaries only
    grow, so a handful of passes converge on real code).
    """

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.graph: CallGraph = build_call_graph(self.modules)
        self._aliases: Dict[str, Dict[str, str]] = {
            m.module: import_aliases(m.tree) for m in self.modules
        }
        self.summaries: Dict[str, FunctionSummary] = {}
        self.results: Dict[str, FunctionOwnership] = {}
        self._run()

    # -- shared helpers -------------------------------------------------
    def aliases_for(self, module: str) -> Dict[str, str]:
        return self._aliases.get(module, {})

    def resolve_call(self, fi: FunctionInfo, call: ast.Call) -> Optional[str]:
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        # same-package use of the call graph's resolver; as_call maps a
        # bare class reference to its __init__
        return self.graph._resolve(fi.module, dotted, fi, as_call=True)

    # -- driver ---------------------------------------------------------
    def _run(self) -> None:
        order = sorted(self.graph.functions)
        for _ in range(_MAX_SUMMARY_PASSES):
            changed = False
            for qualname in order:
                fi = self.graph.functions[qualname]
                result, summary = self._analyze(fi)
                if summary != self.summaries.get(qualname):
                    self.summaries[qualname] = summary
                    changed = True
                self.results[qualname] = result
            if not changed:
                break

    # -- per-function pass ----------------------------------------------
    def _analyze(
        self, fi: FunctionInfo
    ) -> Tuple[FunctionOwnership, FunctionSummary]:
        analyzer = _FunctionAnalyzer(self, fi, self.summaries)
        cfg = build_cfg(fi.node, fi.qualname)
        states = solve(cfg, _OwnershipProblem(analyzer))

        result = FunctionOwnership(
            qualname=fi.qualname,
            module=fi.module,
            line=fi.line,
            name=fi.node.name,
            docstring=_docstring(fi.node),
            is_public=not fi.node.name.startswith("_"),
        )
        returns_params: Set[str] = set()
        returns_self: Set[str] = set()
        absorbs: Set[str] = set()
        intro: Dict[str, int] = {}

        for block_id in sorted(cfg.blocks):
            block = cfg.blocks[block_id]
            stmt = block.stmt
            env_in, env_out = states[block_id]
            if stmt is not None:
                for _, origin in env_out - env_in:
                    intro.setdefault(strip_held(origin), block.line)
                self._inspect_statement(
                    analyzer, stmt, env_in, result, returns_params, returns_self,
                    absorbs, intro,
                )
        self._inspect_shm_raw_accesses(analyzer, result)

        summary = FunctionSummary(
            returns_params=frozenset(returns_params),
            returns_self=frozenset(returns_self),
            absorbs_params=frozenset(absorbs)
            if fi.node.name == "__init__"
            else _EMPTY,
        )
        return result, summary

    def _inspect_statement(
        self,
        analyzer: _FunctionAnalyzer,
        stmt: ast.stmt,
        env: Env,
        result: FunctionOwnership,
        returns_params: Set[str],
        returns_self: Set[str],
        absorbs: Set[str],
        intro: Dict[str, int],
    ) -> None:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            origins = _unhold(analyzer.eval(stmt.value, env))
            if origins:
                for origin in origins:
                    if _is_param(origin):
                        returns_params.add(param_name(origin))
                    elif _is_self(origin):
                        returns_self.add(self_attr(origin))
                intro_line = min(
                    (
                        intro[o]
                        for o in origins
                        if o in intro and intro[o] != stmt.lineno
                    ),
                    default=None,
                )
                result.returns.append(
                    ReturnSite(stmt.lineno, origins, intro_line)
                )
            return

        if isinstance(stmt, ast.AugAssign):
            self._record_mutation(
                analyzer, stmt.target, env, stmt.lineno, "augassign", result
            )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                if isinstance(target, ast.Subscript):
                    self._record_mutation(
                        analyzer, target.value, env, stmt.lineno, "setitem", result
                    )
                    self._record_store(
                        analyzer, target, value, env, stmt.lineno, result, absorbs
                    )
                elif isinstance(target, ast.Attribute):
                    self._record_store(
                        analyzer, target, value, env, stmt.lineno, result, absorbs
                    )

        # out= keywords and mutator/container method calls anywhere in the
        # statement's own expressions (compound heads scan only their test
        # or iterable — body statements have their own CFG blocks)
        for node in self._walk_own(stmt):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "out":
                    self._record_mutation(
                        analyzer, kw.value, env, node.lineno, "out=", result
                    )
            if isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in _MUTATOR_METHODS:
                    self._record_mutation(
                        analyzer, node.func.value, env, node.lineno, "method", result
                    )
                elif method in _CONTAINER_STORES and node.args:
                    self._record_container_store(
                        analyzer, node, env, result, absorbs
                    )

    @staticmethod
    def _walk_own(stmt: ast.stmt) -> List[ast.AST]:
        """Nodes belonging to *this* CFG block, excluding compound bodies."""
        heads: List[ast.expr] = []
        if isinstance(stmt, (ast.If, ast.While)):
            heads = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            heads = [stmt.iter]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            heads = [item.context_expr for item in stmt.items]
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try)
        ):
            return []
        else:
            return list(ast.walk(stmt))
        out: List[ast.AST] = []
        for head in heads:
            out.extend(ast.walk(head))
        return out

    def _record_mutation(
        self,
        analyzer: _FunctionAnalyzer,
        target: ast.expr,
        env: Env,
        line: int,
        kind: str,
        result: FunctionOwnership,
    ) -> None:
        origins = analyzer.eval(target, env)
        # only *direct* aliases count: writing into a dict that holds
        # borrowed refs mutates the dict, not the borrowed memory
        borrowed = frozenset(o for o in origins if _is_direct_param(o))
        text = dotted_name(target) or ast.unparse(target)
        if borrowed:
            result.mutations.append(MutationSite(line, text, borrowed, kind))
        shm = frozenset(o for o in origins if _is_shm(o))
        if shm and not analyzer.in_fence(line):
            result.shm_accesses.append(ShmAccess(line, text, "aliased"))

    def _record_store(
        self,
        analyzer: _FunctionAnalyzer,
        target: ast.expr,
        value: Optional[ast.expr],
        env: Env,
        line: int,
        result: FunctionOwnership,
        absorbs: Set[str],
    ) -> None:
        """Flag ``self``-rooted stores whose value aliases a parameter."""
        root = target
        while isinstance(root, ast.Subscript):
            root = root.value
        rooted_in_self = False
        if isinstance(root, ast.Attribute) and isinstance(root.value, ast.Name):
            rooted_in_self = root.value.id == "self"
        elif isinstance(root, ast.Name):
            rooted_in_self = any(
                _is_self(o) for o in analyzer.lookup(env, root.id)
            )
        if not rooted_in_self:
            return
        origins = analyzer.eval(value, env) if value is not None else _EMPTY
        borrowed = _unhold(frozenset(o for o in origins if _is_param(o)))
        if borrowed:
            try:
                text = ast.unparse(target)
            except Exception:  # pragma: no cover
                text = "<target>"
            result.stores.append(StoreSite(line, text, borrowed))
            absorbs.update(param_name(o) for o in borrowed)

    def _record_container_store(
        self,
        analyzer: _FunctionAnalyzer,
        call: ast.Call,
        env: Env,
        result: FunctionOwnership,
        absorbs: Set[str],
    ) -> None:
        receiver = call.func.value  # type: ignore[union-attr]
        recv_origins = analyzer.eval(receiver, env)
        recv_is_self = any(_is_self(o) for o in recv_origins) or (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
        )
        if not recv_is_self:
            return
        origins = analyzer.eval(call.args[0], env)
        borrowed = _unhold(frozenset(o for o in origins if _is_param(o)))
        if borrowed:
            try:
                text = ast.unparse(call.func)
            except Exception:  # pragma: no cover
                text = "<call>"
            result.stores.append(StoreSite(call.lineno, text, borrowed))
            absorbs.update(param_name(o) for o in borrowed)

    def _inspect_shm_raw_accesses(
        self, analyzer: _FunctionAnalyzer, result: FunctionOwnership
    ) -> None:
        """Lexical pass: every raw ``.array``/``.buf`` touch needs a fence."""
        if analyzer.fi.module == "repro.ps.shm":
            return  # the fence implementation itself
        if not (analyzer.shm_vars or analyzer.shm_attrs):
            return
        for node in ast.walk(analyzer.fi.node):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in _SHM_RAW_ATTRS:
                continue
            base = dotted_name(node.value)
            if base is None:
                continue
            if base not in analyzer.shm_vars and base not in analyzer.shm_attrs:
                continue
            if not analyzer.in_fence(node.lineno):
                result.shm_accesses.append(
                    ShmAccess(node.lineno, f"{base}.{node.attr}", "raw")
                )
