"""Interprocedural call resolution over the linted batch.

:meth:`CallGraph.resolve_call` maps a call site to the batch function it
invokes.  Resolution is by *module-level name binding*, the only kind
Python makes static: import aliases (via :mod:`repro.analysis.astutil`),
module functions, classes and their methods (including
single-inheritance-style base lookup when the base resolves to a batch
class), ``self.``/``cls.`` method calls, ``ClassName.method``
references, nested ``def`` names, and a small local-instance inference
(``x = ClassName(...)`` makes ``x.m()`` resolve).  A bare class call
resolves to its ``__init__``.  Anything dynamic — getattr, dict
dispatch, decorators that swap callables — is out of scope and resolves
to nothing, which keeps the facts built on it an under-approximation: a
missed call costs a missed warning, not a crash.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    dotted_name,
    import_aliases,
    resolve_name,
    walk_own_scope,
)
from repro.analysis.engine import ModuleInfo
from repro.analysis.flow.cfg import FunctionNode

__all__ = ["CallGraph", "FunctionInfo", "build_call_graph"]


@dataclass
class FunctionInfo:
    """One function in the batch, addressed by dotted qualname."""

    qualname: str
    module: str
    node: FunctionNode
    #: qualname of the innermost enclosing class, if a method
    class_qualname: Optional[str] = None
    #: names bound by nested ``def``s in this function's own scope
    local_bindings: Dict[str, str] = field(default_factory=dict)
    #: local variables inferred as instances of batch classes
    local_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class _ClassInfo:
    qualname: str
    methods: Dict[str, str] = field(default_factory=dict)
    #: base-class names as resolved dotted strings (may or may not be
    #: batch classes; looked up lazily during method resolution)
    bases: List[str] = field(default_factory=list)


@dataclass
class _ModuleScope:
    aliases: Dict[str, str] = field(default_factory=dict)
    #: top-level name -> ("func" | "class", qualname)
    bindings: Dict[str, Tuple[str, str]] = field(default_factory=dict)


class CallGraph:
    """The batch's functions and classes; resolves the calls between them."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self._classes: Dict[str, _ClassInfo] = {}
        self._scopes: Dict[str, _ModuleScope] = {}

    def resolve_call(self, fi: FunctionInfo, call: ast.Call) -> Optional[str]:
        """The qualname of the batch function ``call`` (made in ``fi``) invokes.

        A bare class call resolves to the class's ``__init__``.
        """
        dotted = dotted_name(call.func)
        scope = self._scopes.get(fi.module)
        if dotted is None or scope is None:
            return None
        parts = dotted.split(".")
        head = parts[0]

        if head in ("self", "cls") and fi.class_qualname is not None and len(parts) == 2:
            return self._lookup_method(fi.class_qualname, parts[1])
        if len(parts) == 1 and head in fi.local_bindings:
            return fi.local_bindings[head]
        if len(parts) == 2 and head in fi.local_types:
            return self._lookup_method(fi.local_types[head], parts[1])

        binding = scope.bindings.get(head)
        if binding is not None:
            kind, qualname = binding
            if kind == "func":
                return qualname if len(parts) == 1 else None
            if len(parts) == 1:
                return self._lookup_method(qualname, "__init__")
            if len(parts) == 2:
                return self._lookup_method(qualname, parts[1])
            return None

        full = resolve_name(dotted, scope.aliases)
        if full in self.functions:
            return full
        if full in self._classes:
            return self._lookup_method(full, "__init__")
        owner, _, method = full.rpartition(".")
        if owner in self._classes:
            return self._lookup_method(owner, method)
        return None

    def _lookup_method(
        self, class_qualname: str, name: str, seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve ``name`` on ``class_qualname`` with base-class lookup."""
        if seen is None:
            seen = set()
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        info = self._classes.get(class_qualname)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.bases:
            found = self._lookup_method(base, name, seen)
            if found is not None:
                return found
        return None


def _class_base_name(base: ast.expr, scope: _ModuleScope) -> Optional[str]:
    dotted = dotted_name(base)
    if dotted is None:
        return None
    head = dotted.split(".")[0]
    binding = scope.bindings.get(head)
    if binding is not None and binding[0] == "class" and "." not in dotted:
        return binding[1]
    return resolve_name(dotted, scope.aliases)


def _collect_definitions(graph: CallGraph, info: ModuleInfo) -> None:
    """First pass: register functions, classes, and module bindings."""
    scope = _ModuleScope(aliases=import_aliases(info.tree))
    graph._scopes[info.module] = scope

    for child in info.tree.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.bindings[child.name] = ("func", f"{info.module}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            scope.bindings[child.name] = ("class", f"{info.module}.{child.name}")

    def visit(node: ast.AST, prefix: str, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                serial = 2
                while qualname in graph.functions:
                    qualname = f"{prefix}.{child.name}#{serial}"
                    serial += 1
                graph.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=info.module,
                    node=child,
                    class_qualname=cls,
                )
                if cls is not None and isinstance(node, ast.ClassDef):
                    class_info = graph._classes.get(cls)
                    if class_info is not None:
                        class_info.methods.setdefault(child.name, qualname)
                visit(child, f"{prefix}.{child.name}", cls)
            elif isinstance(child, ast.ClassDef):
                class_qualname = f"{prefix}.{child.name}"
                class_info = _ClassInfo(qualname=class_qualname)
                for base in child.bases:
                    resolved = _class_base_name(base, scope)
                    if resolved is not None:
                        class_info.bases.append(resolved)
                graph._classes[class_qualname] = class_info
                visit(child, class_qualname, class_qualname)
            else:
                visit(child, prefix, cls)

    visit(info.tree, info.module, None)


def _collect_function_locals(graph: CallGraph, fi: FunctionInfo) -> None:
    """Second pass, per function: nested-def names and local instances."""
    scope = graph._scopes[fi.module]
    for child in ast.iter_child_nodes(fi.node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = f"{fi.qualname}.{child.name}"
            if nested in graph.functions:
                fi.local_bindings[child.name] = nested
    for node in walk_own_scope(fi.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            target_class = _resolved_class(graph, scope, fi, node.value)
            if target_class is not None:
                fi.local_types[node.targets[0].id] = target_class


def _resolved_class(
    graph: CallGraph, scope: _ModuleScope, fi: FunctionInfo, call: ast.Call
) -> Optional[str]:
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    head = dotted.split(".")[0]
    binding = scope.bindings.get(head)
    if binding is not None and binding[0] == "class" and "." not in dotted:
        return binding[1]
    full = resolve_name(dotted, scope.aliases)
    return full if full in graph._classes else None


def build_call_graph(modules: Sequence[ModuleInfo]) -> CallGraph:
    """The call graph over ``modules`` (typically the whole lint batch)."""
    graph = CallGraph()
    for info in modules:
        _collect_definitions(graph, info)
    for fi in graph.functions.values():
        _collect_function_locals(graph, fi)
    return graph
