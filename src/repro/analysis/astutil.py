"""Small AST helpers shared by the rule packs.

The rules reason about *resolved* dotted names — ``_threading.Lock``
must be recognized as ``threading.Lock`` even through an import alias,
and ``from threading import Lock`` must make ``Lock`` resolve to
``threading.Lock``.  :func:`import_aliases` builds the local-name →
origin map and :func:`resolve_call_name` applies it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "import_aliases",
    "dotted_name",
    "resolve_name",
    "resolve_call_name",
    "walk_functions",
    "walk_own_scope",
]


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map each locally bound import name to its fully-dotted origin.

    ``import numpy as np`` binds ``np -> numpy``; ``import time as _t``
    binds ``_t -> time``; ``from numpy import random as npr`` binds
    ``npr -> numpy.random``; plain ``import numpy.random`` binds the top
    name ``numpy -> numpy``.  Relative imports are skipped — the repro
    codebase uses absolute imports throughout.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    top = name.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """The textual dotted path of a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_name(dotted: str, aliases: Dict[str, str]) -> str:
    """Rewrite the first segment of ``dotted`` through the alias map."""
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def resolve_call_name(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[str]:
    """The resolved dotted name a call targets, or ``None`` if dynamic."""
    name = dotted_name(call.func)
    if name is None:
        return None
    return resolve_name(name, aliases)


def walk_functions(
    tree: ast.AST,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.AST]]:
    """Yield ``(enclosing_class_or_None, function_node)`` pairs.

    Covers module-level functions, methods, and functions nested inside
    either; the class reported for a nested function is the innermost
    enclosing class (or ``None``).
    """

    def visit(node: ast.AST, cls: Optional[ast.ClassDef]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                yield from visit(child, cls)
            else:
                yield from visit(child, cls)

    yield from visit(tree, None)


def walk_own_scope(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs.

    Nested functions, classes, and lambdas are separate execution scopes;
    per-function rules visit them through :func:`walk_functions` instead,
    so walking into them here would double-report.
    """

    def visit(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            yield child
            yield from visit(child)

    yield from visit(fn)
