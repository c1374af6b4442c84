"""Determinism rule pack.

``DET-OPTIONAL-NONE`` applies repo-wide: a ``None`` default on a
non-``Optional`` annotation lies, and mypy checks only its strict zone.

Every paper quantity this reproduction reports is a function of the
event timeline (DESIGN.md §2).  That is held by tests that run the code,
not by lint: two same-seed runs must fire identical events (the replay
check) and reproduce pinned digests, and every scheme's outputs must
not move with ``PYTHONHASHSEED`` (``tests/test_replay_determinism.py``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity

__all__ = ["ImplicitOptionalRule"]


def _iter_signature_defaults(
    fn: ast.AST,
) -> Iterator[Tuple[ast.arg, Optional[ast.AST]]]:
    """Yield ``(arg, default_or_None)`` for every parameter of ``fn``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        yield arg, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        yield arg, default


def _annotation_allows_none(annotation: ast.AST) -> bool:
    """Whether an annotation admits ``None`` (Optional, | None, Any, ...)."""
    if isinstance(annotation, ast.Constant):
        if annotation.value is None:
            return True
        if isinstance(annotation.value, str):
            text = annotation.value
            return "Optional" in text or "None" in text or text in ("Any", "object")
        return False
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        if base is None:
            return False
        tail = base.split(".")[-1]
        if tail == "Optional":
            return True
        if tail == "Union":
            elements = (
                annotation.slice.elts
                if isinstance(annotation.slice, ast.Tuple)
                else [annotation.slice]
            )
            return any(_annotation_allows_none(e) for e in elements)
        return False
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_allows_none(annotation.left) or _annotation_allows_none(
            annotation.right
        )
    name = dotted_name(annotation)
    if name is None:
        return False
    return name.split(".")[-1] in ("Any", "object", "None")


class ImplicitOptionalRule(Rule):
    """DET-OPTIONAL-NONE: ``None`` default under a non-Optional annotation.

    Applies repo-wide, to both parameters and annotated assignments
    (``self.engine: "TrainingEngine" = None``).  The annotation must say
    what the value can actually be, or mypy's strict gate on
    ``repro.core``/``repro.events`` is meaningless.
    """

    rule_id = "DET-OPTIONAL-NONE"
    severity = Severity.ERROR
    description = "None default on a non-Optional annotation."

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg, default in _iter_signature_defaults(node):
                    if (
                        default is not None
                        and isinstance(default, ast.Constant)
                        and default.value is None
                        and arg.annotation is not None
                        and not _annotation_allows_none(arg.annotation)
                    ):
                        yield self.finding(
                            module,
                            arg.lineno,
                            f"parameter {arg.arg!r} of {node.name}() defaults "
                            f"to None but its annotation is not Optional",
                        )
            elif isinstance(node, ast.AnnAssign):
                if (
                    node.value is not None
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is None
                    and not _annotation_allows_none(node.annotation)
                ):
                    target = dotted_name(node.target) or "<target>"
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{target} is annotated non-Optional but assigned "
                        f"None",
                    )
