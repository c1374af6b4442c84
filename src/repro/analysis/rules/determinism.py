"""Determinism rule pack.

Every paper quantity this reproduction reports is a function of the event
timeline (DESIGN.md §2).  A stray wall-clock read or unseeded draw shows
up as two same-seed runs that differ, which the replay check and the
pinned digests catch; iterating a set of strings does not — within one
process the hash seed is fixed, so both runs agree, and the order still
changes from process to process.  ``DET-SET-ITER`` bans set iteration in
the deterministic zone — the packages listed in
:data:`DETERMINISTIC_PACKAGES`.  ``repro.runtime`` is exempt by design:
the threaded/multiprocess backends *intentionally* run on wall time.

``DET-OPTIONAL-NONE`` applies repo-wide: a ``None`` default on a
non-``Optional`` annotation lies, and mypy checks only its strict zone.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.astutil import dotted_name, import_aliases, resolve_name
from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "SetIterationRule",
    "ImplicitOptionalRule",
]

#: Packages whose code must be a pure function of (seed, event timeline).
#: ``repro.runtime`` is deliberately absent — it bridges to wall time.
#: ``repro.obs`` *is* in the zone even though it supports wall-clock
#: traces: the observability layer is clock-agnostic by construction
#: (clocks are injected — ``FunctionClock(time.monotonic)`` is built at
#: the call site in the exempt runtime).
DETERMINISTIC_PACKAGES = (
    "repro.events",
    "repro.core",
    "repro.sync",
    "repro.ps",
    "repro.netsim",
    "repro.obs",
)


def in_deterministic_zone(module: ModuleInfo) -> bool:
    """Whether the module lives in a package the zone rules police."""
    return any(
        module.module == pkg or module.module.startswith(pkg + ".")
        for pkg in DETERMINISTIC_PACKAGES
    )


def _is_set_expression(node: ast.AST, aliases: dict) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        return resolve_name(name, aliases) in ("set", "frozenset")
    return False


class SetIterationRule(Rule):
    """DET-SET-ITER: iterating a set in the deterministic zone.

    Set iteration order depends on insertion history and hash seeding;
    draining a set in a ``for`` loop (or comprehension) makes event order
    run-dependent.  Wrap the set in ``sorted(...)`` to fix the order.
    Also flags sets passed straight into ``list``/``tuple``/``enumerate``
    inside an iteration position, which launders the same hazard.
    """

    rule_id = "DET-SET-ITER"
    severity = Severity.ERROR
    description = (
        "Iteration over an unordered set in the simulation path; wrap in "
        "sorted(...) to pin the order."
    )

    _LAUNDERERS = ("list", "tuple", "enumerate", "reversed")

    def _flag_iter_expr(
        self, module: ModuleInfo, node: ast.AST, aliases: dict
    ) -> Iterator[Finding]:
        if _is_set_expression(node, aliases):
            yield self.finding(
                module,
                node.lineno,
                f"iteration over an unordered set in {module.module}; "
                f"event order must not depend on hash order — use "
                f"sorted(...)",
            )
            return
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and resolve_name(name, aliases) in self._LAUNDERERS:
                for arg in node.args:
                    if _is_set_expression(arg, aliases):
                        yield self.finding(
                            module,
                            arg.lineno,
                            f"unordered set passed to {name}() in an "
                            f"iteration position in {module.module}; use "
                            f"sorted(...)",
                        )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not in_deterministic_zone(module):
            return
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                yield from self._flag_iter_expr(module, node.iter, aliases)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    yield from self._flag_iter_expr(
                        module, generator.iter, aliases
                    )


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
