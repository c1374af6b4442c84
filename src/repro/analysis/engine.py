"""The lint engine: file discovery, parsing, rule dispatch, suppression.

The engine parses every target file once into a :class:`ModuleInfo`
(source, AST, dotted module name, suppression map) and hands the batch to
each registered rule.  Rules come in two flavors:

* **module rules** — ``check_module`` runs once per file (most rules);
* **project rules** — ``check_project`` sees all modules at once, for
  cross-file checks like the lock-order graph.

Suppression: a ``# repro: allow[rule-id]`` comment on the offending line —
or on a comment-only line immediately above it — marks matching findings
as suppressed instead of deleting them, so reporters can still show what
was waived.  ``allow[*]`` waives every rule on that line.
"""

from __future__ import annotations

import abc
import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity

__all__ = [
    "ModuleInfo",
    "Rule",
    "LintEngine",
    "module_from_source",
    "lint_source",
    "run_lint",
]

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")

#: emitted by the engine itself (not a registered rule) for unparseable files
PARSE_ERROR_RULE_ID = "PARSE-ERROR"


@dataclass
class ModuleInfo:
    """One parsed source file plus everything rules need to inspect it."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: line number -> rule ids waived on that line ("*" waives all)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is waived at ``line``."""
        waived = self.suppressions.get(line, ())
        return rule_id in waived or "*" in waived


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rule_ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        # A comment-only line waives the next line; an end-of-line comment
        # waives its own line.
        target = lineno + 1 if text.lstrip().startswith("#") else lineno
        suppressions.setdefault(target, set()).update(rule_ids)
    return suppressions


def _dotted_module_name(path: str) -> str:
    """Derive ``repro.ps.engine`` from ``.../src/repro/ps/engine.py``.

    Walks parent directories upward while they contain ``__init__.py`` —
    the first directory without one is outside the package.
    """
    abs_path = os.path.abspath(path)
    directory, filename = os.path.split(abs_path)
    parts = [os.path.splitext(filename)[0]]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else os.path.splitext(filename)[0]


def module_from_source(
    source: str, module: str, path: str = "<memory>"
) -> ModuleInfo:
    """Build a :class:`ModuleInfo` from an in-memory snippet.

    ``module`` is the dotted name the snippet pretends to live at — rules
    scoped to e.g. ``repro.events`` only fire when the name says so, which
    is how the fixture tests exercise them.
    """
    lines = source.splitlines()
    return ModuleInfo(
        path=path,
        module=module,
        source=source,
        tree=ast.parse(source, filename=path),
        lines=lines,
        suppressions=_parse_suppressions(lines),
    )


def load_module(path: str) -> ModuleInfo:
    """Parse one file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return module_from_source(source, _dotted_module_name(path), path=path)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files and directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


class Rule(abc.ABC):
    """Base class for lint rules.

    Subclasses set the class attributes and override one (or both) of
    :meth:`check_module` / :meth:`check_project`.  Helper
    :meth:`finding` fills in the rule id and severity.
    """

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Findings for one file (default: none)."""
        return iter(())

    def check_project(
        self, modules: Sequence[ModuleInfo]
    ) -> Iterator[Finding]:
        """Findings needing the whole-project view (default: none)."""
        return iter(())

    def finding(
        self,
        module: ModuleInfo,
        line: int,
        message: str,
        flow_path: Tuple[int, ...] = (),
    ) -> Finding:
        """Build a finding for ``module`` at ``line``.

        Flow-sensitive rules pass ``flow_path`` — the line numbers along
        the offending CFG or call-graph path.
        """
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.path,
            line=line,
            message=message,
            flow_path=flow_path,
        )


class LintEngine:
    """Run a set of rules over a set of modules."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        seen: Set[str] = set()
        for rule in rules:
            if not rule.rule_id:
                raise ValueError(f"{type(rule).__name__} has no rule_id")
            if rule.rule_id in seen:
                raise ValueError(f"duplicate rule id {rule.rule_id!r}")
            seen.add(rule.rule_id)
        self.rules = list(rules)

    def lint_modules(self, modules: Sequence[ModuleInfo]) -> List[Finding]:
        """All findings over ``modules``, suppression flags applied."""
        by_path = {m.path: m for m in modules}
        findings: List[Finding] = []
        for rule in self.rules:
            for module in modules:
                findings.extend(rule.check_module(module))
            findings.extend(rule.check_project(modules))
        resolved = []
        for finding in findings:
            module = by_path.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.rule_id, finding.line
            ):
                finding = finding.with_suppressed(True)
            resolved.append(finding)
        resolved.sort(key=lambda f: (f.path, f.line, f.rule_id))
        return resolved

    def lint_paths(self, paths: Iterable[str]) -> List[Finding]:
        """Discover, parse, and lint every ``.py`` file under ``paths``.

        A file that fails to parse becomes a ``PARSE-ERROR`` finding rather
        than aborting the run — a linter has to tolerate in-progress trees.
        """
        modules: List[ModuleInfo] = []
        parse_failures: List[Finding] = []
        for path in iter_python_files(paths):
            try:
                modules.append(load_module(path))
            except SyntaxError as exc:
                parse_failures.append(
                    Finding(
                        rule_id=PARSE_ERROR_RULE_ID,
                        severity=Severity.ERROR,
                        path=path,
                        line=exc.lineno or 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
        findings = parse_failures + self.lint_modules(modules)
        findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
        return findings


def run_lint(
    paths: Iterable[str], rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """One-call entry point: lint ``paths`` with the default rule set."""
    return LintEngine(rules).lint_paths(paths)


def lint_source(
    source: str,
    module: str,
    path: str = "<memory>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one in-memory snippet (the fixture-test entry point)."""
    return LintEngine(rules).lint_modules(
        [module_from_source(source, module, path=path)]
    )
