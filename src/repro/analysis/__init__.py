"""Custom static analysis for the SpecSync reproduction.

``repro.analysis`` is an AST-based lint engine with rule packs written
*for this codebase*: ``None`` defaults that lie about their annotation,
lock/queue/thread checks over the real-time runtime, ndarrays pickled
onto the multiprocessing queues, and resources released on every path.
It backs the ``repro lint`` CLI command and the
tier-1 self-lint gate (``tests/test_analysis_self_lint.py``).

Quick use::

    from repro.analysis import run_lint, render_text
    findings = run_lint(["src/repro"])
    print(render_text(findings))

Suppress a finding in source with a justification::

    self._lock.acquire()  # repro: allow[FLOW-RELEASE] released by close()

Beyond the lint engine, :mod:`repro.analysis.model` hosts the
explicit-state model checker for the abort/re-sync protocol
(``repro modelcheck``), which gates CI through the same shared
:func:`gate_exit_code` / ``--fail-on`` policy, and
:mod:`repro.analysis.replay` the replay-determinism checker: two
same-seed DES runs must fire identical event streams.

See ``docs/static_analysis.md`` for every rule id and the extension
guide.
"""

from repro.analysis.engine import (
    LintEngine,
    ModuleInfo,
    Rule,
    lint_source,
    module_from_source,
    run_lint,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.gate import FAIL_ON_CHOICES, add_fail_on_argument, gate_exit_code
from repro.analysis.reporters import parse_json, render_json, render_text
from repro.analysis.rules import RULE_CLASSES, default_rules

__all__ = [
    "Finding",
    "Severity",
    "FAIL_ON_CHOICES",
    "add_fail_on_argument",
    "gate_exit_code",
    "LintEngine",
    "ModuleInfo",
    "Rule",
    "run_lint",
    "lint_source",
    "module_from_source",
    "render_text",
    "render_json",
    "parse_json",
    "default_rules",
    "RULE_CLASSES",
]
