"""Shared ``--fail-on`` exit-code policy for every analysis command.

``repro lint``, ``repro analyze`` and ``repro modelcheck`` all gate CI
the same way: findings are collected, then one policy decides the exit
code.  ``never`` always exits 0 (report-only mode), ``error`` fails only
on :attr:`~repro.analysis.findings.Severity.ERROR` findings, and
``warning`` (the default) fails on any unsuppressed finding.
"""

from __future__ import annotations

import argparse
from typing import Sequence, Tuple

from repro.analysis.findings import Finding, Severity

__all__ = ["FAIL_ON_CHOICES", "add_fail_on_argument", "gate_exit_code"]

#: The accepted ``--fail-on`` policies, loosest first.
FAIL_ON_CHOICES: Tuple[str, ...] = ("never", "warning", "error")


def add_fail_on_argument(parser: argparse.ArgumentParser, default: str = "warning") -> None:
    """Attach the standard ``--fail-on`` option to ``parser``."""
    parser.add_argument(
        "--fail-on",
        choices=FAIL_ON_CHOICES,
        default=default,
        help=(
            "exit non-zero on findings at or above this severity "
            "('never' always exits 0; default: %(default)s)"
        ),
    )


def gate_exit_code(findings: Sequence[Finding], fail_on: str) -> int:
    """The process exit code for ``findings`` under the ``fail_on`` policy.

    Suppressed findings (``# repro: allow[...]``) never trip the gate;
    ``warning`` fails on any unsuppressed finding, ``error`` lets
    warnings through so CI can gate hard defects while a warning backlog
    is being burned down, and ``never`` is report-only.
    """
    if fail_on not in FAIL_ON_CHOICES:
        raise ValueError(
            f"unknown fail-on policy {fail_on!r}; known: {', '.join(FAIL_ON_CHOICES)}"
        )
    if fail_on == "never":
        return 0
    active = [f for f in findings if not f.suppressed]
    if fail_on == "error":
        active = [f for f in active if f.severity is Severity.ERROR]
    return 1 if active else 0
