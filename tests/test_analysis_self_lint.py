"""Tier-1 gate: the repo's own source passes its own static analysis.

Runs the default rule set over the installed ``repro`` package and
asserts zero unsuppressed findings — every waiver must be an explicit
``# repro: allow[rule-id]`` comment with a justification next to it —
and pins the registered rule ids to the audited set, so a rule that
drops out of the registry fails here.
"""

import os
import re

import repro
from repro.analysis import render_text, run_lint
from repro.analysis.rules import RULE_CLASSES

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def test_repro_package_self_lints_clean():
    findings = run_lint([PACKAGE_DIR])
    unsuppressed = [f for f in findings if not f.suppressed]
    assert unsuppressed == [], "\n" + render_text(unsuppressed)


#: The rules the audit kept (CHANGES.md logs one probe per rule).
AUDITED_RULES = {
    "DET-OPTIONAL-NONE",
    "CONC-LOCK-ORDER",
    "CONC-THREAD-DAEMON",
    "CONC-QUEUE-TIMEOUT",
    "CONC-UNLOCKED-STATE",
    "PERF-PICKLE-PAYLOAD",
    "FLOW-RELEASE",
}


def test_self_lint_exercises_every_rule_pack():
    # The gate is only meaningful if every audited rule actually ran.
    assert {cls.rule_id for cls in RULE_CLASSES} == AUDITED_RULES


def test_existing_suppressions_carry_justifications():
    # A waiver without a reason is indistinguishable from a silenced bug:
    # every allow[...] comment must say *why* on the same or previous line.
    pattern = re.compile(r"#\s*repro:\s*allow\[[^\]]+\]\s*(?P<why>.*)")
    for dirpath, dirnames, filenames in os.walk(PACKAGE_DIR):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
            for lineno, line in enumerate(lines, start=1):
                match = pattern.search(line)
                if match is None:
                    continue
                why = match.group("why").strip()
                previous = lines[lineno - 2].strip() if lineno >= 2 else ""
                has_context = bool(why) or previous.startswith("#")
                assert has_context, (
                    f"{path}:{lineno} suppression lacks a justification"
                )
