"""Unit tests for the lint engine: findings, suppression, reporters, CLI."""

import json
import os
import textwrap

import pytest

from repro.analysis import (
    RULE_CLASSES,
    Finding,
    LintEngine,
    Severity,
    lint_source,
    module_from_source,
    parse_json,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.engine import _dotted_module_name, iter_python_files
from repro.cli import main as cli_main

BAD_RUNTIME = textwrap.dedent(
    """\
    def drain(work_queue):
        return work_queue.get()
    """
)
BAD_LINE = "return work_queue.get()"
ZONE = "repro.runtime.fixture"


def test_finding_round_trips_through_dict():
    finding = Finding(
        rule_id="CONC-QUEUE-TIMEOUT",
        severity=Severity.WARNING,
        path="src/repro/x.py",
        line=7,
        message="no timeout",
        suppressed=True,
    )
    rebuilt = Finding.from_dict(finding.to_dict())
    assert rebuilt == finding
    assert rebuilt.suppressed is True
    assert rebuilt.location == "src/repro/x.py:7"


def test_finding_validates_inputs():
    with pytest.raises(ValueError):
        Finding(rule_id="", severity=Severity.ERROR, path="x", line=1, message="m")
    with pytest.raises(ValueError):
        Finding(rule_id="R", severity=Severity.ERROR, path="x", line=0, message="m")


def test_bad_fixture_fires_in_zone_only():
    in_zone = lint_source(BAD_RUNTIME, module=ZONE)
    assert [f.rule_id for f in in_zone] == ["CONC-QUEUE-TIMEOUT"]
    out_of_zone = lint_source(BAD_RUNTIME, module="repro.events.fixture")
    assert out_of_zone == []


def test_same_line_suppression_marks_finding():
    source = BAD_RUNTIME.replace(
        BAD_LINE, BAD_LINE + "  # repro: allow[CONC-QUEUE-TIMEOUT] fixture"
    )
    findings = lint_source(source, module=ZONE)
    assert len(findings) == 1
    assert findings[0].suppressed is True


def test_preceding_comment_line_suppression():
    source = textwrap.dedent(
        """\
        def drain(work_queue):
            # repro: allow[CONC-QUEUE-TIMEOUT] fixture justification
            return work_queue.get()
        """
    )
    findings = lint_source(source, module=ZONE)
    assert len(findings) == 1 and findings[0].suppressed


def test_wildcard_suppression_waives_any_rule():
    source = BAD_RUNTIME.replace(BAD_LINE, BAD_LINE + "  # repro: allow[*]")
    findings = lint_source(source, module=ZONE)
    assert findings[0].suppressed


def test_suppression_for_other_rule_does_not_apply():
    source = BAD_RUNTIME.replace(
        BAD_LINE, BAD_LINE + "  # repro: allow[DET-OPTIONAL-NONE]"
    )
    findings = lint_source(source, module=ZONE)
    assert len(findings) == 1
    assert findings[0].suppressed is False


def test_rule_ids_are_unique_and_named():
    ids = [cls.rule_id for cls in RULE_CLASSES]
    assert len(ids) == len(set(ids))
    assert all(ids)
    # Engine enforces the same invariant at construction time.
    rules = [cls() for cls in RULE_CLASSES]
    with pytest.raises(ValueError):
        LintEngine(rules + [RULE_CLASSES[0]()])


def test_json_reporter_round_trips():
    findings = lint_source(BAD_RUNTIME, module=ZONE)
    rebuilt = parse_json(render_json(findings))
    assert rebuilt == findings
    payload = json.loads(render_json(findings))
    assert payload["counts"]["unsuppressed"] == 1
    assert payload["counts"]["by_rule"] == {"CONC-QUEUE-TIMEOUT": 1}


def test_text_reporter_summary_and_suppressed_visibility():
    source = BAD_RUNTIME.replace(
        BAD_LINE, BAD_LINE + "  # repro: allow[CONC-QUEUE-TIMEOUT]"
    )
    findings = lint_source(source, module=ZONE)
    hidden = render_text(findings)
    assert "clean: 0 findings (1 suppressed)" in hidden
    assert "CONC-QUEUE-TIMEOUT" not in hidden.splitlines()[0] or len(
        hidden.splitlines()
    ) == 1
    shown = render_text(findings, show_suppressed=True)
    assert "(suppressed)" in shown


def test_dotted_module_name_derivation():
    import repro.ps.engine as engine_module

    assert _dotted_module_name(engine_module.__file__) == "repro.ps.engine"
    import repro.ps as ps_package

    assert _dotted_module_name(ps_package.__file__) == "repro.ps"


def test_iter_python_files_rejects_missing_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([str(tmp_path / "nope")]))


def test_run_lint_over_files_on_disk(tmp_path):
    target = tmp_path / "src" / "repro" / "runtime"
    target.mkdir(parents=True)
    # __init__ markers so the module name resolves into the zone
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (target / "__init__.py").write_text("")
    (target / "bad.py").write_text(BAD_RUNTIME)
    findings = run_lint([str(tmp_path / "src")])
    assert [f.rule_id for f in findings] == ["CONC-QUEUE-TIMEOUT"]
    assert findings[0].path.endswith(os.path.join("runtime", "bad.py"))


def test_cli_lint_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "repro_zone"
    bad.mkdir()
    # Not a repro.* module -> zone rules silent; use a repo-wide rule.
    (bad / "optional.py").write_text("def f(x: int = None):\n    return x\n")
    assert cli_main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "DET-OPTIONAL-NONE" in out

    assert cli_main(["lint", "--format", "json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["unsuppressed"] == 1

    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("def f(x=None):\n    return x\n")
    assert cli_main(["lint", str(clean)]) == 0


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    (tmp_path / "fine.py").write_text("def f(x=None):\n    return x\n")
    findings = run_lint([str(tmp_path)])
    assert [f.rule_id for f in findings] == ["PARSE-ERROR"]
    assert findings[0].path.endswith("broken.py")
    assert findings[0].line == 1
    assert "does not parse" in findings[0].message


def test_cli_lint_missing_path_errors_cleanly(tmp_path, capsys):
    assert cli_main(["lint", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert "repro lint: error:" in err
    assert "nope" in err


def test_module_from_source_records_suppression_map():
    module = module_from_source(
        "x = 1  # repro: allow[A, B]\n", module="m"
    )
    assert module.is_suppressed("A", 1)
    assert module.is_suppressed("B", 1)
    assert not module.is_suppressed("C", 1)
