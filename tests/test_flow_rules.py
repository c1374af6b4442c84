"""Fixture tests for the flow pack (FLOW-RELEASE) and the rule registry.

True positives (including exception-edge / ``try``/``finally`` cases),
true negatives, and a suppression check, all run through ``lint_source``
exactly like the real engine runs files.
"""

import json
import textwrap

import pytest

from repro.analysis.engine import lint_source
from repro.analysis.rules import RULE_PACKS, default_rules, rules_for
from repro.cli import main

ZONE = "repro.runtime.fixture"


def _lint(source, module=ZONE, rule_ids=None, packs=("flow",)):
    findings = lint_source(
        textwrap.dedent(source),
        module=module,
        rules=rules_for(rule_ids=rule_ids, packs=None if rule_ids else packs),
    )
    return [f for f in findings if not f.suppressed]


def _ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# FLOW-RELEASE
# ----------------------------------------------------------------------
class TestFlowRelease:
    def test_tp_exception_edge_between_acquire_and_release(self):
        # work() raising unwinds past the release: the classic leak the
        # syntactic rules cannot see.
        findings = _lint('''
            def f():
                lock.acquire()
                work()
                lock.release()
        ''', rule_ids=["FLOW-RELEASE"])
        assert _ids(findings) == ["FLOW-RELEASE"]
        assert "exception path" in findings[0].message
        assert findings[0].flow_path  # the witness path is attached

    def test_tp_early_return_skips_release(self):
        findings = _lint('''
            def f(x):
                self._lock.acquire()
                if x:
                    return None
                self._lock.release()
                return x
        ''', rule_ids=["FLOW-RELEASE"])
        assert _ids(findings) == ["FLOW-RELEASE"]
        # witness runs acquire -> branch -> return
        assert findings[0].flow_path == (3, 4, 5)

    def test_tp_file_opened_without_close_on_raise(self):
        findings = _lint('''
            def read(path):
                handle = open(path)
                data = handle.read()
                handle.close()
                return data
        ''', rule_ids=["FLOW-RELEASE"])
        assert _ids(findings) == ["FLOW-RELEASE"]

    def test_tn_try_finally_releases_on_all_paths(self):
        findings = _lint('''
            def f(x):
                lock.acquire()
                try:
                    if x:
                        return early()
                    work()
                finally:
                    lock.release()
        ''', rule_ids=["FLOW-RELEASE"])
        assert findings == []

    def test_tn_with_statement_is_safe_by_construction(self):
        findings = _lint('''
            def read(path):
                with open(path) as handle:
                    return handle.read()
        ''', rule_ids=["FLOW-RELEASE"])
        assert findings == []

    def test_tn_returned_handle_transfers_ownership(self):
        findings = _lint('''
            def open_writer(path):
                handle = open(path)
                return handle
        ''', rule_ids=["FLOW-RELEASE"])
        assert findings == []

    def test_tn_wrapper_methods_are_exempt(self):
        # Delegation wrappers (TracedLock-style) acquire on behalf of a
        # caller; the release lives in the paired method.
        findings = _lint('''
            class TracedLock:
                def acquire(self):
                    self._inner.acquire()

                def __enter__(self):
                    self._inner.acquire()
                    return self
        ''', rule_ids=["FLOW-RELEASE"])
        assert findings == []

    def test_tn_fire_and_forget_thread_not_tracked(self):
        # start() with no join anywhere in the function is a deliberate
        # daemon pattern, not a leak.
        findings = _lint('''
            def spawn(worker):
                worker.start()
        ''', rule_ids=["FLOW-RELEASE"])
        assert findings == []

    def test_tp_started_thread_with_conditional_join(self):
        findings = _lint('''
            def run(worker, flag):
                worker.start()
                if flag:
                    worker.join()
        ''', rule_ids=["FLOW-RELEASE"])
        assert _ids(findings) == ["FLOW-RELEASE"]

    def test_suppression_waives_the_finding(self):
        findings = _lint('''
            def f():
                # held across the callback on purpose; released by close()
                lock.acquire()  # repro: allow[FLOW-RELEASE] handoff to close()
                work()
        ''', rule_ids=["FLOW-RELEASE"])
        assert findings == []


# ----------------------------------------------------------------------
# Registry + CLI filters
# ----------------------------------------------------------------------
class TestSelection:
    def test_flow_pack_registered(self):
        assert set(RULE_PACKS) == {"determinism", "concurrency", "flow"}
        flow_ids = {cls.rule_id for cls in RULE_PACKS["flow"]}
        assert flow_ids == {"FLOW-RELEASE"}

    def test_default_rules_ids_unique(self):
        ids = [r.rule_id for r in default_rules()]
        assert len(ids) == len(set(ids))

    def test_rules_for_unions_rule_and_pack(self):
        rules = rules_for(rule_ids=["DET-OPTIONAL-NONE"], packs=["flow"])
        ids = {r.rule_id for r in rules}
        assert ids == {"DET-OPTIONAL-NONE", "FLOW-RELEASE"}

    def test_rules_for_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            rules_for(packs=["flows"])
        with pytest.raises(ValueError):
            rules_for(rule_ids=["FLOW-NOPE"])

    def test_cli_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent('''
            def f():
                lock.acquire()
                work()
                lock.release()
        '''))
        code = main(["lint", "--rule", "FLOW-RELEASE", "--fail-on", "warning",
                     str(bad)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FLOW-RELEASE" in out
        # a disjoint pack sees nothing wrong with the same file
        code = main(["lint", "--pack", "determinism", "--fail-on", "warning",
                     str(bad)])
        assert code == 0

    def test_cli_unknown_pack_is_an_error(self, capsys):
        assert main(["lint", "--pack", "nope"]) == 2
        assert "unknown pack" in capsys.readouterr().err

    def test_cli_ownership_pack_is_gone(self, capsys):
        assert main(["lint", "--pack", "ownership"]) == 2
        err = capsys.readouterr().err
        assert "unknown pack(s) ['ownership']" in err
        assert "choose from ['concurrency', 'determinism', 'flow']" in err

    def test_cli_json_carries_flow_path_and_output_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent('''
            def f(x):
                lock.acquire()
                if x:
                    return None
                lock.release()
                return x
        '''))
        report = tmp_path / "findings.json"
        code = main(["lint", "--pack", "flow", "--format", "json",
                     "--output", str(report), str(bad)])
        assert code == 1  # default gate fails on any unsuppressed finding
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert finding["rule_id"] == "FLOW-RELEASE"
        assert finding["flow_path"] == [3, 4, 5]
        # --output wrote the same document
        assert json.loads(report.read_text()) == payload

    def test_text_reporter_prints_path_compactly(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent('''
            def f(x):
                lock.acquire()
                if x:
                    return None
                lock.release()
                return x
        '''))
        main(["lint", "--pack", "flow", str(bad)])
        out = capsys.readouterr().out
        assert "(path: L3 -> L4 -> L5)" in out
