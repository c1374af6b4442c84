"""Fixture tests for the FLOW-* rule pack.

Each rule gets true positives (including at least one exception-edge /
``try``/``finally`` case), true negatives, and a suppression check, all
run through ``lint_source`` exactly like the real engine runs files.
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
# FLOW-BLOCKING
# ----------------------------------------------------------------------
class TestFlowBlocking:
    def test_tp_sleep_reachable_from_async_def_transitively(self):
        findings = _lint('''
            import time

            async def handler():
                helper()

            def helper():
                time.sleep(0.1)
        ''', rule_ids=["FLOW-BLOCKING"])
        assert _ids(findings) == ["FLOW-BLOCKING"]
        assert "time.sleep" in findings[0].message
        # call chain: handler's call line, then the blocking line
        assert findings[0].flow_path == (5, 8)

    def test_tp_untimed_queue_get_in_tap_callback(self):
        findings = _lint('''
            def _tap(event):
                payload = event_queue.get()

            def setup(sim):
                sim.install_tap(_tap)
        ''', rule_ids=["FLOW-BLOCKING"])
        assert _ids(findings) == ["FLOW-BLOCKING"]
        assert "tap registered" in findings[0].message

    def test_tp_zero_arg_join_in_async(self):
        findings = _lint('''
            async def shutdown(worker):
                worker.join()
        ''', rule_ids=["FLOW-BLOCKING"])
        assert _ids(findings) == ["FLOW-BLOCKING"]

    def test_tn_sleep_in_plain_sync_function(self):
        findings = _lint('''
            import time

            def pacer():
                time.sleep(0.1)
        ''', rule_ids=["FLOW-BLOCKING"])
        assert findings == []

    def test_tn_timed_variants_are_fine(self):
        findings = _lint('''
            async def drain(q, worker, ev):
                q.request_queue.get(timeout=0.5)
                worker.join(timeout=1.0)
                ev.wait(timeout=2.0)
                ",".join(["a", "b"])
        ''', rule_ids=["FLOW-BLOCKING"])
        assert findings == []


# ----------------------------------------------------------------------
# FLOW-EXC
# ----------------------------------------------------------------------
SCHED = "repro.core.scheduler"


class TestFlowExc:
    def test_tp_undeclared_raise_in_root(self):
        findings = _lint('''
            class SpecSyncScheduler:
                def handle_notify(self, worker_id):
                    if worker_id < 0:
                        raise ValueError("bad id")
        ''', module=SCHED, rule_ids=["FLOW-EXC"])
        assert _ids(findings) == ["FLOW-EXC"]
        assert "ValueError" in findings[0].message

    def test_tp_raise_in_helper_reached_from_root(self):
        findings = _lint('''
            class SpecSyncScheduler:
                def _check_resync(self, worker_id):
                    self._send(worker_id)

                def _send(self, worker_id):
                    raise RuntimeError("socket gone")
        ''', module=SCHED, rule_ids=["FLOW-EXC"])
        assert _ids(findings) == ["FLOW-EXC"]
        # chain: call site in _check_resync, then the raise line
        assert findings[0].flow_path == (4, 7)

    def test_tn_declared_in_docstring_raises_section(self):
        findings = _lint('''
            class SpecSyncScheduler:
                def handle_notify(self, worker_id):
                    """Handle one notify.

                    Raises:
                        ValueError: when the id is out of range.
                    """
                    if worker_id < 0:
                        raise ValueError("bad id")
        ''', module=SCHED, rule_ids=["FLOW-EXC"])
        assert findings == []

    def test_tn_caught_at_the_call_site(self):
        findings = _lint('''
            class SpecSyncScheduler:
                def handle_notify(self, worker_id):
                    try:
                        self._send(worker_id)
                    except RuntimeError:
                        self._fallback()

                def _send(self, worker_id):
                    raise RuntimeError("socket gone")

                def _fallback(self):
                    pass
        ''', module=SCHED, rule_ids=["FLOW-EXC"])
        assert findings == []

    def test_tn_out_of_scope_module_ignored(self):
        findings = _lint('''
            def handle_notify(worker_id):
                raise ValueError("not the re-sync path")
        ''', module="repro.utils.misc", rule_ids=["FLOW-EXC"])
        assert findings == []


# ----------------------------------------------------------------------
# FLOW-DEAD
# ----------------------------------------------------------------------
class TestFlowDead:
    def test_tp_code_after_return(self):
        findings = _lint('''
            def f(x):
                return x
                cleanup()
        ''', rule_ids=["FLOW-DEAD"])
        assert _ids(findings) == ["FLOW-DEAD"]
        assert "unreachable" in findings[0].message

    def test_tp_constant_false_branch(self):
        findings = _lint('''
            def f(x):
                if False:
                    impossible()
                return x
        ''', rule_ids=["FLOW-DEAD"])
        assert _ids(findings) == ["FLOW-DEAD"]

    def test_tp_duplicate_dispatch_arm(self):
        findings = _lint('''
            from repro.core.messages import MessageKind

            def dispatch(kind):
                if kind == MessageKind.PUSH:
                    return 1
                elif kind == MessageKind.PUSH:
                    return 2
        ''', rule_ids=["FLOW-DEAD"])
        assert _ids(findings) == ["FLOW-DEAD"]
        assert "already handled" in findings[0].message
        assert findings[0].flow_path == (5, 7)

    def test_tp_arm_outside_model_alphabet(self):
        findings = _lint('''
            from repro.core.messages import MessageKind

            MODEL_ALPHABET = (MessageKind.PUSH,)

            def dispatch(kind):
                if kind == MessageKind.PUSH:
                    return 1
                elif kind == MessageKind.SHUTDOWN:
                    return 2
        ''', rule_ids=["FLOW-DEAD"])
        assert _ids(findings) == ["FLOW-DEAD"]
        assert "MODEL_ALPHABET" in findings[0].message

    def test_tn_reachable_branches_and_alphabet_covered(self):
        findings = _lint('''
            from repro.core.messages import MessageKind

            MODEL_ALPHABET = (MessageKind.PUSH, MessageKind.NOTIFY)

            def dispatch(kind, x):
                if x:
                    return None
                if kind == MessageKind.PUSH:
                    return 1
                elif kind == MessageKind.NOTIFY:
                    return 2
        ''', rule_ids=["FLOW-DEAD"])
        assert findings == []

    def test_tn_no_alphabet_in_batch_skips_alphabet_check(self):
        # Linting a subset of the tree must not false-positive on kinds
        # the (absent) model file would have vouched for.
        findings = _lint('''
            from repro.core.messages import MessageKind

            def dispatch(kind):
                if kind == MessageKind.ANYTHING:
                    return 1
        ''', rule_ids=["FLOW-DEAD"])
        assert findings == []

    def test_tn_try_finally_blocks_all_reachable(self):
        # finally duplication must not orphan blocks and self-report.
        findings = _lint('''
            def f(x):
                try:
                    if x:
                        return early()
                    work()
                finally:
                    cleanup()
                return late()
        ''', rule_ids=["FLOW-DEAD"])
        assert findings == []


# ----------------------------------------------------------------------
# Registry + CLI filters
# ----------------------------------------------------------------------
class TestSelection:
    def test_flow_pack_registered(self):
        assert set(RULE_PACKS) == {
            "determinism", "protocol", "concurrency", "flow", "ownership",
        }
        flow_ids = {cls.rule_id for cls in RULE_PACKS["flow"]}
        assert flow_ids == {
            "FLOW-RELEASE", "FLOW-BLOCKING", "FLOW-EXC", "FLOW-DEAD",
        }

    def test_default_rules_ids_unique(self):
        ids = [r.rule_id for r in default_rules()]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 18

    def test_rules_for_unions_rule_and_pack(self):
        rules = rules_for(rule_ids=["DET-WALLCLOCK"], packs=["flow"])
        ids = {r.rule_id for r in rules}
        assert "DET-WALLCLOCK" in ids
        assert "FLOW-RELEASE" in ids
        assert len(ids) == 5

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
