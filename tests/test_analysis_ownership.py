"""Fixture tests for the ownership & aliasing rule pack (BUF-* and
PERF-PICKLE-PAYLOAD).

Each rule gets true positives and true negatives run through
``lint_source`` exactly like the real engine runs files — including the
interprocedural cases (a view leaking *through* a helper call, a
constructor absorbing a caller's array) and the ``.copy()``-kills-alias
strong update the dataflow layer exists for.
"""

import textwrap

import pytest

from repro.analysis.engine import lint_source
from repro.analysis.rules import (
    OPT_IN_PACKS,
    RULE_PACKS,
    default_rules,
    rules_for,
)

MODULE = "repro.runtime.fixture"


def _lint(source, module=MODULE, rule_ids=None, packs=("ownership",)):
    findings = lint_source(
        textwrap.dedent(source),
        module=module,
        rules=rules_for(rule_ids=rule_ids, packs=None if rule_ids else packs),
    )
    return [f for f in findings if not f.suppressed]


def _ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# BUF-ALIAS-STORE
# ----------------------------------------------------------------------
class TestAliasStore:
    def test_tp_constructor_stores_callers_array(self):
        findings = _lint('''
            class Store:
                def __init__(self, weights):
                    self._weights = weights
        ''', rule_ids=["BUF-ALIAS-STORE"])
        assert _ids(findings) == ["BUF-ALIAS-STORE"]
        assert "'weights'" in findings[0].message

    def test_tp_keyed_store_into_self_container(self):
        findings = _lint('''
            class Store:
                def init(self, key, value_array):
                    self._arrays[key] = value_array
        ''', rule_ids=["BUF-ALIAS-STORE"])
        assert _ids(findings) == ["BUF-ALIAS-STORE"]

    def test_tp_append_into_self_container(self):
        findings = _lint('''
            class Log:
                def record(self, grad):
                    self._grads.append(grad)
        ''', rule_ids=["BUF-ALIAS-STORE"])
        assert _ids(findings) == ["BUF-ALIAS-STORE"]

    def test_tp_absorbing_constructor_called_indirectly(self):
        # Holder.__init__ takes the array by reference; S constructing a
        # Holder from its own parameter therefore absorbs it too
        findings = _lint('''
            class Holder:
                def __init__(self, buf_array):
                    self._buf = buf_array

            class S:
                def __init__(self, grad):
                    self.held = Holder(grad)
        ''', rule_ids=["BUF-ALIAS-STORE"])
        assert _ids(findings) == ["BUF-ALIAS-STORE", "BUF-ALIAS-STORE"]
        assert any("'grad'" in f.message for f in findings)

    def test_tn_explicit_copy_on_store(self):
        findings = _lint('''
            import numpy as np

            class Store:
                def __init__(self, weights):
                    self._weights = np.array(weights, copy=True)

                def init(self, key, value_array):
                    self._arrays[key] = value_array.copy()
        ''', rule_ids=["BUF-ALIAS-STORE"])
        assert findings == []


# ----------------------------------------------------------------------
# PERF-PICKLE-PAYLOAD
# ----------------------------------------------------------------------
class TestPicklePayload:
    def test_tp_array_on_mp_queue_is_warning_by_default(self):
        findings = _lint('''
            import multiprocessing

            def f(queue, gradient):
                queue.put(("push", gradient))
        ''', rule_ids=["PERF-PICKLE-PAYLOAD"])
        assert _ids(findings) == ["PERF-PICKLE-PAYLOAD"]
        assert findings[0].severity.name == "WARNING"
        assert "pickles an" in findings[0].message

    def test_tn_without_multiprocessing_import(self):
        findings = _lint('''
            def f(queue, gradient):
                queue.put(("push", gradient))
        ''', rule_ids=["PERF-PICKLE-PAYLOAD"])
        assert findings == []

    def test_tn_control_message_payload(self):
        findings = _lint('''
            import multiprocessing

            def f(queue):
                queue.put(("stop", 1))
        ''', rule_ids=["PERF-PICKLE-PAYLOAD"])
        assert findings == []


# ----------------------------------------------------------------------
# Pack registration
# ----------------------------------------------------------------------
class TestPackRegistration:
    def test_ownership_pack_registered_with_four_rules(self):
        assert "ownership" in RULE_PACKS
        ids = sorted(cls.rule_id for cls in RULE_PACKS["ownership"])
        assert ids == ["BUF-ALIAS-STORE", "PERF-PICKLE-PAYLOAD"]

    def test_ownership_is_opt_in(self):
        assert "ownership" in OPT_IN_PACKS
        default_ids = {r.rule_id for r in default_rules()}
        assert not default_ids & {c.rule_id for c in RULE_PACKS["ownership"]}

    def test_rules_for_selects_the_pack(self):
        ids = {r.rule_id for r in rules_for(packs=["ownership"])}
        assert ids == {cls.rule_id for cls in RULE_PACKS["ownership"]}

    def test_unknown_pack_still_rejected(self):
        with pytest.raises(ValueError):
            rules_for(packs=["ownersip"])
