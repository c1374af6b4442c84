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
# BUF-MUT-BORROWED
# ----------------------------------------------------------------------
class TestMutateBorrowed:
    def test_tp_augassign_on_parameter(self):
        findings = _lint('''
            def scale(grad, alpha):
                grad *= alpha
                return None
        ''', rule_ids=["BUF-MUT-BORROWED"])
        assert _ids(findings) == ["BUF-MUT-BORROWED"]
        assert "'grad'" in findings[0].message

    def test_tp_setitem_on_parameter_slice(self):
        findings = _lint('''
            def zero_first(params):
                params["w"][...] = 0.0
        ''', rule_ids=["BUF-MUT-BORROWED"])
        assert _ids(findings) == ["BUF-MUT-BORROWED"]

    def test_tp_out_keyword_targets_parameter(self):
        findings = _lint('''
            import numpy as np

            def accumulate(total_array, delta):
                np.add(total_array, delta, out=total_array)
        ''', rule_ids=["BUF-MUT-BORROWED"])
        assert _ids(findings) == ["BUF-MUT-BORROWED"]
        assert "out=" in findings[0].message

    def test_tp_view_through_call_still_borrowed(self):
        # the alias is created inside a helper; only the interprocedural
        # summary ties `flat` back to the caller's argument
        findings = _lint('''
            def flatten(a_array):
                return a_array.reshape(-1)

            def bump(grad):
                flat = flatten(grad)
                flat += 1.0
        ''', rule_ids=["BUF-MUT-BORROWED"])
        assert _ids(findings) == ["BUF-MUT-BORROWED"]
        assert "'grad'" in findings[0].message

    def test_tn_copy_kills_the_alias(self):
        findings = _lint('''
            def scale(grad, alpha):
                grad = grad.copy()
                grad *= alpha
                return grad
        ''', rule_ids=["BUF-MUT-BORROWED"])
        assert findings == []

    def test_tn_documented_inplace_contract(self):
        findings = _lint('''
            def apply(params, grad):
                """Apply the update, mutating ``params`` in place."""
                params["w"] -= grad["w"]
        ''', rule_ids=["BUF-MUT-BORROWED"])
        assert findings == []

    def test_tn_gather_indexing_owns_its_result(self):
        # fancy indexing materializes a fresh array — mutating it is fine
        findings = _lint('''
            def rows(params, row_ids):
                picked = params[row_ids]
                picked += 1.0
                return picked
        ''', rule_ids=["BUF-MUT-BORROWED"])
        assert findings == []

    def test_suppression_waives_with_justification(self):
        findings = _lint('''
            def scale(grad):
                grad *= 2  # repro: allow[BUF-MUT-BORROWED] caller passes a scratch buffer by contract
        ''', rule_ids=["BUF-MUT-BORROWED"])
        assert findings == []


# ----------------------------------------------------------------------
# BUF-RETURN-VIEW
# ----------------------------------------------------------------------
class TestReturnView:
    def test_tp_public_method_returns_internal_array(self):
        findings = _lint('''
            class Store:
                def current(self):
                    return self._weights
        ''', rule_ids=["BUF-RETURN-VIEW"])
        assert _ids(findings) == ["BUF-RETURN-VIEW"]
        assert "'_weights'" in findings[0].message

    def test_tp_witness_path_through_local(self):
        findings = _lint('''
            class Store:
                def current(self):
                    w = self._weights
                    w = w.reshape(-1)
                    return w
        ''', rule_ids=["BUF-RETURN-VIEW"])
        assert _ids(findings) == ["BUF-RETURN-VIEW"]
        assert findings[0].flow_path  # alias intro line -> return line
        assert findings[0].flow_path[0] < findings[0].flow_path[-1]

    def test_tn_returning_a_copy(self):
        findings = _lint('''
            class Store:
                def current(self):
                    return self._weights.copy()
        ''', rule_ids=["BUF-RETURN-VIEW"])
        assert findings == []

    def test_tn_documented_view_contract(self):
        findings = _lint('''
            class Store:
                def current(self):
                    """Live view of the weights — read-only by convention."""
                    return self._weights
        ''', rule_ids=["BUF-RETURN-VIEW"])
        assert findings == []

    def test_tn_private_helpers_may_share_views(self):
        findings = _lint('''
            class Store:
                def _peek(self):
                    return self._weights
        ''', rule_ids=["BUF-RETURN-VIEW"])
        assert findings == []


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
# BUF-SHM-UNFENCED
# ----------------------------------------------------------------------
class TestShmUnfenced:
    def test_tp_raw_buffer_write_outside_fence(self):
        findings = _lint('''
            from repro.ps.shm import ShmArraySegment

            def publish(value):
                seg = ShmArraySegment.create("w", value)
                seg.array[...] = value
        ''', rule_ids=["BUF-SHM-UNFENCED"])
        assert _ids(findings) == ["BUF-SHM-UNFENCED"]
        assert findings[0].severity.value == "error"

    def test_tp_aliased_view_escapes_the_fence(self):
        # the view is taken inside the fence but written after it closed
        findings = _lint('''
            from repro.ps.shm import ShmArraySegment

            def publish(store, value, version):
                seg = ShmArraySegment.create("w", value)
                with store.write_fence(version):
                    live = seg.array
                live[...] = value
        ''', rule_ids=["BUF-SHM-UNFENCED"])
        assert "BUF-SHM-UNFENCED" in _ids(findings)

    def test_tn_write_inside_fence(self):
        findings = _lint('''
            from repro.ps.shm import ShmArraySegment

            def publish(store, value, version):
                seg = ShmArraySegment.create("w", value)
                with store.write_fence(version):
                    seg.array[...] = value
        ''', rule_ids=["BUF-SHM-UNFENCED"])
        assert findings == []

    def test_tn_fence_module_itself_is_exempt(self):
        findings = _lint('''
            class ShmArraySegment:
                def close(self):
                    self._shm.buf.release()
        ''', module="repro.ps.shm", rule_ids=["BUF-SHM-UNFENCED"])
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
        assert ids == [
            "BUF-ALIAS-STORE",
            "BUF-MUT-BORROWED",
            "BUF-RETURN-VIEW",
            "BUF-SHM-UNFENCED",
            "PERF-PICKLE-PAYLOAD",
        ]

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
