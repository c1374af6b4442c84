"""Fixture tests for the concurrency rule pack.

The CONC-* rules police ``repro.runtime`` only; PERF-PICKLE-PAYLOAD
fires in any module that imports ``multiprocessing``.
"""

import textwrap

from repro.analysis import lint_source

ZONE = "repro.runtime.fixture"


def unsuppressed(source, module=ZONE, rule_prefix="CONC-"):
    return [
        f
        for f in lint_source(source, module=module)
        if not f.suppressed and f.rule_id.startswith(rule_prefix)
    ]


# ----------------------------------------------------------------------
# CONC-LOCK-ORDER
# ----------------------------------------------------------------------
OPPOSITE_ORDERS = textwrap.dedent(
    """\
    import threading

    class Pair:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def forward(self):
            with self._a:
                with self._b:
                    pass

        def backward(self):
            with self._b:
                with self._a:
                    pass
    """
)


def test_lock_order_cycle_fires_once():
    findings = [
        f for f in unsuppressed(OPPOSITE_ORDERS) if f.rule_id == "CONC-LOCK-ORDER"
    ]
    assert len(findings) == 1
    assert "cycle" in findings[0].message
    assert "._a" in findings[0].message and "._b" in findings[0].message


def test_consistent_lock_order_is_clean():
    consistent = OPPOSITE_ORDERS.replace(
        "with self._b:\n            with self._a:",
        "with self._a:\n            with self._b:",
    )
    assert [
        f for f in unsuppressed(consistent) if f.rule_id == "CONC-LOCK-ORDER"
    ] == []


def test_self_deadlock_on_plain_lock_fires():
    source = textwrap.dedent(
        """\
        import threading

        class Reenter:
            def __init__(self):
                self._lock = threading.Lock()

            def outer(self):
                with self._lock:
                    with self._lock:
                        pass
        """
    )
    findings = [
        f for f in unsuppressed(source) if f.rule_id == "CONC-LOCK-ORDER"
    ]
    assert len(findings) == 1
    assert "self-deadlock" in findings[0].message


def test_reentrant_lock_reacquire_is_clean():
    source = textwrap.dedent(
        """\
        import threading

        class Reenter:
            def __init__(self):
                self._lock = threading.RLock()

            def outer(self):
                with self._lock:
                    with self._lock:
                        pass
        """
    )
    assert [
        f for f in unsuppressed(source) if f.rule_id == "CONC-LOCK-ORDER"
    ] == []


def test_cycle_through_method_call_is_detected():
    source = textwrap.dedent(
        """\
        import threading

        class Indirect:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    self.helper()

            def helper(self):
                with self._b:
                    pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
        """
    )
    findings = [
        f for f in unsuppressed(source) if f.rule_id == "CONC-LOCK-ORDER"
    ]
    assert len(findings) == 1


def test_lock_order_outside_runtime_is_exempt():
    assert unsuppressed(OPPOSITE_ORDERS, module="repro.core.fixture") == []


# ----------------------------------------------------------------------
# CONC-THREAD-DAEMON
# ----------------------------------------------------------------------
def test_daemonless_unjoined_thread_fires_once():
    source = textwrap.dedent(
        """\
        import threading

        def launch(fn):
            worker = threading.Thread(target=fn)
            worker.start()
        """
    )
    findings = [
        f for f in unsuppressed(source) if f.rule_id == "CONC-THREAD-DAEMON"
    ]
    assert len(findings) == 1


def test_daemon_kwarg_attribute_or_join_are_clean():
    for body in (
        "    worker = threading.Thread(target=fn, daemon=True)\n    worker.start()",
        "    worker = threading.Thread(target=fn)\n    worker.daemon = True\n    worker.start()",
        "    worker = threading.Thread(target=fn)\n    worker.start()\n    worker.join(timeout=5.0)",
    ):
        source = f"import threading\n\ndef launch(fn):\n{body}\n"
        assert [
            f for f in unsuppressed(source) if f.rule_id == "CONC-THREAD-DAEMON"
        ] == [], body


def test_thread_subclass_without_daemon_fires():
    source = textwrap.dedent(
        """\
        import threading

        class Worker(threading.Thread):
            def __init__(self):
                super().__init__(name="w")
        """
    )
    findings = [
        f for f in unsuppressed(source) if f.rule_id == "CONC-THREAD-DAEMON"
    ]
    assert len(findings) == 1
    assert "Worker" in findings[0].message


def test_thread_subclass_with_daemon_is_clean():
    source = textwrap.dedent(
        """\
        import threading

        class Worker(threading.Thread):
            def __init__(self):
                super().__init__(name="w", daemon=True)
        """
    )
    assert [
        f for f in unsuppressed(source) if f.rule_id == "CONC-THREAD-DAEMON"
    ] == []


# ----------------------------------------------------------------------
# CONC-QUEUE-TIMEOUT
# ----------------------------------------------------------------------
def test_blocking_get_without_timeout_fires_once():
    source = textwrap.dedent(
        """\
        def drain(work_queue):
            return work_queue.get()
        """
    )
    findings = [
        f for f in unsuppressed(source) if f.rule_id == "CONC-QUEUE-TIMEOUT"
    ]
    assert len(findings) == 1


def test_get_with_timeout_or_nonblocking_is_clean():
    source = textwrap.dedent(
        """\
        def drain(work_queue):
            a = work_queue.get(timeout=0.1)
            b = work_queue.get(block=False)
            c = work_queue.get_nowait()
            return a, b, c
        """
    )
    assert [
        f for f in unsuppressed(source) if f.rule_id == "CONC-QUEUE-TIMEOUT"
    ] == []


def test_put_to_bounded_queue_fires_but_local_unbounded_is_exempt():
    bounded = textwrap.dedent(
        """\
        import queue

        def produce(item):
            work_queue = queue.Queue(maxsize=4)
            work_queue.put(item)
        """
    )
    assert len(
        [f for f in unsuppressed(bounded) if f.rule_id == "CONC-QUEUE-TIMEOUT"]
    ) == 1

    unbounded = bounded.replace("queue.Queue(maxsize=4)", "queue.Queue()")
    assert [
        f for f in unsuppressed(unbounded) if f.rule_id == "CONC-QUEUE-TIMEOUT"
    ] == []


def test_queue_rule_outside_runtime_is_exempt():
    source = "def drain(work_queue):\n    return work_queue.get()\n"
    assert unsuppressed(source, module="repro.metrics.fixture") == []


# ----------------------------------------------------------------------
# CONC-UNLOCKED-STATE
# ----------------------------------------------------------------------
def test_guarded_attribute_outside_lock_fires_once():
    source = textwrap.dedent(
        """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                self._count += 1
        """
    )
    findings = [
        f for f in unsuppressed(source) if f.rule_id == "CONC-UNLOCKED-STATE"
    ]
    assert len(findings) == 1
    assert "_count" in findings[0].message


def test_guarded_attribute_inside_lock_is_clean():
    source = textwrap.dedent(
        """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1
        """
    )
    assert [
        f for f in unsuppressed(source) if f.rule_id == "CONC-UNLOCKED-STATE"
    ] == []


def test_public_attributes_and_lockless_classes_are_exempt():
    source = textwrap.dedent(
        """\
        import threading

        class NoLock:
            def __init__(self):
                self._count = 0

            def bump(self):
                self._count += 1

        class PublicOnly:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                self.count += 1
        """
    )
    assert [
        f for f in unsuppressed(source) if f.rule_id == "CONC-UNLOCKED-STATE"
    ] == []


# ----------------------------------------------------------------------
# PERF-PICKLE-PAYLOAD
# ----------------------------------------------------------------------
def test_array_payload_on_mp_queue_fires_once():
    source = textwrap.dedent(
        """\
        import multiprocessing

        def f(queue, gradient):
            queue.put(("push", gradient))
        """
    )
    findings = unsuppressed(source, module="repro.ps.fixture", rule_prefix="PERF-")
    assert [f.rule_id for f in findings] == ["PERF-PICKLE-PAYLOAD"]
    assert findings[0].severity.name == "WARNING"
    assert "pickles an" in findings[0].message


def test_payload_rule_needs_a_multiprocessing_import():
    source = 'def f(queue, gradient):\n    queue.put(("push", gradient))\n'
    assert unsuppressed(source, rule_prefix="PERF-") == []


def test_control_message_payload_is_clean():
    source = textwrap.dedent(
        """\
        import multiprocessing

        def f(queue):
            queue.put(("stop", 1))
        """
    )
    assert unsuppressed(source, rule_prefix="PERF-") == []


# ----------------------------------------------------------------------
# The real runtime modules pass the pack (with recorded suppressions)
# ----------------------------------------------------------------------
def test_real_runtime_modules_are_clean():
    import repro.runtime.multiprocess as multiprocess
    import repro.runtime.threaded as threaded
    from repro.analysis import LintEngine
    from repro.analysis.engine import load_module

    modules = [load_module(m.__file__) for m in (threaded, multiprocess)]
    findings = [
        f
        for f in LintEngine().lint_modules(modules)
        if f.rule_id.startswith("CONC-") and not f.suppressed
    ]
    assert findings == []
