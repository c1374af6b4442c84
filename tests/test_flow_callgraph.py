"""Call resolution: name binding, methods, imports, nested defs."""

import ast
import textwrap

from repro.analysis.astutil import walk_own_scope
from repro.analysis.engine import module_from_source
from repro.analysis.flow import build_call_graph


def _module(source, name):
    return module_from_source(
        textwrap.dedent(source), module=name, path=f"{name.replace('.', '/')}.py"
    )


def _edges(graph, caller):
    """(callee, line) of every call in ``caller``'s own scope that resolves."""
    fi = graph.functions[caller]
    resolved = (
        (graph.resolve_call(fi, node), node.lineno)
        for node in walk_own_scope(fi.node)
        if isinstance(node, ast.Call)
    )
    return [(callee, line) for callee, line in resolved if callee is not None]


def test_module_function_and_method_resolution():
    mod = _module('''
        class Base:
            def ping(self):
                helper()

        class Worker(Base):
            def run(self):
                self.ping()
                Worker.step(self)

            def step(self):
                pass

        def helper():
            w = Worker()
            w.run()
    ''', "demo")
    graph = build_call_graph([mod])
    assert _edges(graph, "demo.Worker.run") == [
        ("demo.Base.ping", 8),   # self.m -> base-class lookup
        ("demo.Worker.step", 9),  # ClassName.method
    ]
    # local instance inference: w = Worker(); w.run()
    assert ("demo.Worker.run", 16) in _edges(graph, "demo.helper")
    # method -> module function by bare name
    assert _edges(graph, "demo.Base.ping") == [("demo.helper", 4)]


def test_cross_module_resolution_via_imports():
    util = _module('''
        def tick():
            pass

        class Clock:
            def now(self):
                pass
    ''', "pkg.util")
    main = _module('''
        import pkg.util
        from pkg.util import tick, Clock

        def a():
            tick()

        def b():
            pkg.util.tick()

        def c():
            clock = Clock()
            clock.now()
    ''', "pkg.main")
    graph = build_call_graph([util, main])
    assert _edges(graph, "pkg.main.a") == [("pkg.util.tick", 6)]
    assert _edges(graph, "pkg.main.b") == [("pkg.util.tick", 9)]
    assert ("pkg.util.Clock.now", 13) in _edges(graph, "pkg.main.c")


def test_nested_function_edges():
    mod = _module('''
        def outer():
            def inner():
                leaf()
            inner()

        def leaf():
            pass
    ''', "demo")
    graph = build_call_graph([mod])
    assert _edges(graph, "demo.outer") == [("demo.outer.inner", 5)]
    assert _edges(graph, "demo.outer.inner") == [("demo.leaf", 4)]


def test_recursion_does_not_loop():
    mod = _module('''
        def even(n):
            return n == 0 or odd(n - 1)

        def odd(n):
            return n != 0 and even(n - 1)
    ''', "demo")
    graph = build_call_graph([mod])
    assert _edges(graph, "demo.even") == [("demo.odd", 3)]
    assert _edges(graph, "demo.odd") == [("demo.even", 6)]


def test_dynamic_calls_yield_no_edges():
    mod = _module('''
        def f(cb, table):
            cb()
            table["k"]()
            getattr(obj, "m")()
    ''', "demo")
    graph = build_call_graph([mod])
    assert _edges(graph, "demo.f") == []
