"""CFG construction edge cases, pinned by golden dumps under tests/data/.

The golden files are the full ``render_cfg`` output for functions that
exercise the builder's hard paths: ``finally`` duplication when a
``return`` sits inside the ``try``, nested ``with`` blocks, ``while`` /
``else`` with ``break`` bypassing the else clause, and a bare ``raise``
re-raise inside a handler.  Regenerate a golden by running the test with
``REGEN_CFG_GOLDENS=1`` after an intentional builder change, and review
the diff like any other code change.
"""

import ast
import os
import textwrap

import pytest

from repro.analysis.flow import build_cfg, build_cfgs, render_cfg
from repro.analysis.flow.cfg import ENTRY, EXIT, RAISE

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

FIXTURES = {
    "try_finally_return": '''
def f(x):
    resource.acquire()
    try:
        if x:
            return early()
        middle()
    finally:
        resource.release()
    return late()
''',
    "nested_with": '''
def g(a, b):
    with open(a) as fa:
        with open(b) as fb:
            merge(fa, fb)
        tail(fa)
''',
    "while_else": '''
def h(items):
    while items:
        if check(items):
            break
        items = shrink(items)
    else:
        exhausted()
    return items
''',
    "bare_reraise": '''
def k():
    try:
        risky()
    except ValueError:
        note()
        raise
''',
}


def _cfg_for(name):
    fn = ast.parse(textwrap.dedent(FIXTURES[name])).body[0]
    return build_cfg(fn)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_cfg_matches_golden(name):
    rendered = render_cfg(_cfg_for(name)) + "\n"
    golden_path = os.path.join(DATA_DIR, f"cfg_{name}.txt")
    if os.environ.get("REGEN_CFG_GOLDENS"):
        with open(golden_path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    with open(golden_path, "r", encoding="utf-8") as handle:
        golden = handle.read()
    assert rendered == golden, (
        f"CFG for {name} drifted from tests/data/cfg_{name}.txt; if the "
        f"builder change is intentional, regenerate with REGEN_CFG_GOLDENS=1"
    )


def test_return_in_try_flows_through_finally_to_exit():
    cfg = _cfg_for("try_finally_return")
    # The return block's successor must be a finally copy, not EXIT:
    # skipping the finalizer on early return would unwind without cleanup.
    returns = [
        b for b in cfg.blocks.values() if b.label == "return" and b.line == 6
    ]
    assert len(returns) == 1
    (next_edge,) = [
        e for e in cfg.successors(returns[0].block_id) if e.kind == "next"
    ]
    finally_block = cfg.blocks[next_edge.dst]
    assert finally_block.in_finally
    assert finally_block.line == 9  # resource.release()
    # ... and that copy continues to EXIT, completing the return.
    assert any(
        e.dst == EXIT for e in cfg.successors(finally_block.block_id)
    )


def test_finally_copies_are_per_exit_kind():
    cfg = _cfg_for("try_finally_return")
    # Three distinct inlined copies of the finalizer: exception unwind,
    # early return, and normal completion.
    copies = [b for b in cfg.blocks.values() if b.in_finally]
    assert len(copies) == 3
    assert all(b.line == 9 for b in copies)


def test_break_bypasses_while_else():
    cfg = _cfg_for("while_else")
    (brk,) = [b for b in cfg.blocks.values() if b.label == "break"]
    (ret,) = [b for b in cfg.blocks.values() if b.label == "return"]
    (els,) = [b for b in cfg.blocks.values() if b.line == 8]  # exhausted()
    # break jumps straight to the statement after the loop ...
    assert [e.dst for e in cfg.successors(brk.block_id)] == [ret.block_id]
    # ... while the else clause is only entered from the loop head test.
    assert all(e.src != brk.block_id for e in cfg.predecessors(els.block_id))


def test_bare_reraise_routes_to_raise_block():
    cfg = _cfg_for("bare_reraise")
    (reraise,) = [b for b in cfg.blocks.values() if b.label == "raise"
                  and not b.synthetic]
    assert [(e.dst, e.kind) for e in cfg.successors(reraise.block_id)] == [
        (RAISE, "exc")
    ]
    # the handler head also keeps unwinding when the type doesn't match
    (head,) = [b for b in cfg.blocks.values() if b.label.startswith("except")]
    assert any(
        e.dst == RAISE and e.kind == "false"
        for e in cfg.successors(head.block_id)
    )


def test_every_reachable_block_reaches_an_exit():
    # No dangling control flow: from any reachable block there is a path
    # to EXIT or RAISE in every fixture.
    for name in FIXTURES:
        cfg = _cfg_for(name)
        reachable = cfg.reachable()
        for bid in reachable:
            if bid in (ENTRY, EXIT, RAISE):
                continue
            seen = {bid}
            stack = [bid]
            hit_exit = False
            while stack and not hit_exit:
                for edge in cfg.successors(stack.pop()):
                    if edge.dst in (EXIT, RAISE):
                        hit_exit = True
                        break
                    if edge.dst not in seen:
                        seen.add(edge.dst)
                        stack.append(edge.dst)
            assert hit_exit, f"{name}: block {bid} cannot reach an exit"


def test_build_cfgs_flattens_qualnames():
    tree = ast.parse(textwrap.dedent('''
        class Outer:
            def method(self):
                def inner():
                    pass
                return inner

        def top():
            pass
    '''))
    cfgs = build_cfgs(tree, "mod")
    assert set(cfgs) == {
        "mod.Outer.method",
        "mod.Outer.method.inner",
        "mod.top",
    }


def test_constant_tests_drop_impossible_edges():
    src = '''
def loop():
    while True:
        step()
    never()
'''
    fn = ast.parse(textwrap.dedent(src)).body[0]
    cfg = build_cfg(fn)
    # while True has no false edge: nothing leads to never()
    (never,) = [b for b in cfg.blocks.values() if b.line == 5]
    assert cfg.predecessors(never.block_id) == []
