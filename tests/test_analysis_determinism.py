"""Fixture tests for the determinism rule pack.

Each known-bad snippet fires its rule exactly once; the matching known-good
snippet stays silent; a suppression comment downgrades the bad one.
"""

import textwrap

import pytest

from repro.analysis import lint_source

ZONE = "repro.events.fixture"


def unsuppressed(source, module=ZONE):
    return [f for f in lint_source(source, module=module) if not f.suppressed]


def only_rule(source, rule_id, module=ZONE):
    findings = unsuppressed(source, module=module)
    assert [f.rule_id for f in findings] == [rule_id], findings
    return findings[0]


# ----------------------------------------------------------------------
# DET-SET-ITER
# ----------------------------------------------------------------------
def test_set_iteration_fires_once():
    finding = only_rule(
        "def f(xs):\n    for x in set(xs):\n        print(x)\n",
        "DET-SET-ITER",
    )
    assert finding.line == 2


def test_set_literal_and_comprehension_iteration_fire():
    only_rule("def f():\n    for x in {1, 2}:\n        pass\n", "DET-SET-ITER")
    only_rule(
        "def f(xs):\n    return [x for x in {x for x in xs}]\n",
        "DET-SET-ITER",
    )


def test_set_iteration_through_list_launder_fires():
    only_rule(
        "def f(xs):\n    for x in list(set(xs)):\n        pass\n",
        "DET-SET-ITER",
    )


def test_sorted_set_iteration_is_clean():
    assert unsuppressed(
        "def f(xs):\n    for x in sorted(set(xs)):\n        pass\n"
    ) == []


def test_set_membership_test_is_clean():
    assert unsuppressed(
        "def f(xs, y):\n    return y in set(xs)\n"
    ) == []


@pytest.mark.parametrize(
    "package",
    ["repro.core.x", "repro.sync.x", "repro.ps.x", "repro.netsim.x",
     "repro.obs.x"],
)
def test_set_iteration_covers_every_zone_package(package):
    only_rule(
        "def f(xs):\n    for x in set(xs):\n        pass\n",
        "DET-SET-ITER",
        module=package,
    )


def test_set_iteration_exempts_runtime_and_ml():
    bad = "def f(xs):\n    for x in set(xs):\n        pass\n"
    assert unsuppressed(bad, module="repro.runtime.threaded") == []
    assert unsuppressed(bad, module="repro.ml.models.base") == []


# ----------------------------------------------------------------------
# DET-OPTIONAL-NONE (repo-wide)
# ----------------------------------------------------------------------
def test_none_default_is_clean():
    assert unsuppressed(
        "def f(xs=None):\n    return xs or []\n",
        module="repro.utils.fixture",
    ) == []


def test_implicit_optional_parameter_fires_once():
    finding = only_rule(
        "def f(x: int = None):\n    return x\n",
        "DET-OPTIONAL-NONE",
        module="repro.metrics.fixture",
    )
    assert "'x'" in finding.message


def test_implicit_optional_annotated_attribute_fires():
    source = textwrap.dedent(
        """\
        class C:
            def __init__(self):
                self.engine: "Engine" = None
        """
    )
    only_rule(source, "DET-OPTIONAL-NONE", module="repro.metrics.fixture")


@pytest.mark.parametrize(
    "annotation",
    [
        "Optional[int]",
        "typing.Optional[int]",
        '"Optional[int]"',
        "Union[int, None]",
        "Any",
    ],
)
def test_optional_annotations_are_clean(annotation):
    source = f"def f(x: {annotation} = None):\n    return x\n"
    assert unsuppressed(source, module="repro.metrics.fixture") == []


def test_pipe_none_annotation_is_clean():
    assert unsuppressed(
        "def f(x: int | None = None):\n    return x\n",
        module="repro.metrics.fixture",
    ) == []
