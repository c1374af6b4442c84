"""Fixture tests for the determinism rule pack (DET-OPTIONAL-NONE).

Each known-bad snippet fires its rule exactly once; the matching known-good
snippet stays silent.
"""

import textwrap

import pytest

from repro.analysis import lint_source


def unsuppressed(source, module):
    return [f for f in lint_source(source, module=module) if not f.suppressed]


def only_rule(source, rule_id, module):
    findings = unsuppressed(source, module=module)
    assert [f.rule_id for f in findings] == [rule_id], findings
    return findings[0]


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
