"""Documentation contract: every public item carries a docstring."""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.analysis.gate",
    "repro.analysis.model",
    "repro.analysis.model.checker",
    "repro.analysis.model.conformance",
    "repro.analysis.model.harness",
    "repro.analysis.model.mutations",
    "repro.analysis.model.specsync",
    "repro.analysis.replay",
    "repro.cluster.compute",
    "repro.cluster.instances",
    "repro.cluster.scenarios",
    "repro.cluster.spec",
    "repro.core.hyperparams",
    "repro.core.scheduler",
    "repro.core.specsync",
    "repro.core.tuning",
    "repro.events.event",
    "repro.events.simulator",
    "repro.experiments.common",
    "repro.experiments.fig8_effectiveness",
    "repro.metrics.convergence",
    "repro.metrics.curves",
    "repro.metrics.pap",
    "repro.metrics.serialize",
    "repro.metrics.staleness",
    "repro.metrics.traces",
    "repro.ml.models.base",
    "repro.ml.optim",
    "repro.ml.params",
    "repro.netsim.ledger",
    "repro.netsim.messages",
    "repro.netsim.network",
    "repro.obs.analysis.phases",
    "repro.obs.analysis.report",
    "repro.obs.metrics",
    "repro.obs.straggler",
    "repro.ps.engine",
    "repro.ps.policy",
    "repro.ps.result",
    "repro.ps.store",
    "repro.runtime.multiprocess",
    "repro.runtime.threaded",
    "repro.sync.asp",
    "repro.sync.bsp",
    "repro.sync.naive_wait",
    "repro.sync.ssp",
    "repro.utils.ascii_plot",
    "repro.utils.rng",
    "repro.utils.tables",
    "repro.utils.validation",
    "repro.workloads.base",
    "repro.workloads.presets",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: missing docstrings on {undocumented}"


def _documented_somewhere(cls, method_name) -> bool:
    """True if the method or any same-named method up the MRO has a doc
    (overrides inherit their contract's documentation)."""
    for base in cls.__mro__:
        candidate = base.__dict__.get(method_name)
        if candidate is None:
            continue
        doc = getattr(candidate, "__doc__", None)
        if doc and doc.strip():
            return True
    return False


@pytest.mark.parametrize("module_name", MODULES)
def test_public_methods_documented(module_name):
    """Public methods of public classes (dataclass-generated members and
    dunders excepted) must carry a docstring directly or via the base-class
    method they override."""
    module = importlib.import_module(module_name)
    missing = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if not inspect.isclass(obj):
            continue
        for method_name, method in inspect.getmembers(obj, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if method.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited from elsewhere
            if not _documented_somewhere(obj, method_name):
                missing.append(f"{name}.{method_name}")
    assert not missing, f"{module_name}: undocumented methods {missing}"
