"""Shared plumbing for the experiment drivers, and the one grid runner.

Every figure is a list of :class:`Cell` objects — a workload on a cluster
under one policy, with the run's knobs — that :func:`run_grid` executes
once per seed and reduces with the driver's extractor.
"""

from __future__ import annotations

import enum
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
    TypeVar,
)

from repro import obs
from repro.cluster.compute import ComputeTimeModel
from repro.cluster.spec import ClusterSpec
from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.specsync import SpecSyncPolicy
from repro.obs.log import get_logger
from repro.ps.engine import TrainingEngine
from repro.ps.policy import SyncPolicy
from repro.ps.result import RunResult
from repro.sync import AspPolicy, BspPolicy, SspPolicy
from repro.utils.tables import TextTable
from repro.workloads.base import Workload
from repro.workloads.presets import PAPER_WORKLOADS

_log = get_logger("experiments")

__all__ = [
    "ExperimentScale",
    "SchemeSpec",
    "scheme_catalog",
    "Cell",
    "CellRun",
    "run_grid",
    "run_cells",
    "time_to_target",
    "unzip",
    "nest",
    "ratio",
    "format_time",
    "format_speedup",
    "render_table",
    "paper_cluster",
    "paper_workloads",
    "mean",
    "CHERRYPICK_DEFAULTS",
]

T = TypeVar("T")
K = TypeVar("K")


class ExperimentScale(enum.Enum):
    """How heavy the experiment runs are.

    ``FULL`` — the paper's dimensions (40 workers, full horizons).
    ``SMOKE`` — a down-scaled variant (fewer workers / shorter horizon) used
    by CI-style quick checks; set via REPRO_SCALE=smoke.
    """

    FULL = "full"
    SMOKE = "smoke"

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        value = os.environ.get("REPRO_SCALE", "full").lower()
        return cls.SMOKE if value == "smoke" else cls.FULL


#: Fixed SpecSync hyperparameters for the Cherrypick variant, one per
#: workload.  These were produced by the grid-search driver in
#: :mod:`repro.experiments.cherrypick_search` over the Table-II-sized grid
#: (see EXPERIMENTS.md); re-run ``grid_search_hyperparams`` to regenerate.
CHERRYPICK_DEFAULTS: Dict[str, SpecSyncHyperparams] = {
    "mf": SpecSyncHyperparams(abort_time_s=0.7, abort_rate=0.175),
    "cifar10": SpecSyncHyperparams(abort_time_s=3.0, abort_rate=0.175),
    "imagenet": SpecSyncHyperparams(abort_time_s=15.0, abort_rate=0.175),
    "tiny": SpecSyncHyperparams(abort_time_s=0.25, abort_rate=0.2),
}


@dataclass(frozen=True)
class SchemeSpec:
    """A named scheme factory (policies are single-run objects)."""

    key: str
    display_name: str
    factory: Callable[[], SyncPolicy]

    def make(self) -> SyncPolicy:
        """Instantiate a fresh policy (policies are single-run objects)."""
        return self.factory()


def scheme_catalog(workload_name: str) -> Dict[str, SchemeSpec]:
    """All schemes the experiments use, keyed by short name.

    The paper's three headline schemes are ``original`` (ASP),
    ``cherrypick`` and ``adaptive``; the rest appear in discussion and
    ablation experiments.
    """
    cherry = CHERRYPICK_DEFAULTS.get(
        workload_name, CHERRYPICK_DEFAULTS["tiny"]
    )
    return {
        "original": SchemeSpec("original", "Original (ASP)", AspPolicy),
        "bsp": SchemeSpec("bsp", "BSP", BspPolicy),
        "ssp": SchemeSpec("ssp", "SSP (s=3)", lambda: SspPolicy(staleness_bound=3)),
        "cherrypick": SchemeSpec(
            "cherrypick",
            "SpecSync-Cherrypick",
            lambda: SpecSyncPolicy.cherrypick(cherry),
        ),
        "adaptive": SchemeSpec(
            "adaptive", "SpecSync-Adaptive", SpecSyncPolicy.adaptive
        ),
        "adaptive+ssp": SchemeSpec(
            "adaptive+ssp",
            "SpecSync-Adaptive on SSP",
            lambda: SpecSyncPolicy.adaptive(
                base_policy=SspPolicy(staleness_bound=3)
            ),
        ),
    }


def paper_cluster(
    scale: ExperimentScale, smoke_workers: int = 10
) -> ClusterSpec:
    """Cluster 1: 40 homogeneous workers, or ``smoke_workers`` at smoke scale."""
    return ClusterSpec.homogeneous(
        40 if scale is ExperimentScale.FULL else smoke_workers
    )


def paper_workloads(
    scale: ExperimentScale,
    seed: int,
    workloads: Optional[Sequence[Workload]] = None,
) -> Sequence[Workload]:
    """``workloads`` if given, else Table I's three (MF only at smoke scale)."""
    if workloads is not None:
        return workloads
    presets = PAPER_WORKLOADS(seed)
    return presets if scale is ExperimentScale.FULL else presets[:1]


@dataclass(frozen=True)
class Cell:
    """One grid cell: a workload on a cluster under a fresh policy per run.

    ``key`` names the cell in the runner's results; the remaining fields
    are the run's knobs (``horizon_s`` None = the workload's default).
    ``traced`` runs the cell under an obs collector and hands the
    extractor the run's records.
    """

    key: Hashable
    workload: Workload
    cluster: ClusterSpec
    policy: Callable[[], SyncPolicy]
    horizon_s: Optional[float] = None
    early_stop: bool = False
    max_aborts_per_iteration: int = 1
    compute_models: Optional[List[ComputeTimeModel]] = None
    traced: bool = False


@dataclass(frozen=True)
class CellRun:
    """One finished (cell, seed) run, as an extractor sees it."""

    cell: Cell
    seed: int
    engine: TrainingEngine
    result: RunResult
    #: the run's obs records (traced cells only)
    records: Sequence[object] = ()


def _keep_result(run: CellRun) -> RunResult:
    return run.result


def time_to_target(run: CellRun) -> Optional[float]:
    """The run's runtime to its workload's convergence target (None = never)."""
    return run.result.time_to_convergence(run.cell.workload.convergence)


def run_grid(
    cells: Sequence[Cell],
    extract: Callable[[CellRun], T] = _keep_result,
    seeds: Sequence[int] = (3,),
) -> Dict[Tuple[Hashable, int], T]:
    """Run every (cell, seed) once; reduce each run with ``extract``.

    Results are keyed by (cell key, seed), never by execution order, so
    the order the runs happen in cannot reach a table.
    """
    if not cells or not seeds:
        raise ValueError("a grid needs at least one cell and one seed")
    keys = [cell.key for cell in cells]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate cell keys: {keys}")
    results: Dict[Tuple[Hashable, int], T] = {}
    for cell in cells:
        for seed in seeds:
            results[(cell.key, seed)] = extract(_run_cell(cell, seed))
    return results


def _run_cell(cell: Cell, seed: int) -> CellRun:
    _log.info(
        "running %s / %s on %s (seed %d)",
        cell.workload.name, cell.key, cell.cluster.describe(), seed,
    )
    # A traced cell records into the ambient collector when the whole
    # experiment is traced (``repro experiment --trace``), else its own.
    ambient = obs.current_collector()
    fresh = cell.traced and ambient is None
    with obs.collecting() if fresh else nullcontext(ambient) as collector:
        first = len(collector.records) if collector is not None else 0
        engine = cell.workload.build_engine(
            cell.cluster, cell.policy(), seed=seed, horizon_s=cell.horizon_s,
            early_stop=cell.early_stop,
            max_aborts_per_iteration=cell.max_aborts_per_iteration,
            compute_models=cell.compute_models,
        )
        result = engine.run()
    _log.info(
        "finished %s / %s: %d iterations, %d aborts, final loss %.4f",
        cell.workload.name, cell.key, result.total_iterations,
        result.total_aborts, result.final_loss,
    )
    records = collector.records[first:] if cell.traced else ()
    return CellRun(cell, seed, engine, result, records)


def run_cells(
    cells: Sequence[Cell],
    extract: Callable[[CellRun], T] = _keep_result,
    seed: int = 3,
) -> Dict[Hashable, T]:
    """:func:`run_grid` at one seed: {cell key: extract(run)}, in cell order."""
    results = run_grid(cells, extract, seeds=(seed,))
    return {cell.key: results[cell.key, seed] for cell in cells}


def unzip(results: Dict[K, Sequence[Any]]) -> List[Dict[K, Any]]:
    """Split {key: (a, b, …)} into [{key: a}, {key: b}, …]."""
    return [dict(zip(results, column)) for column in zip(*results.values())]


def nest(flat: Dict[Tuple[K, Hashable], T]) -> Dict[K, Dict[Hashable, T]]:
    """Turn {(a, b): value} into {a: {b: value}}, keeping the order."""
    nested: Dict[K, Dict[Hashable, T]] = {}
    for (outer, inner), value in flat.items():
        nested.setdefault(outer, {})[inner] = value
    return nested


def ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    """``numerator / denominator``, or None if either is missing or the
    denominator is zero."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def format_time(time: Optional[float], never: str = "did not converge") -> str:
    """A runtime in whole seconds, or ``never``."""
    return f"{time:.0f}s" if time is not None else never


def format_speedup(speedup: Optional[float]) -> str:
    """A speedup as ``1.23x``, or ``-`` when there is none."""
    return f"{speedup:.2f}x" if speedup is not None else "-"


def render_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """A titled :class:`TextTable` of ``rows``."""
    table = TextTable(headers, title=title)
    for row in rows:
        table.add_row(row)
    return table.render()


def mean(values: List[float]) -> float:
    """Plain mean with an explicit error for empty input."""
    if not values:
        raise ValueError("mean of empty list")
    return sum(values) / len(values)
