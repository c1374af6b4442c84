"""Ablations of SpecSync's design choices (see DESIGN.md, Section 5).

1. **Centralized scheduler vs broadcast** — the paper's architecture choice
   (Section V-A): with a central scheduler each push costs one notify; with
   broadcast every worker would notify all m−1 peers.  We measure the real
   control traffic and compute what broadcast would have cost on the same
   push sequence.
2. **SpecSync on SSP** — the composability claim (Section IV-A): SpecSync
   layered over SSP should improve on plain SSP.
3. **Abort budget** — Algorithm 2 issues at most one re-sync per iteration;
   we sweep the per-iteration abort cap.
4. **Hyperparameter sensitivity** — why tuning matters: fixed hyperparams
   far from the tuned point lose most of the benefit.
5. **Optimizer robustness** (extension) — the freshness mechanism under
   AdaGrad instead of SGD on the server.
6. **Failure injection** (extension) — a scripted fail-slow node
   mid-training, ASP vs SpecSync.
7. **Orthogonality** (extension) — SpecSync combined with staleness-aware
   learning rates (the paper's Section VII combinability remark).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.specsync import SpecSyncPolicy
from repro.experiments.common import (
    Cell, CellRun, ExperimentScale, format_time, paper_cluster, render_table,
    run_cells, time_to_target, unzip,
)
from repro.netsim.messages import CONTROL_MESSAGE_BYTES
from repro.sync import AspPolicy, SspPolicy
from repro.utils.tables import format_bytes
from repro.workloads.presets import matrix_factorization_workload

__all__ = [
    "BroadcastAblation",
    "run_ablation_broadcast",
    "SspCompositionAblation",
    "run_ablation_specsync_ssp",
    "AbortBudgetAblation",
    "run_ablation_abort_budget",
    "SensitivityAblation",
    "run_ablation_sensitivity",
    "OptimizerAblation",
    "run_ablation_optimizer",
    "FailureInjectionAblation",
    "run_ablation_failure_injection",
    "OrthogonalityAblation",
    "run_ablation_orthogonality",
]


# ----------------------------------------------------------------------
# 1. Centralized vs broadcast
# ----------------------------------------------------------------------
@dataclass
class BroadcastAblation:
    measured_control_bytes: float
    measured_notify_bytes: float
    broadcast_notify_bytes: float
    notifies_sent: int
    num_workers: int

    @property
    def notify_amplification(self) -> float:
        """Broadcast notify traffic over centralized notify traffic.

        Broadcasting sends every push notification to all m−1 peers instead
        of one scheduler, so this is m−1 by construction — the point of the
        paper's architecture choice made quantitative.
        """
        if self.measured_notify_bytes == 0:
            return 0.0
        return self.broadcast_notify_bytes / self.measured_notify_bytes

    @property
    def total_amplification(self) -> float:
        """Total control traffic ratio (includes pull requests / acks,
        which broadcasting does not change)."""
        if self.measured_control_bytes == 0:
            return 0.0
        unchanged = self.measured_control_bytes - self.measured_notify_bytes
        return (self.broadcast_notify_bytes + unchanged) / self.measured_control_bytes

    def render(self) -> str:
        unchanged = self.measured_control_bytes - self.measured_notify_bytes
        table = render_table(
            "Ablation: centralized scheduler vs broadcast",
            ["architecture", "notify traffic", "all control traffic"],
            [
                ["centralized (measured)",
                 format_bytes(self.measured_notify_bytes),
                 format_bytes(self.measured_control_bytes)],
                ["broadcast (computed)",
                 format_bytes(self.broadcast_notify_bytes),
                 format_bytes(self.broadcast_notify_bytes + unchanged)],
            ],
        )
        return (
            table
            + f"\nnotify amplification: {self.notify_amplification:.1f}x "
            f"(m-1 = {self.num_workers - 1})"
        )


def run_ablation_broadcast(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> BroadcastAblation:
    cluster = paper_cluster(scale)
    workload = matrix_factorization_workload(seed)
    (result,) = run_cells(
        [Cell("adaptive", workload, cluster, SpecSyncPolicy.adaptive)], seed=seed
    ).values()

    by_kind = result.ledger.bytes_by_kind()
    measured_notify = by_kind.get("notify", 0.0)
    measured_control = result.ledger.bytes_by_category().get("control", 0.0)
    notifies = int(result.policy_summary.get("notifies_sent", 0))
    # Broadcast: each completed iteration's notify goes to all m−1 peers
    # instead of one scheduler.
    broadcast_notify = notifies * (cluster.num_workers - 1) * CONTROL_MESSAGE_BYTES
    return BroadcastAblation(
        measured_control_bytes=measured_control,
        measured_notify_bytes=measured_notify,
        broadcast_notify_bytes=broadcast_notify,
        notifies_sent=notifies,
        num_workers=cluster.num_workers,
    )


# ----------------------------------------------------------------------
# 2. SpecSync on SSP
# ----------------------------------------------------------------------
@dataclass
class _TimeAndStalenessTable:
    """Time to target and mean staleness per named configuration."""

    time_to_target: Dict[str, Optional[float]]
    staleness: Dict[str, float]
    target: float

    #: the table's title and first column
    _title = ""
    _label = ""

    def render(self) -> str:
        return render_table(
            f"{self._title} (target {self.target})",
            [self._label, "time to target", "mean staleness"],
            (
                [name, format_time(time), f"{self.staleness[name]:.1f}"]
                for name, time in self.time_to_target.items()
            ),
        )


class SspCompositionAblation(_TimeAndStalenessTable):
    """SpecSync layered over SSP, against both alone."""

    _title = "Ablation: SpecSync composed with SSP"
    _label = "scheme"


def run_ablation_specsync_ssp(
    scale: ExperimentScale = ExperimentScale.FULL,
    seed: int = 3,
    staleness_bound: int = 3,
) -> SspCompositionAblation:
    cluster = paper_cluster(scale)
    workload = matrix_factorization_workload(seed)
    ssp = partial(SspPolicy, staleness_bound)
    policies = {
        "asp": AspPolicy,
        f"ssp(s={staleness_bound})": ssp,
        "specsync-adaptive": SpecSyncPolicy.adaptive,
        f"specsync-adaptive+ssp(s={staleness_bound})": lambda: (
            SpecSyncPolicy.adaptive(base_policy=ssp())
        ),
    }
    times, staleness = unzip(run_cells(
        [Cell(name, workload, cluster, policy) for name, policy in policies.items()],
        _time_and_staleness, seed,
    ))
    return SspCompositionAblation(
        time_to_target=times, staleness=staleness,
        target=workload.convergence.target_loss,
    )


def _time_and_staleness(run: CellRun) -> Tuple[Optional[float], float]:
    return time_to_target(run), run.result.mean_staleness


# ----------------------------------------------------------------------
# 3. Abort budget
# ----------------------------------------------------------------------
@dataclass
class AbortBudgetAblation:
    time_to_target: Dict[int, Optional[float]]
    aborts: Dict[int, int]
    target: float

    def render(self) -> str:
        return render_table(
            f"Ablation: per-iteration abort budget (target {self.target})",
            ["max aborts/iteration", "time to target", "total aborts"],
            (
                [budget, format_time(self.time_to_target[budget]),
                 self.aborts[budget]]
                for budget in sorted(self.time_to_target)
            ),
        )


def run_ablation_abort_budget(
    scale: ExperimentScale = ExperimentScale.FULL,
    seed: int = 3,
    budgets: tuple = (0, 1, 2),
) -> AbortBudgetAblation:
    workload = matrix_factorization_workload(seed)
    cluster = paper_cluster(scale)
    times, aborts = unzip(run_cells(
        [
            Cell(budget, workload, cluster, SpecSyncPolicy.adaptive,
                 max_aborts_per_iteration=budget)
            for budget in budgets
        ],
        lambda run: (time_to_target(run), run.result.total_aborts),
        seed,
    ))
    return AbortBudgetAblation(
        time_to_target=times, aborts=aborts,
        target=workload.convergence.target_loss,
    )


# ----------------------------------------------------------------------
# 4. Hyperparameter sensitivity
# ----------------------------------------------------------------------
@dataclass
class SensitivityAblation:
    time_to_target: Dict[str, Optional[float]]
    target: float

    def render(self) -> str:
        return render_table(
            f"Ablation: fixed-hyperparameter sensitivity (target {self.target})",
            ["hyperparameters", "time to target"],
            ([label, format_time(time)] for label, time in self.time_to_target.items()),
        )


def run_ablation_sensitivity(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> SensitivityAblation:
    cluster = paper_cluster(scale)
    workload = matrix_factorization_workload(seed)
    iteration = workload.paper_iteration_time_s

    def fixed(window: float, rate: float):
        return partial(SpecSyncPolicy.cherrypick, SpecSyncHyperparams(window, rate))

    variants = {
        "adaptive (Algorithm 1)": SpecSyncPolicy.adaptive,
        "fixed: window T/6, rate 0.25": fixed(iteration / 6.0, 0.25),
        "fixed: window T/2, rate 0.05 (over-eager)": fixed(iteration / 2.0, 0.05),
        "fixed: window T/50, rate 0.9 (never aborts)": fixed(iteration / 50.0, 0.9),
    }
    return SensitivityAblation(
        time_to_target=run_cells(
            [Cell(label, workload, cluster, policy)
             for label, policy in variants.items()],
            time_to_target, seed,
        ),
        target=workload.convergence.target_loss,
    )


# ----------------------------------------------------------------------
# 5. Optimizer robustness (extension beyond the paper)
# ----------------------------------------------------------------------
@dataclass
class OptimizerAblation:
    """SpecSync's freshness mechanism under a different server optimizer."""

    staleness: Dict[str, float]
    final_loss: Dict[str, float]

    def render(self) -> str:
        return render_table(
            "Ablation: server optimizer (SGD vs AdaGrad)",
            ["configuration", "mean staleness", "final loss"],
            (
                [name, f"{self.staleness[name]:.1f}", f"{self.final_loss[name]:.4f}"]
                for name in self.staleness
            ),
        )


def run_ablation_optimizer(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> OptimizerAblation:
    """The abort-and-refresh machinery is optimizer-agnostic: switching the
    server's update rule to AdaGrad must not change the staleness
    reduction (an extension experiment; the paper only ran SGD)."""
    from repro.ml.optim import AdaGradUpdateRule, ConstantSchedule

    cluster = paper_cluster(scale)
    base = matrix_factorization_workload(seed)
    horizon = 450.0 if scale is ExperimentScale.FULL else 120.0
    rules = {
        "sgd": base.update_rule_factory,
        "adagrad": lambda: AdaGradUpdateRule(ConstantSchedule(0.3)),
    }
    schemes = {"asp": AspPolicy, "specsync": SpecSyncPolicy.adaptive}
    staleness, final_loss = unzip(run_cells(
        [
            Cell(f"{optimizer_name}+{scheme_name}",
                 base.with_overrides(update_rule_factory=rule_factory),
                 cluster, policy, horizon_s=horizon)
            for optimizer_name, rule_factory in rules.items()
            for scheme_name, policy in schemes.items()
        ],
        lambda run: (run.result.mean_staleness, run.result.final_loss),
        seed,
    ))
    return OptimizerAblation(staleness=staleness, final_loss=final_loss)


# ----------------------------------------------------------------------
# 6. Failure injection (extension beyond the paper)
# ----------------------------------------------------------------------
@dataclass
class FailureInjectionAblation:
    """A scripted fail-slow node mid-training, ASP vs SpecSync."""

    staleness_p95: Dict[str, float]
    time_to_target: Dict[str, Optional[float]]
    victim_iterations: Dict[str, int]
    target: float

    def render(self) -> str:
        return render_table(
            "Ablation: fail-slow node injection (worker 0, 4x for 1/3 of the run)",
            ["scheme", "p95 staleness", "time to target", "victim iterations"],
            (
                [name, f"{self.staleness_p95[name]:.0f}",
                 format_time(self.time_to_target[name]),
                 self.victim_iterations[name]]
                for name in self.staleness_p95
            ),
        )


def run_ablation_failure_injection(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> FailureInjectionAblation:
    from repro.cluster.scenarios import SlowdownWindow, build_scenario_models
    from repro.metrics.staleness import StalenessAnalysis

    cluster = paper_cluster(scale)
    workload = matrix_factorization_workload(seed)
    horizon = workload.default_horizon_s
    window = SlowdownWindow(
        start_s=horizon / 3.0, end_s=2.0 * horizon / 3.0, factor=4.0
    )
    models = build_scenario_models(
        cluster, workload.base_compute, {0: [window]}
    )
    staleness_p95, times, victim = unzip(run_cells(
        [
            Cell(name, workload, cluster, policy, horizon_s=horizon,
                 compute_models=models)
            for name, policy in [("asp", AspPolicy),
                                 ("specsync", SpecSyncPolicy.adaptive)]
        ],
        lambda run: (
            StalenessAnalysis(run.result.traces).overall.p95,
            time_to_target(run),
            run.result.worker_stats[0].iterations,
        ),
        seed,
    ))
    return FailureInjectionAblation(
        staleness_p95=staleness_p95,
        time_to_target=times,
        victim_iterations=victim,
        target=workload.convergence.target_loss,
    )


# ----------------------------------------------------------------------
# 7. Orthogonality with staleness-aware SGD (related work [29])
# ----------------------------------------------------------------------
class OrthogonalityAblation(_TimeAndStalenessTable):
    """SpecSync combined with staleness-aware learning rates."""

    _title = "Ablation: orthogonality with staleness-aware SGD"
    _label = "configuration"


def run_ablation_orthogonality(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> OrthogonalityAblation:
    """The paper (Section VII): staleness-aware techniques "are orthogonal
    to our proposal and can be combined together with SpecSync".  Race
    plain ASP, staleness-aware ASP, SpecSync, and the combination."""
    from repro.ml.optim import StalenessAwareUpdateRule, StepDecaySchedule

    cluster = paper_cluster(scale)
    base = matrix_factorization_workload(seed)
    # Same schedule as the MF preset; relative damping around the expected
    # ASP staleness (m−1) so typical pushes keep the tuned rate and only
    # the extra-stale tail is damped.
    aware = base.with_overrides(update_rule_factory=lambda: StalenessAwareUpdateRule(
        StepDecaySchedule(0.35, (5000, 8000), 0.4),
        min_scale=0.05, clip_norm=10.0,
        reference_staleness=cluster.num_workers - 1,
    ))
    configs = {
        "asp + plain sgd": (base, AspPolicy),
        "asp + staleness-aware": (aware, AspPolicy),
        "specsync + plain sgd": (base, SpecSyncPolicy.adaptive),
        "specsync + staleness-aware": (aware, SpecSyncPolicy.adaptive),
    }
    times, staleness = unzip(run_cells(
        [
            Cell(name, workload, cluster, policy, early_stop=True)
            for name, (workload, policy) in configs.items()
        ],
        _time_and_staleness, seed,
    ))
    return OrthogonalityAblation(
        time_to_target=times, staleness=staleness,
        target=base.convergence.target_loss,
    )
