"""Assemble EXPERIMENTS.md from archived benchmark outputs.

Each benchmark saves its rendered table under ``benchmarks/results/``; this
module stitches those files together with the paper's corresponding claims
into the paper-vs-measured record the reproduction ships.  Regenerate with::

    pytest benchmarks/ --benchmark-only        # refresh results/
    python -m repro.experiments.report         # rewrite EXPERIMENTS.md
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["ExperimentSection", "SECTIONS", "write_experiments_md"]


@dataclass(frozen=True)
class ExperimentSection:
    """One table/figure: its paper claim and the archived result file."""

    exp_id: str
    title: str
    paper_claim: str
    result_file: str
    deviation: str = ""


SECTIONS: List[ExperimentSection] = [
    ExperimentSection(
        exp_id="Table I",
        title="Workload characterization",
        paper_claim=(
            "MF: 4.2M parameters, 100k samples, 3s iterations; CIFAR-10: "
            "2.5M / 50k / 14s; ImageNet: 5.9M / 281,167 / 70s."
        ),
        result_file="table1.txt",
    ),
    ExperimentSection(
        exp_id="Fig. 3",
        title="Pushes-after-a-pull (PAP) distribution",
        paper_claim=(
            "Roughly uniform PAP arrivals per 1s interval; with 40 workers "
            "on CIFAR-10 the median number of pushes uncovered within 2s of "
            "a pull exceeds 6."
        ),
        result_file="fig3_pap.txt",
        deviation=(
            "Our CIFAR-10 median within 2s is ~5 (paper: >6). The expected "
            "count is (m-1)*2/14 ≈ 5.6; the paper's arrivals are slightly "
            "over-dispersed upward, ours slightly downward (push waves make "
            "the 2s-window distribution bimodal). Same order either way."
        ),
    ),
    ExperimentSection(
        exp_id="Fig. 5",
        title="Naive waiting with fixed delays",
        paper_claim=(
            "A 1s pull delay improves both workloads; 3s yields little "
            "benefit over Original; 5s does more harm than good."
        ),
        result_file="fig5_naive_waiting.txt",
        deviation=(
            "On MF the measured ordering matches the paper exactly (1s best, "
            "then 3s, then 5s, all vs Original). On CIFAR-10 our substrate's "
            "optimum falls near 5s instead of 1-3s — the crossover shape is "
            "identical but shifted right, so the CIFAR grid is extended to "
            "12s to show the deterioration."
        ),
    ),
    ExperimentSection(
        exp_id="Fig. 8",
        title="Effectiveness: runtime to convergence",
        paper_claim=(
            "SpecSync converges up to 2.97x (MF), 2.25x (CIFAR-10), and 3x "
            "(ImageNet) faster than Original without compromising accuracy; "
            "SpecSync-Adaptive is close to SpecSync-Cherrypick."
        ),
        result_file="fig8_effectiveness.txt",
    ),
    ExperimentSection(
        exp_id="Fig. 8 (multi-seed)",
        title="Effectiveness across seeds (extension)",
        paper_claim=(
            "Not in the paper: the speedup should not be seed-luck — "
            "mean ± std runtime across repeated deployments."
        ),
        result_file="fig8_multiseed.txt",
    ),
    ExperimentSection(
        exp_id="Fig. 9",
        title="Iterations to convergence",
        paper_claim=(
            "SpecSync needs up to 58% fewer iterations to converge — "
            "individual iterations get longer but higher-quality."
        ),
        result_file="fig9_iterations.txt",
    ),
    ExperimentSection(
        exp_id="Fig. 10",
        title="Heterogeneous cluster robustness",
        paper_claim=(
            "SpecSync-Adaptive outperforms Original on both the homogeneous "
            "and the heterogeneous cluster, with a smaller speedup under "
            "heterogeneity (the tuner's uniform-arrival assumption degrades)."
        ),
        result_file="fig10_heterogeneity.txt",
        deviation=(
            "In our substrate the heterogeneous mix has higher aggregate "
            "compute (the 2xlarge types are faster), so absolute convergence "
            "can be faster on Cluster 2; the paper's *comparative* claims "
            "(SpecSync wins on both; smaller speedup under heterogeneity) "
            "hold."
        ),
    ),
    ExperimentSection(
        exp_id="Fig. 11",
        title="Scalability with cluster size",
        paper_claim=(
            "SpecSync-Adaptive consistently beats Original at 20/30/40 "
            "workers in both scenarios (time-to-target and fixed budget), "
            "and the improvement grows with cluster size."
        ),
        result_file="fig11_scalability.txt",
    ),
    ExperimentSection(
        exp_id="Fig. 12",
        title="Accumulated data transfer",
        paper_claim=(
            "SpecSync's accumulated transfer stays close to Original's at "
            "all times; because it converges sooner, its total transfer to "
            "convergence is smaller (CIFAR-10: 3.17 TB vs 2.00 TB, ~40% "
            "saving)."
        ),
        result_file="fig12_transfer.txt",
    ),
    ExperimentSection(
        exp_id="Fig. 13",
        title="Transfer breakdown",
        paper_claim=(
            "Parameter traffic dominates; SpecSync's scheduler traffic "
            "(notify/re-sync) is negligible."
        ),
        result_file="fig13_breakdown.txt",
    ),
    ExperimentSection(
        exp_id="Table II",
        title="Hyperparameter tuning cost",
        paper_claim=(
            "Cherrypick's grid search costs 40 to >800 EC2-hours per "
            "workload; the Adaptive tuner is a closed-form scan over logged "
            "push timestamps with negligible overhead."
        ),
        result_file="table2_tuning_cost.txt",
    ),
    ExperimentSection(
        exp_id="Table II (companion)",
        title="Cherrypick grid search, reduced grid",
        paper_claim=(
            "Section VI-E's search procedure, run on our substrate at a "
            "reduced grid (3 ABORT_TIME x 4 ABORT_RATE, 525s probes) — the "
            "provenance of the CHERRYPICK_DEFAULTS constants; the full "
            "Table-II grid is what costs the paper 40 to >800 EC2-hours."
        ),
        result_file="cherrypick_search_mf.txt",
    ),
    ExperimentSection(
        exp_id="Ablation",
        title="Centralized scheduler vs broadcast",
        paper_claim=(
            "Broadcasting push notifications to all peers would cost "
            "(m-1)x the notify traffic of the centralized scheduler "
            "(Section V-A's architecture argument)."
        ),
        result_file="ablation_broadcast.txt",
    ),
    ExperimentSection(
        exp_id="Ablation",
        title="SpecSync composed with SSP",
        paper_claim=(
            "SpecSync can be implemented on top of SSP, complementing it "
            "(Section IV-A, benefit 2)."
        ),
        result_file="ablation_specsync_ssp.txt",
    ),
    ExperimentSection(
        exp_id="Ablation",
        title="Per-iteration abort budget",
        paper_claim=(
            "Algorithm 2 issues at most one re-sync check per notify; "
            "allowing more per-iteration aborts changes little."
        ),
        result_file="ablation_abort_budget.txt",
    ),
    ExperimentSection(
        exp_id="Ablation",
        title="Optimizer robustness (extension)",
        paper_claim=(
            "Not in the paper: SpecSync's freshness mechanism should be "
            "agnostic to the server-side optimizer (the paper's Section VI-F "
            "argues node-level generality)."
        ),
        result_file="ablation_optimizer.txt",
    ),
    ExperimentSection(
        exp_id="Ablation",
        title="Failure injection (extension)",
        paper_claim=(
            "Not in the paper: a scripted fail-slow node mid-training "
            "(the heterogeneity discussion's failure causes, reproduced "
            "deterministically)."
        ),
        result_file="ablation_failure_injection.txt",
    ),
    ExperimentSection(
        exp_id="Ablation",
        title="Orthogonality with staleness-aware SGD (extension)",
        paper_claim=(
            "Section VII: staleness-aware learning-rate techniques "
            "(related work [29]) \"are orthogonal to our proposal and can "
            "be combined together with SpecSync\"."
        ),
        result_file="ablation_orthogonality.txt",
    ),
    ExperimentSection(
        exp_id="Ablation",
        title="Hyperparameter sensitivity",
        paper_claim=(
            "Performance depends critically on the two hyperparameters "
            "(Section IV-A): badly-chosen fixed values lose the benefit."
        ),
        result_file="ablation_sensitivity.txt",
    ),
]

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Section VI), regenerated
by `pytest benchmarks/ --benchmark-only` on this package's simulated
cluster substrate.  Absolute numbers are virtual-time measurements on a
calibrated simulator, not EC2 wall-clock — per the reproduction brief, the
*shape* is the claim: who wins, by roughly what factor, where crossovers
fall.  Substitutions and their rationale live in DESIGN.md.

This file is assembled from `benchmarks/results/` by
`python -m repro.experiments.report`.
"""


def write_experiments_md(
    results_dir: pathlib.Path,
    out_path: pathlib.Path,
    headline: Optional[str] = None,
) -> str:
    """Compose EXPERIMENTS.md; returns the text written."""
    blocks = [_HEADER]
    if headline:
        blocks.append(headline)
    for section in SECTIONS:
        blocks.append(f"## {section.exp_id}: {section.title}\n")
        blocks.append(f"**Paper:** {section.paper_claim}\n")
        result_path = results_dir / section.result_file
        if result_path.exists():
            measured = result_path.read_text(encoding="utf-8").rstrip()
            blocks.append("**Measured:**\n\n```\n" + measured + "\n```\n")
        else:
            blocks.append(
                "**Measured:** _not yet generated — run "
                "`pytest benchmarks/ --benchmark-only`_\n"
            )
        if section.deviation:
            blocks.append(f"**Deviation:** {section.deviation}\n")
    text = "\n".join(blocks)
    out_path.write_text(text, encoding="utf-8")
    return text


def build_headline(results_dir: pathlib.Path) -> Optional[str]:
    """Summarize the measured Fig.-8 speedups from the archived table."""
    import re

    path = results_dir / "fig8_effectiveness.txt"
    if not path.exists():
        return None
    speedups = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        match = re.match(
            r"\s*(\w+) \(target [\d.]+\)\s*\|\s*SpecSync-Adaptive\s*\|"
            r"[^|]*\|\s*([\d.]+)x", line
        )
        if match:
            speedups[match.group(1)] = float(match.group(2))
    if not speedups:
        return None
    parts = ", ".join(f"{k} {v:.2f}x" for k, v in speedups.items())
    return (
        "**Headline (measured, SpecSync-Adaptive vs Original, 40 workers):** "
        f"{parts} — paper: up to 2.97x / 2.25x / 3x.\n"
    )


def main() -> int:
    root = pathlib.Path(__file__).resolve().parents[3]
    results = root / "benchmarks" / "results"
    out = root / "EXPERIMENTS.md"
    write_experiments_md(results, out, headline=build_headline(results))
    print(f"wrote {out}")
    missing = [s.result_file for s in SECTIONS
               if not (results / s.result_file).exists()]
    if missing:
        print("missing results (run the benches to fill them in):")
        for name in missing:
            print(f"  - {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
