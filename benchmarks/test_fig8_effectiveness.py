"""Bench for Fig. 8 — the headline effectiveness result.

For each Table-I workload, runs Original (ASP), SpecSync-Cherrypick, and
SpecSync-Adaptive on Cluster 1 and regenerates the runtime-to-convergence
comparison.  Shape assertions (paper: up to 2.97x MF / 2.25x CIFAR-10 /
3x ImageNet):

* both SpecSync variants converge, and substantially faster than Original;
* SpecSync-Adaptive lands in the same ballpark as Cherrypick (the paper's
  "the difference is very small").
"""

from benchmarks.conftest import run_once
from repro.experiments import ExperimentScale, run_fig8

SCALE = ExperimentScale.from_env()


def test_fig8_effectiveness(benchmark, archive):
    result = run_once(benchmark, lambda: run_fig8(SCALE))
    archive("fig8_effectiveness", result.render())

    for workload in result.workloads():
        adaptive = result.cell(workload, "adaptive")
        cherry = result.cell(workload, "cherrypick")
        assert adaptive.converged, f"{workload}: adaptive must converge"
        assert cherry.converged, f"{workload}: cherrypick must converge"

        if SCALE is not ExperimentScale.FULL:
            continue
        original = result.cell(workload, "original")
        assert original.converged, f"{workload}: original must converge"

        speedup_adaptive = result.speedup(workload, "adaptive")
        speedup_cherry = result.speedup(workload, "cherrypick")
        # The paper's speedups are 2.25x-3x; require a clear win with
        # slack for seed/substrate variation.
        assert speedup_adaptive > 1.5, (
            f"{workload}: adaptive speedup {speedup_adaptive:.2f}x"
        )
        assert speedup_cherry > 1.5, (
            f"{workload}: cherrypick speedup {speedup_cherry:.2f}x"
        )
        # Adaptive in the same ballpark as cherrypick ("difference is very
        # small" at paper scale; our substrate is noisier per-seed, and a
        # lucky fixed setting can win a single run by ~2x).
        ratio = speedup_adaptive / speedup_cherry
        assert 0.35 < ratio < 4.0, f"{workload}: adaptive/cherry ratio {ratio:.2f}"

        # SpecSync must not compromise training quality (Section VI-B).
        assert adaptive.result.final_loss <= result.targets[workload] * 1.1


def test_fig8_multiseed(benchmark, archive):
    """Seed-averaged Fig. 8 (extension).  Heavy: gated by REPRO_MULTISEED=1
    at full scale; otherwise runs the MF workload only."""
    import os

    from repro.workloads.presets import PAPER_WORKLOADS, matrix_factorization_workload

    if SCALE is ExperimentScale.FULL and os.environ.get("REPRO_MULTISEED") == "1":
        workloads = PAPER_WORKLOADS(1)
    else:
        workloads = [matrix_factorization_workload(1)]

    result = run_once(
        benchmark,
        lambda: run_fig8(SCALE, seeds=(1, 2, 3), workloads=workloads,
                         schemes=("original", "adaptive")),
    )
    archive("fig8_multiseed", result.render())

    for variant in result.workloads():
        adaptive = result.cell(variant, "adaptive")
        assert adaptive.converged_fraction == 1.0, (
            f"{variant}: adaptive failed on some seeds"
        )
        if SCALE is ExperimentScale.FULL:
            speedup = result.speedup(variant, "adaptive")
            assert speedup is not None and speedup > 1.5, (
                f"{variant}: mean speedup {speedup}"
            )
