"""The one experiment grid runner, and Fig. 8's multi-seed aggregation."""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.specsync import SpecSyncPolicy
from repro.experiments import ExperimentScale, run_fig8
from repro.experiments.common import Cell, run_grid
from repro.experiments.fig8_effectiveness import Fig8Cell, Fig8Result
from repro.sync import AspPolicy
from repro.workloads import tiny_workload
from tests.test_engine_digest import outcome

SMOKE = ExperimentScale.SMOKE


def tiny(name="tiny", horizon_s=20.0):
    return tiny_workload().with_overrides(name=name, default_horizon_s=horizon_s)


def digest(run):
    return outcome(run.engine, run.result)


class TestRunGrid:
    def test_cell_order_does_not_reach_results(self):
        cells = [
            Cell("asp", tiny(), ClusterSpec.homogeneous(3), AspPolicy),
            Cell("adaptive", tiny(), ClusterSpec.homogeneous(4),
                 SpecSyncPolicy.adaptive, horizon_s=15.0),
        ]
        forward = run_grid(cells, digest, seeds=(1, 2))
        backward = run_grid(cells[::-1], digest, seeds=(2, 1))
        assert forward == backward
        assert set(forward) == {(key, seed) for key in ("asp", "adaptive") for seed in (1, 2)}
        assert forward["asp", 1] != forward["asp", 2]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_grid([], seeds=(1,))
        with pytest.raises(ValueError):
            run_fig8(SMOKE, seeds=(1, 2), workloads=[])

    def test_duplicate_keys_rejected(self):
        cell = Cell("asp", tiny(), ClusterSpec.homogeneous(2), AspPolicy)
        with pytest.raises(ValueError):
            run_grid([cell, cell])


def seeds_cell(times, scheme="s", workload="v"):
    return Fig8Cell(workload, scheme, scheme, result=None, times_to_target=times)


class TestFig8SeedAggregation:
    def test_converged_fraction(self):
        assert seeds_cell((100.0, 200.0, None)).converged_fraction == pytest.approx(2 / 3)

    def test_mean_ignores_non_converged(self):
        assert seeds_cell((100.0, 200.0, None)).mean_time_to_target == pytest.approx(150.0)

    def test_all_failed(self):
        cell = seeds_cell((None, None, None))
        assert cell.mean_time_to_target is None
        assert cell.converged_fraction == 0.0

    def test_std_requires_two_samples(self):
        assert seeds_cell((100.0, None, None)).std_time_to_target is None

    def test_speedups_relative_to_original(self):
        result = Fig8Result(
            cells=[
                seeds_cell((400.0,), "original"),
                seeds_cell((100.0,), "fast"),
                seeds_cell((None,), "dead"),
            ],
            targets={"v": 0.1},
        )
        assert result.speedup("v", "original") == pytest.approx(1.0)
        assert result.speedup("v", "fast") == pytest.approx(4.0)
        assert result.speedup("v", "dead") is None

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            Fig8Result(cells=[], targets={}, seeds=(1, 2)).cell("x", "y")

    def test_render_matches_the_multiseed_table(self):
        result = Fig8Result(
            cells=[
                seeds_cell((1000.0, 1300.0, None), "original", "mf"),
                seeds_cell((300.0, 340.0, 320.0), "adaptive", "mf"),
                seeds_cell((None, None, None), "original", "tiny"),
                seeds_cell((50.0, None, None), "adaptive", "tiny"),
            ],
            targets={"mf": 0.46, "tiny": 0.5},
            seeds=(1, 2, 3),
        )
        assert result.render() == "\n".join([
            "Fig. 8 across seeds (1, 2, 3)",
            "=============================",
            "Workload | Scheme   | Converged | Runtime (mean±std) | Speedup vs Original",
            "---------+----------+-----------+--------------------+--------------------",
            "mf       | original | 67%       | 1150s ± 212s       | 1.00x",
            "mf       | adaptive | 100%      | 320s ± 20s         | 3.59x",
            "tiny     | original | 0%        | never              | -",
            "tiny     | adaptive | 33%       | 50s                | -",
        ])

    def test_grid_runs_every_cell_and_seed(self):
        result = run_fig8(
            SMOKE, seeds=(1, 2), workloads=[tiny()], schemes=("original", "adaptive")
        )
        assert [(c.workload, c.scheme) for c in result.cells] == [
            ("tiny", "original"), ("tiny", "adaptive"),
        ]
        assert all(len(c.times_to_target) == 2 for c in result.cells)
        assert result.seeds == (1, 2)
        assert "Fig. 8 across seeds (1, 2)" in result.render()

    def test_cherrypick_across_two_workloads(self):
        result = run_fig8(
            SMOKE, seeds=(1, 2), workloads=[tiny(), tiny("tiny-b")],
            schemes=("original", "cherrypick"),
        )
        assert result.workloads() == ["tiny", "tiny-b"]
        assert {c.scheme for c in result.cells} == {"original", "cherrypick"}
        assert all(c.converged_fraction == 1.0 for c in result.cells)
        text = result.render()
        assert "tiny-b   | cherrypick" in text
