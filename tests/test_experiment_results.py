"""Pure-logic tests for the experiment result dataclasses (no simulations)."""

import pathlib

import pytest

from repro.experiments.fig8_effectiveness import Fig8Cell, Fig8Result
from repro.experiments.fig9_iterations import Fig9Result
from repro.experiments.fig10_heterogeneity import Fig10Result
from repro.experiments.fig11_scalability import Fig11Result
from repro.experiments.fig12_transfer import Fig12Result
from repro.experiments.fig13_breakdown import Fig13Result
from repro.experiments.report import SECTIONS, write_experiments_md


def fig8_result():
    cells = [
        Fig8Cell("mf", "original", "Original (ASP)", result=None,
                 times_to_target=(900.0,)),
        Fig8Cell("mf", "adaptive", "SpecSync-Adaptive", result=None,
                 times_to_target=(300.0,)),
        Fig8Cell("mf", "cherrypick", "SpecSync-Cherrypick", result=None,
                 times_to_target=(None,)),
    ]
    return Fig8Result(cells=cells, targets={"mf": 0.46})


class TestFig8Result:
    def test_speedup(self):
        result = fig8_result()
        assert result.speedup("mf", "adaptive") == pytest.approx(3.0)

    def test_speedup_none_when_not_converged(self):
        result = fig8_result()
        assert result.speedup("mf", "cherrypick") is None

    def test_cell_lookup_error(self):
        with pytest.raises(KeyError):
            fig8_result().cell("mf", "bsp")

    def test_workloads_order(self):
        assert fig8_result().workloads() == ["mf"]

    def test_converged_property(self):
        result = fig8_result()
        assert result.cell("mf", "adaptive").converged
        assert not result.cell("mf", "cherrypick").converged


class TestFig9Result:
    def test_iteration_reduction(self):
        result = Fig9Result(
            curves={},
            iterations_to_target={"mf": {"original": 1000, "adaptive": 420}},
            targets={"mf": 0.46},
        )
        assert result.iteration_reduction("mf") == pytest.approx(0.58)

    def test_reduction_none_when_missing(self):
        result = Fig9Result(
            curves={},
            iterations_to_target={"mf": {"original": None, "adaptive": 10}},
            targets={"mf": 0.46},
        )
        assert result.iteration_reduction("mf") is None


class TestFig10Result:
    def test_speedup_per_cluster(self):
        result = Fig10Result(
            curves={},
            time_to_target={
                "homog": {"original": 1000.0, "adaptive": 400.0},
                "hetero": {"original": 900.0, "adaptive": 600.0},
            },
            target=0.45,
        )
        assert result.speedup("homog") == pytest.approx(2.5)
        assert result.speedup("hetero") == pytest.approx(1.5)

    def test_render_contains_rows(self):
        result = Fig10Result(
            curves={},
            time_to_target={"homog": {"original": None, "adaptive": 300.0}},
            target=0.45,
        )
        text = result.render()
        assert "did not converge" in text
        assert "300s" in text


class TestFig11Result:
    def build(self):
        return Fig11Result(
            time_to_target={
                20: {"original": 800.0, "adaptive": 700.0},
                40: {"original": 900.0, "adaptive": 300.0},
            },
            loss_at_budget={
                20: {"original": 0.50, "adaptive": 0.49},
                40: {"original": 0.50, "adaptive": 0.40},
            },
            budget_s=1000.0,
            target=0.45,
        )

    def test_speedup(self):
        assert self.build().speedup(40) == pytest.approx(3.0)

    def test_loss_improvement(self):
        assert self.build().loss_improvement(40) == pytest.approx(0.2)

    def test_render(self):
        text = self.build().render()
        assert "20" in text and "40" in text and "3.00x" in text


class TestFig12Result:
    def build(self):
        return Fig12Result(
            series={"mf": {"original": [(0, 0)], "adaptive": [(0, 0)]}},
            total_to_convergence={"mf": {"original": 3.17e12, "adaptive": 2.0e12}},
            rate={"mf": {"original": 100.0, "adaptive": 110.0}},
        )

    def test_rate_overhead(self):
        assert self.build().rate_overhead("mf") == pytest.approx(0.10)

    def test_transfer_saving_matches_paper_example(self):
        # The paper's CIFAR example: 3.17 TB -> 2.00 TB ≈ 37% saving.
        assert self.build().transfer_saving("mf") == pytest.approx(0.369, abs=0.01)

    def test_render_formats_tb(self):
        assert "3.17 TB" in self.build().render()


class TestFig13Result:
    def test_control_fraction(self):
        result = Fig13Result(
            breakdown={"mf": {"pull": 600.0, "push": 390.0, "control": 10.0}},
            by_kind={"mf": {"notify": 6.0, "resync": 4.0}},
        )
        assert result.control_fraction("mf") == pytest.approx(0.01)
        assert "mf" in result.render()


class TestReport:
    def test_sections_cover_every_table_and_figure(self):
        ids = {s.exp_id for s in SECTIONS}
        for required in ("Table I", "Table II", "Fig. 3", "Fig. 5", "Fig. 8",
                         "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13"):
            assert required in ids

    def test_write_with_missing_results(self, tmp_path):
        out = tmp_path / "EXPERIMENTS.md"
        text = write_experiments_md(tmp_path, out)
        assert out.exists()
        assert "not yet generated" in text

    def test_write_embeds_available_results(self, tmp_path):
        (tmp_path / "table1.txt").write_text("THE-TABLE-CONTENT")
        out = tmp_path / "EXPERIMENTS.md"
        text = write_experiments_md(tmp_path, out)
        assert "THE-TABLE-CONTENT" in text
        assert "```" in text

    def test_deviations_rendered(self, tmp_path):
        out = tmp_path / "EXPERIMENTS.md"
        text = write_experiments_md(tmp_path, out)
        assert "**Deviation:**" in text


class TestHeadline:
    def test_parses_fig8_table(self, tmp_path):
        from repro.experiments.report import build_headline

        (tmp_path / "fig8_effectiveness.txt").write_text(
            "Fig. 8\n"
            "mf (target 0.46)      | SpecSync-Adaptive   | 366s  | 4.26x | 0.450 | 3042\n"
            "cifar10 (target 0.45) | SpecSync-Adaptive   | 300s  | 2.58x | 0.399 | 572\n"
        )
        headline = build_headline(tmp_path)
        assert headline is not None
        assert "mf 4.26x" in headline
        assert "cifar10 2.58x" in headline

    def test_none_when_missing(self, tmp_path):
        from repro.experiments.report import build_headline

        assert build_headline(tmp_path) is None

    def test_none_when_unparseable(self, tmp_path):
        from repro.experiments.report import build_headline

        (tmp_path / "fig8_effectiveness.txt").write_text("garbage\n")
        assert build_headline(tmp_path) is None
