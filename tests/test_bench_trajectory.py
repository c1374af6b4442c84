"""The committed performance trajectory: schema, append, the rendered
table in EXPERIMENTS.md staying in step with the file, and ``compare``."""

import json
import pathlib
import re

import pytest

from benchmarks.history import trajectory

ROOT = pathlib.Path(__file__).resolve().parents[1]


def suite_record(workload, wall=2.5, **overrides):
    spread = {"median": wall * 1.1, "min": wall, "q1": wall, "q3": wall * 1.2, "n": 6}
    record = {
        "workload": workload, "seed": 3, "traced": False, "quick": False,
        "failed": 0, "attempted": 6, "sim_digest": "ab" * 32,
        "metrics": {
            "setup_s": {"value": 0.015, "unit": "s", **spread},
            "wall_s": {"value": wall, "unit": "s", **spread},
            "iter_per_s": {"value": 5000 / wall, "unit": "iter/s", **spread},
            "peak_rss_mb": {"value": 80.0, "unit": "MB"},
            "failed_share": {"value": 0.0, "unit": "ratio"},
        },
    }
    record.update(overrides)
    return record


def test_append_then_render(tmp_path, monkeypatch):
    suite = tmp_path / "BENCH_suite.json"
    suite.write_text(json.dumps({"schema_version": 1, "sets": [[
        suite_record("des_mf40_adaptive"), suite_record("des_mf40_asp", wall=2.0),
    ]]}))
    history = tmp_path / "trajectory.jsonl"
    monkeypatch.setattr(trajectory, "HISTORY", history)
    history.write_text("")
    for commit, label in (("abc1234", "PR 0"), ("def5678", "PR 1")):
        assert trajectory.main(["append", str(suite), "--commit", commit,
                                "--label", label, "--date", "2026-01-01"]) == 0
    # compare addresses entries by label, so a label is taken once
    assert trajectory.main(["append", str(suite), "--commit", "0123abc",
                            "--label", "PR 1", "--date", "2026-01-02"]) == 2
    entries = trajectory.load(history)
    assert [e["commit"] for e in entries] == ["abc1234", "def5678"]  # appended, in order
    entry = entries[0]
    assert entry["schema_version"] == trajectory.SCHEMA_VERSION
    wall = entry["workloads"]["des_mf40_adaptive"]["metrics"]["wall_s"]
    assert wall == {"value": 2.5, "unit": "s", "median": 2.75, "q1": 2.5, "q3": 3.0, "n": 6}
    assert set(entry["workloads"]["des_mf40_asp"]["metrics"]) == set(trajectory.METRICS)
    table = trajectory.render(entries).splitlines()
    assert len(table) == 2 + 4
    assert "`des_mf40_asp` | 2 (2–2.4, n=6)" in table[3]
    assert table[2].endswith("| 80 | `abababab` |")


@pytest.mark.parametrize("flaw", [{"traced": True}, {"quick": True}, {"failed": 1}])
def test_only_full_clean_runs_are_recorded(flaw):
    suite = {"sets": [[suite_record("des_mf40_adaptive", **flaw)]]}
    with pytest.raises(ValueError):
        trajectory.entry_from_suite(suite, "abc1234", "PR 0", "2026-01-01")


def test_experiments_md_renders_the_committed_trajectory():
    entries = trajectory.load(trajectory.HISTORY)
    assert len(entries) >= 2
    assert all(e["schema_version"] == trajectory.SCHEMA_VERSION for e in entries)
    assert all(re.fullmatch(r"[0-9a-f]{7,40}", e["commit"]) for e in entries)
    labels = [e["label"] for e in entries]
    assert len(set(labels)) == len(labels)
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = text.split(trajectory.BEGIN)[1].split(trajectory.END)[0]
    assert block.strip() == trajectory.render(entries)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summary(value, q1=None, q3=None):
    metric = {"value": value, "unit": "x"}
    if q1 is not None:
        metric.update(q1=q1, q3=q3, median=(q1 + q3) / 2, n=6)
    return metric


@pytest.mark.parametrize("better, old, new, expected", [
    # lower is better, bound 25 %
    ("lower", summary(4.0, 4.1, 4.2), summary(5.1, 5.2, 5.3), "worse"),
    ("lower", summary(4.0, 4.1, 4.2), summary(4.9, 5.0, 5.1), "held"),
    ("lower", summary(4.0, 4.1, 4.2), summary(3.95, 4.0, 4.1), "held"),  # gap < q3 - q1
    ("lower", summary(4.0, 4.1, 4.2), summary(3.8, 3.9, 4.0), "improved"),
    # higher is better: the same moves, mirrored
    ("higher", summary(1000.0, 960.0, 990.0), summary(740.0, 700.0, 730.0), "worse"),
    ("higher", summary(1000.0, 960.0, 990.0), summary(1020.0, 980.0, 1010.0), "held"),
    ("higher", summary(1000.0, 960.0, 990.0), summary(1040.0, 1000.0, 1030.0), "improved"),
    # no quartiles (peak_rss_mb): the bound alone decides
    ("lower", summary(80.0), summary(101.0), "worse"),
    ("lower", summary(80.0), summary(99.0), "held"),
    ("lower", summary(80.0), summary(59.0), "improved"),
    # the parent's own q3 - q1 is wider than the bound and the ranges overlap
    ("lower", summary(4.0, 3.9, 5.2), summary(3.0, 2.9, 4.0), "unresolved"),
    ("lower", summary(4.0, 3.9, 5.2), summary(2.0, 1.9, 2.5), "improved"),  # ranges apart
])
def test_verdict(better, old, new, expected):
    assert trajectory.verdict(old, new, better, 0.25) == expected


def traced_record(wall, layers):
    """A ``--trace 1`` suite record: its layer self times tile ``wall``
    except for 0.1 s that no layer names."""
    record = suite_record("des_mf40_adaptive", wall=wall, traced=True)
    record["layers"] = dict(layers, **{
        "bench.tiling_residual_share": 0.1 / wall, "core.tune_calls": 120,
        "sim.ttc_s": 360.0, "core.check_s": None})
    record["tiling"] = {"traced_wall_s": wall}
    return record


def printed_verdicts(out):
    """(workload, metric) -> verdict, read off ``compare``'s printed table."""
    fields = [line.split() for line in out.splitlines()]
    return {(f[0], f[1]): f[-1] for f in fields
            if len(f) > 2 and f[1] in trajectory.METRICS}


def write_suite(path, *records):
    path.write_text(json.dumps({"schema_version": 1, "sets": [list(records)]}))
    return str(path)


def test_compare_judges_attributes_and_exits_one_only_on_worse(tmp_path, capsys):
    old = write_suite(
        tmp_path / "old.json",
        traced_record(4.0, {"core.tune_s": 1.8, "ml.grad_s": 1.5, "ps.apply_s": 0.6}),
        suite_record("des_mf40_asp", wall=2.0),
        suite_record("des_tiny160_cherrypick"),
    )
    new = write_suite(
        tmp_path / "new.json",
        traced_record(2.5, {"core.tune_s": 0.3, "ml.grad_s": 1.4, "ps.apply_s": 0.7}),
        suite_record("des_mf40_asp", wall=2.1),
        suite_record("rt_mp4_adaptive"),
    )
    assert trajectory.main(["compare", old, new]) == 0
    out = capsys.readouterr().out
    rows = printed_verdicts(out)
    assert rows["des_mf40_adaptive", "wall_s"] == "improved"
    assert rows["des_mf40_adaptive", "iter_per_s"] == "improved"
    assert rows["des_mf40_asp", "wall_s"] == "held"
    assert rows["des_mf40_asp", "peak_rss_mb"] == "held"
    # a workload only one side ran is reported, not judged and not a crash
    assert rows["des_tiny160_cherrypick", "wall_s"] == "missing"
    assert rows["rt_mp4_adaptive", "wall_s"] == "missing"
    assert "des_mf40_asp: traced" not in out  # untraced rows get no attribution

    sides = trajectory.load_side(old), trajectory.load_side(new)
    wall, deltas = trajectory.layer_deltas(
        sides[0]["des_mf40_adaptive"], sides[1]["des_mf40_adaptive"], BENCHMARK)
    assert wall == pytest.approx(-1.5)
    assert [name for name, _ in deltas] == [  # ranked; counts, sim_s and nulls left out
        "core.tune_s", "ml.grad_s", "ps.apply_s", "(no layer)"]
    assert dict(deltas)["core.tune_s"] == pytest.approx(-1.5)
    assert dict(deltas)["(no layer)"] == pytest.approx(0.0)  # 0.1 s on both sides
    assert sum(delta for _, delta in deltas) == pytest.approx(wall)
    assert "core.tune_s" in out and "100.0%" in out

    # the same change read backwards is a regression: exit code 1
    assert trajectory.main(["compare", new, old]) == 1
    assert "worse" in capsys.readouterr().out
    assert trajectory.main(["compare", old, str(tmp_path / "absent.json")]) == 2


def test_compare_reads_the_committed_trajectory(capsys):
    assert trajectory.main(["compare", "PR 11 (parent)", "PR 13"]) == 0
    rows = printed_verdicts(capsys.readouterr().out)
    for workload in ("des_mf40_adaptive", "des_mf40_asp"):  # 4.602 -> 2.445 s, 2.350 -> 1.831 s
        assert rows[workload, "wall_s"] == rows[workload, "iter_per_s"] == "improved"
    for workload in ("rt_threaded4_adaptive", "rt_mp4_adaptive"):
        assert {rows[workload, metric] for metric in trajectory.METRICS} == {"held"}
    assert "worse" not in rows.values()


def test_pr17_sped_up_the_observe_row_and_slowed_none(capsys):
    assert trajectory.main(["compare", "PR 17 (parent)", "PR 17"]) == 0
    rows = printed_verdicts(capsys.readouterr().out)
    assert len(rows) == 6 * len(trajectory.METRICS)  # every workload x end-to-end metric
    assert rows["observe_mf40_cherrypick", "wall_s"] == "improved"
    assert "worse" not in rows.values()


def test_pr18_sped_up_the_event_bound_row_and_slowed_none(capsys):
    assert trajectory.main(["compare", "PR 18 (parent)", "PR 18"]) == 0
    rows = printed_verdicts(capsys.readouterr().out)
    assert len(rows) == 6 * len(trajectory.METRICS)
    assert rows["des_tiny160_cherrypick", "wall_s"] == "improved"
    assert "worse" not in rows.values()


def test_pr21_sped_up_the_threaded_row_and_slowed_none(capsys):
    assert trajectory.main(["compare", "PR 21 (parent)", "PR 21"]) == 0
    rows = printed_verdicts(capsys.readouterr().out)
    assert len(rows) == 6 * len(trajectory.METRICS)
    assert rows["rt_threaded4_adaptive", "iter_per_s"] == "improved"
    assert "worse" not in rows.values()


def test_pr22_merged_the_worker_loops_and_slowed_none(capsys):
    # A simplicity PR: no gain claimed, nothing may read worse, and the
    # machine under the DES engine left every simulated run as it was.
    assert trajectory.main(["compare", "PR 22 (parent)", "PR 22"]) == 0
    rows = printed_verdicts(capsys.readouterr().out)
    assert len(rows) == 6 * len(trajectory.METRICS)
    assert "worse" not in rows.values()
    by_label = {e["label"]: e["workloads"] for e in trajectory.load(trajectory.HISTORY)}
    digests = {
        label: {name: w["sim_digest"] for name, w in by_label[label].items()
                if w["sim_digest"] is not None}
        for label in ("PR 21", "PR 22 (parent)", "PR 22")
    }
    assert len(digests["PR 22"]) == 4
    assert digests["PR 22"] == digests["PR 22 (parent)"] == digests["PR 21"]


def test_pr26_dropped_the_unread_loss_and_slowed_none(capsys):
    assert trajectory.main(["compare", "PR 26 (parent)", "PR 26"]) == 0
    rows = printed_verdicts(capsys.readouterr().out)
    assert len(rows) == 6 * len(trajectory.METRICS)
    assert rows["des_tiny160_cherrypick", "wall_s"] == "improved"
    assert "worse" not in rows.values()


def test_simulated_behaviour_never_changed_along_the_trajectory():
    # Every perf PR on record claimed "same simulated run"; the digests say so.
    digests = {}
    for entry in trajectory.load(trajectory.HISTORY):
        for name, workload in entry["workloads"].items():
            if workload["sim_digest"] is not None:
                digests.setdefault((name, workload["seed"]), set()).add(workload["sim_digest"])
    assert len(digests) >= 4
    assert {key: len(values) for key, values in digests.items() if len(values) > 1} == {}
