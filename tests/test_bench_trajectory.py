"""The committed performance trajectory: schema, append, and the rendered
table in EXPERIMENTS.md staying in step with the file."""

import json
import pathlib

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
    for commit in ("abc1234", "def5678"):
        assert trajectory.main(["append", str(suite), "--commit", commit,
                                "--label", "PR 0", "--date", "2026-01-01"]) == 0
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
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = text.split(trajectory.BEGIN)[1].split(trajectory.END)[0]
    assert block.strip() == trajectory.render(entries)
