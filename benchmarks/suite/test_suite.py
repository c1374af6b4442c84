"""Self-test of the benchmark harness.

Run as ``PYTHONPATH=src python -m pytest benchmarks/suite -q`` from the
repository root (not part of tier-1: ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.suite import __main__ as suite
from benchmarks.suite import spec
from benchmarks.suite.tracing import Hook, SpanLog, install

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
QUICK_DES = "des_tiny160_cherrypick"


def test_tables_have_the_agreed_shape():
    assert len(spec.WORKLOADS) == 6
    assert len(spec.END_TO_END) == 6
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = [x.name for x in (*spec.WORKLOADS, *spec.END_TO_END, *spec.PER_LAYER)]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m.unit) for m in (*spec.END_TO_END, *spec.PER_LAYER))
    assert all(m.better in ("lower", "higher") for m in (*spec.END_TO_END, *spec.PER_LAYER))
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)


def test_every_layer_metric_names_what_it_should_move_and_where():
    workloads = {w.name for w in spec.WORKLOADS}
    end_to_end = {m.name for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        assert metric.on and set(metric.on) <= workloads, metric.name
        assert set(metric.moves) <= end_to_end, metric.name
        if not metric.name.startswith("bench."):  # the cost of looking moves nothing
            assert metric.moves, metric.name
    for metric in spec.END_TO_END:
        assert set(metric.workloads) <= workloads


def test_benchmark_json_agrees_with_the_harness():
    with open(suite.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json()
    # ... and the harness's tables meet the driver's contract.
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= committed["run_seconds"] <= 60
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in committed["end_to_end"])


def test_span_self_times_tile_the_root():
    log = SpanLog()
    leaf = log.wrap(lambda: sum(range(2000)), "leaf")
    middle = log.wrap(lambda: [leaf() for _ in range(3)], "middle")
    log.wrap(lambda: (middle(), leaf()), "root")()
    totals = log.totals()
    assert totals["leaf"].calls == 4 and totals["middle"].calls == 1
    assert sum(t.self_s for t in totals.values()) == pytest.approx(totals["root"].total_s)


def test_a_renamed_hook_target_degrades_to_unresolved():
    class Store:
        def apply_push(self):
            return 1

    class Engine:
        store = Store()

    log = SpanLog()
    unresolved = install(log, Engine(), [
        Hook("ps.apply", "store.apply_push"),
        Hook("ps.snapshot", "store.renamed_snapshot"),
        Hook("core.notify", "policy.scheduler.handle_notify"),
    ])
    assert unresolved == ["store.renamed_snapshot", "policy.scheduler.handle_notify"]
    assert Engine.store.apply_push() == 1 and log.totals()["ps.apply"].calls == 1


def test_traced_run_tiles_its_wall_and_reports_every_layer_metric():
    record = suite.run_child(QUICK_DES, spec.DEFAULT_SEED, 1.0, traced=True, quick=True)
    assert record["failed"] == 0 and record["unresolved_hooks"] == []
    tiling = record["tiling"]
    assert sum(tiling["self_s_by_span"].values()) == pytest.approx(tiling["traced_wall_s"])
    layers = record["layers"]
    assert set(layers) == {m.name for m in spec.PER_LAYER}
    assert 0 <= layers["bench.tiling_residual_share"] < 0.05
    assert layers["core.tune_calls"] > 0 and layers["obs.export_s"] is None
    line = json.loads(suite.contract_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(layers)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_an_induced_failing_check_raises_failed_share():
    from benchmarks.suite.child import measure
    from benchmarks.suite.workloads import make_workload

    workload = make_workload(QUICK_DES, quick=True, seconds=1.0)
    run = workload.run

    def run_then_lose_a_push(state):
        outcome = run(state)
        state.result.traces.pushes.pop()
        return outcome

    workload.run = run_then_lose_a_push
    record = measure(workload, QUICK_DES, spec.DEFAULT_SEED, 0.0, traced=False)
    assert record["metrics"]["failed_share"]["value"] > 0
    assert "recorded pushes" in record["reps"][0]["failures"][0]
    line = json.loads(suite.contract_line(record))
    assert line["correct"] is False and line["failed"] == line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in spec.END_TO_END if m.in_contract}


def test_exits_nonzero_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(suite.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        suite.ROOT / "benchmarks" / "suite", tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--workload", QUICK_DES,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
