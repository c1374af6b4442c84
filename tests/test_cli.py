"""Tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import EXPERIMENTS, WORKLOADS, build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "mf"
        assert args.scheme == "adaptive"
        assert args.workers == 40

    def test_compare_schemes(self):
        args = build_parser().parse_args(
            ["compare", "--schemes", "original", "adaptive", "bsp"]
        )
        assert args.schemes == ["original", "adaptive", "bsp"]

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig8"])
        assert args.name == "fig8"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_registry_completeness(self):
        # Every paper table/figure has a CLI entry.
        for name in ("table1", "table2") + tuple(
            f"fig{i}" for i in (3, 5, 8, 9, 10, 11, 12, 13)
        ):
            assert name in EXPERIMENTS
        assert set(WORKLOADS) == {"mf", "cifar10", "imagenet", "tiny"}


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mf" in out and "adaptive" in out and "fig8" in out

    def test_run_tiny(self, capsys):
        code = main(
            ["run", "--workload", "tiny", "--workers", "3", "--seed", "1",
             "--scheme", "original", "--horizon", "15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "asp" in out

    def test_run_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "run.json"
        code = main(
            ["run", "--workload", "tiny", "--workers", "3", "--horizon", "15",
             "--json", str(json_path)]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["workload"] == "tiny"

    def test_run_unknown_scheme_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "tiny", "--scheme", "nope",
                  "--workers", "2", "--horizon", "5"])

    def test_compare_tiny(self, capsys):
        code = main(
            ["compare", "--workload", "tiny", "--workers", "3",
             "--horizon", "20", "--schemes", "original", "adaptive",
             "--plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "specsync-adaptive" in out
        assert "= original" in out  # plot legend uses scheme keys

    def test_compare_heterogeneous_cluster(self, capsys):
        code = main(
            ["compare", "--workload", "tiny", "--workers", "4",
             "--heterogeneous", "--horizon", "10", "--schemes", "original"]
        )
        assert code == 0
        assert "m3.xlarge" in capsys.readouterr().out


def _write_runtime_module(tmp_path, source):
    """A fake ``repro.runtime`` package so runtime-zone rules fire."""
    package = tmp_path / "repro" / "runtime"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(source)
    return str(package / "mod.py")


_WARNING_ONLY = '''
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def peek(self):
        return self._value
'''

_CLEAN = '''
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def get(self):
        with self._lock:
            return self._value
'''

_WITH_ERROR = '''
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def get(self):
        with self._lock:
            with self._lock:
                return self._value
'''


class TestLintFailOn:
    def test_warning_fails_by_default(self, tmp_path, capsys):
        path = _write_runtime_module(tmp_path, _WARNING_ONLY)
        assert main(["lint", path]) == 1
        assert "CONC-UNLOCKED-STATE" in capsys.readouterr().out

    def test_fail_on_error_lets_warnings_pass(self, tmp_path, capsys):
        path = _write_runtime_module(tmp_path, _WARNING_ONLY)
        assert main(["lint", "--fail-on", "error", path]) == 0
        # The warning is still reported, just not fatal.
        assert "CONC-UNLOCKED-STATE" in capsys.readouterr().out

    def test_fail_on_error_still_fails_on_errors(self, tmp_path, capsys):
        path = _write_runtime_module(tmp_path, _WITH_ERROR)
        assert main(["lint", "--fail-on", "error", path]) == 1
        assert "CONC-LOCK-ORDER" in capsys.readouterr().out

    def test_clean_tree_passes_both_thresholds(self, tmp_path, capsys):
        # One small clean module: that all of src/repro is clean is
        # test_analysis_self_lint's assertion, not this one's.
        path = _write_runtime_module(tmp_path, _CLEAN)
        assert main(["lint", path]) == 0
        capsys.readouterr()
        assert main(["lint", "--fail-on", "error", path]) == 0

    def test_fail_on_never_always_passes(self, tmp_path, capsys):
        path = _write_runtime_module(tmp_path, _WITH_ERROR)
        assert main(["lint", "--fail-on", "never", path]) == 0
        # Findings are still reported; only the exit code is waived.
        assert "CONC-LOCK-ORDER" in capsys.readouterr().out


class TestModelcheckCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["modelcheck"])
        assert args.scheme == "all"
        assert args.workers == 3
        assert args.max_iterations == 2
        assert args.fail_on == "warning"
        assert args.mutants is False
        assert args.conformance is False

    def test_bsp_two_workers_passes(self, capsys):
        assert main(["modelcheck", "--scheme", "bsp", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "modelcheck: PASS" in out
        assert "bsp" in out

    def test_json_report_written(self, tmp_path, capsys):
        report_path = tmp_path / "modelcheck.json"
        code = main(
            ["modelcheck", "--scheme", "bsp", "--workers", "2",
             "--format", "json", "--output", str(report_path)]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["schemes"][0]["scheme"] == "bsp"
        # stdout carries the same JSON document
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_truncation_fails_the_gate(self, capsys):
        code = main(
            ["modelcheck", "--scheme", "specsync", "--workers", "2",
             "--max-states", "50"]
        )
        assert code == 1
        assert "MODEL-TRUNCATED" in capsys.readouterr().out

    def test_fail_on_never_waives_the_gate(self, capsys):
        code = main(
            ["modelcheck", "--scheme", "specsync", "--workers", "2",
             "--max-states", "50", "--fail-on", "never"]
        )
        assert code == 0

    def test_scheme_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["modelcheck", "--scheme", "psync"])


class TestExperimentCommand:
    def test_experiment_dispatch_uses_registry(self, capsys, monkeypatch):
        """The experiment subcommand resolves from EXPERIMENTS and prints
        the driver's render() output (stubbed for speed)."""
        from repro import cli

        class StubResult:
            def render(self):
                return "STUB-RENDERED-TABLE"

        calls = {}

        def stub_driver(scale, seed=3):
            calls["scale"] = scale
            calls["seed"] = seed
            return StubResult()

        monkeypatch.setitem(cli.EXPERIMENTS, "table1", stub_driver)
        code = main(["experiment", "table1", "--scale", "smoke", "--seed", "9"])
        assert code == 0
        assert "STUB-RENDERED-TABLE" in capsys.readouterr().out
        assert calls["seed"] == 9
        from repro.experiments import ExperimentScale

        assert calls["scale"] is ExperimentScale.SMOKE

    def test_all_registered_experiments_are_callable(self):
        for name, driver in EXPERIMENTS.items():
            assert callable(driver), name


class TestTraceCapture:
    """--trace capture on run."""

    def test_run_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            ["run", "--workload", "tiny", "--workers", "3", "--seed", "3",
             "--scheme", "adaptive", "--horizon", "30",
             "--trace", str(trace_path)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "trace events written" in err

        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["otherData"]["workload"] == "tiny"
        assert trace["otherData"]["scheme"] == "adaptive"
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"M", "X", "i"} <= phases
        # SpecSync on the tiny workload aborts: causality arrows exist.
        assert "s" in phases and "f" in phases


class TestAnalyzeCommand:
    """`repro analyze` — the one post-hoc reader of a trace file."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("analyze") / "trace.json"
        assert main(
            ["run", "--workload", "tiny", "--workers", "3", "--seed", "3",
             "--scheme", "adaptive", "--horizon", "30",
             "--trace", str(path)]
        ) == 0
        return path

    def test_text_report(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "speculation ledger" in out
        assert "staleness of applied pushes" in out

    def test_text_report_shows_what_was_recorded(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "events on 5 tracks (command=run" in out
        assert "data quality\n  flow origins: 5 emitted, 5 closed, 0 discarded" in out
        assert "sim.events_fired" in out

    def test_text_report_shows_phases_and_detectors(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "worker phase percentiles" in out
        assert "compute_aborted" in out
        assert "detectors: no stragglers; abort storm calm" in out

    def test_json_recording_accounts_for_the_trace(self, trace_path, capsys):
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        capsys.readouterr()
        assert main(["analyze", str(trace_path), "--format", "json"]) == 0
        recording = json.loads(capsys.readouterr().out)["recording"]
        assert recording["events"] == len(trace["traceEvents"])
        assert recording["metadata"]["workload"] == "tiny"
        assert recording["spans"]["iteration"]["count"] > 0
        assert recording["metrics"] == trace["metrics"]

    def test_json_runs_carry_phases_and_detectors(self, trace_path, capsys):
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert "perf" not in trace
        capsys.readouterr()
        assert main(["analyze", str(trace_path), "--format", "json"]) == 0
        analysis = json.loads(capsys.readouterr().out)
        assert "perf" not in analysis["recording"]
        (run,) = analysis["runs"]
        pushes = sum(w["pushes"] for w in run["ledger"]["per_worker"].values())
        assert run["phases"]["iteration"]["count"] == pushes > 0
        assert run["detectors"]["straggler"]["num_workers"] == 3
        assert run["detectors"]["abort_storm"]["total_aborts"] == run["total_aborts"]

    def test_json_reports_flow_accounting_and_aborts(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["analyze", str(trace_path), "--format", "json"]) == 0
        analysis = json.loads(capsys.readouterr().out)
        recording = analysis["recording"]
        counters = recording["metrics"]["counters"]
        assert counters["obs.flow_origins_registered"] > 0
        closed = counters["obs.flow_arrows_closed"]
        assert closed + counters.get("obs.flow_origins_discarded", 0) <= (
            counters["obs.flow_origins_registered"]
        )
        assert recording["flow_pairs"] == {"abort": closed}
        (run,) = analysis["runs"]
        per_worker = run["ledger"]["per_worker"]
        assert all(track.startswith("worker-") for track in per_worker)
        aborts = [w["aborts"] for w in per_worker.values()]
        assert sum(aborts) == recording["instants"]["abort"] > 0

    def test_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"traceEvents": []}', encoding="utf-8")
        assert main(["analyze", str(empty)]) == 0
        assert "trace file is empty" in capsys.readouterr().out
        assert main(["analyze", str(empty), "--format", "json"]) == 0
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["runs"] == []
        assert analysis["recording"]["events"] == 0

    def test_metrics_only_trace(self, tmp_path, capsys):
        metrics_only = tmp_path / "metrics.json"
        metrics_only.write_text(json.dumps({
            "traceEvents": [],
            "metrics": {
                "counters": {"sim.events_fired": 42},
                "gauges": {},
                "histograms": {},
            },
        }), encoding="utf-8")
        assert main(["analyze", str(metrics_only)]) == 0
        out = capsys.readouterr().out
        assert "metrics-only capture" in out
        assert "sim.events_fired | 42" in out
        assert main(["analyze", str(metrics_only), "--format", "json"]) == 0
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["recording"]["metrics"]["counters"] == {
            "sim.events_fired": 42
        }

    def test_missing_file_trips_the_gate(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1
        assert "TRACE-PARSE" in capsys.readouterr().out

    def test_missing_file_trips_the_gate_in_json_format(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["analyze", str(missing), "--format", "json"]) == 1
        out = capsys.readouterr().out
        assert "TRACE-PARSE" in out
        assert str(missing) in out

    def test_json_output(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "analysis.json"
        capsys.readouterr()
        assert main(
            ["analyze", str(trace_path), "--format", "json",
             "--output", str(out_path)]
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(out_path.read_text(encoding="utf-8"))
        assert printed == saved
        assert saved["schema_version"] == 3
        (run,) = saved["runs"]
        total = sum(run["critical_path"]["by_category"].values())
        assert abs(total - run["critical_path"]["total_s"]) <= (
            0.01 * run["critical_path"]["total_s"]
        )

    def test_compare_accepts_saved_analysis(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "analysis.json"
        assert main(
            ["analyze", str(trace_path), "--format", "json",
             "--output", str(out_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["analyze", str(trace_path), "--compare", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution deltas" in out
        assert "+0" in out

    def test_parse_error_trips_the_gate(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("not json", encoding="utf-8")
        assert main(["analyze", str(bogus)]) == 1
        assert "TRACE-PARSE" in capsys.readouterr().out

    def test_schema_error_trips_the_gate(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"not": "a trace"}', encoding="utf-8")
        assert main(["analyze", str(bogus)]) == 1
        assert "TRACE-SCHEMA" in capsys.readouterr().out

    @pytest.mark.parametrize("events, names", [
        ([3], "event #0 is not an object: 3"),
        ([{"ph": "M", "name": "thread_name", "tid": 1, "args": {"name": "w"}}],
         "event #0 ('thread_name', ph 'M') has no integer 'pid'"),
        ([{"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "worker-0"}},
          {"ph": "X", "name": "compute", "pid": 1, "tid": 1, "ts": "abc", "dur": 1.0}],
         "event #1 ('compute', ph 'X') has non-numeric ts 'abc'"),
    ], ids=["int-event", "thread-name-without-pid", "string-ts"])
    def test_malformed_event_trips_the_gate_by_name(self, tmp_path, capsys, events, names):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
        assert main(["analyze", str(bogus)]) == 1
        out = capsys.readouterr().out
        assert "TRACE-SCHEMA" in out
        assert names in out

    def test_non_object_json_trips_the_gate(self, tmp_path, capsys):
        bogus = tmp_path / "list.json"
        bogus.write_text("[1, 2]", encoding="utf-8")
        assert main(["analyze", str(bogus)]) == 1
        out = capsys.readouterr().out
        assert "TRACE-SCHEMA" in out
        assert "'traceEvents'" in out

    def test_garbage_trips_the_gate(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 1
        assert "TRACE-PARSE" in capsys.readouterr().out
        not_a_trace = tmp_path / "plain.json"
        not_a_trace.write_text('{"foo": 1}', encoding="utf-8")
        assert main(["analyze", str(not_a_trace)]) == 1
        assert "TRACE-SCHEMA" in capsys.readouterr().out

    def test_fail_on_never_reports_without_failing(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("not json", encoding="utf-8")
        assert main(["analyze", str(bogus), "--fail-on", "never"]) == 0
        assert "TRACE-PARSE" in capsys.readouterr().out

    def test_verbose_flag_logs_progress(self, capsys):
        import logging

        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            assert main(
                ["-v", "run", "--workload", "tiny", "--workers", "2",
                 "--seed", "1", "--scheme", "original", "--horizon", "10"]
            ) == 0
            err = capsys.readouterr().err
            assert "repro.engine" in err
            assert "run start" in err
        finally:
            for handler in list(root.handlers):
                if handler not in before:
                    root.removeHandler(handler)


class TestTopCommand:
    def _live_trace(self, tmp_path):
        """A drained live capture via the smoke path (also exercises it)."""
        trace_path = tmp_path / "live_trace.json"
        code = main([
            "top", "--smoke", "--once", "--json",
            "--duration", "0.4", "--drain", str(trace_path),
        ])
        assert code == 0
        return trace_path

    def test_parser_requires_exactly_one_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["top"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["top", "--smoke", "--attach", "live.json"]
            )
        args = build_parser().parse_args(["top", "--smoke", "--once"])
        assert args.smoke and args.once and not args.json

    def test_smoke_once_json_reports_sane_gauges(self, tmp_path, capsys):
        trace_path = self._live_trace(tmp_path)
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema_version"] == obs.ANALYSIS_SCHEMA_VERSION
        assert snapshot["totals"]["dropped_records"] == 0
        (run,) = snapshot["runs"]
        assert len(run["ledger"]["per_worker"]) == 4
        for entry in run["ledger"]["per_worker"].values():
            assert entry["pushes"] > 0
        assert "rt.queue.request_depth" in snapshot["recording"]["metrics"]["gauges"]
        assert "straggler" in run["detectors"]
        # The drained artifact is a real trace file.
        trace = json.loads(trace_path.read_text())
        assert "traceEvents" in trace

    def test_drained_capture_passes_analyze_gate(self, tmp_path, capsys):
        trace_path = self._live_trace(tmp_path)
        capsys.readouterr()
        code = main([
            "analyze", str(trace_path), "--format", "json",
            "--fail-on", "warning",
        ])
        assert code == 0
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["runs"]

    def test_drained_capture_analysis_matches_live_totals(self, tmp_path, capsys):
        trace_path = self._live_trace(tmp_path)
        live_snapshot = json.loads(capsys.readouterr().out)
        code = main(["analyze", str(trace_path), "--format", "json"])
        assert code == 0
        analysis = json.loads(capsys.readouterr().out)
        # The live snapshot is the analysis of the records it drained.
        assert analysis["runs"] == live_snapshot["runs"]
        assert analysis["recording"]["metrics"]["counters"] == live_snapshot["counters"]
        assert live_snapshot["totals"]["records"] > 0

    def test_attach_rejects_missing_spec(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["top", "--attach", str(missing), "--once"]) == 2

    def test_attach_reads_a_written_spec(self, tmp_path, capsys):
        from repro.obs.live import LiveTelemetrySession

        session = LiveTelemetrySession.create(num_workers=1, ring_bytes=4096)
        try:
            session.worker_ring(0).push(obs.MetricRecord("count", "rt.pushes", 2.0))
            spec_path = tmp_path / "live.json"
            session.write_spec(str(spec_path))
            code = main([
                "top", "--attach", str(spec_path), "--once", "--json",
            ])
            assert code == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert snapshot["counters"]["rt.pushes"] == 2.0
        finally:
            session.close()
            session.unlink()
