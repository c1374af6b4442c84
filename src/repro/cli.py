"""Command-line interface.

Subcommands::

    repro list                          # available workloads and schemes
    repro run --workload mf --scheme adaptive --workers 40
    repro compare --workload cifar10 --schemes original adaptive
    repro experiment fig8               # regenerate a paper table/figure
    repro analyze out.json              # the one trace report: critical
                                        # path, speculation ledger,
                                        # staleness, phases, detectors,
                                        # what was recorded
    repro top --smoke --once --json     # the same report, live, over what
                                        # the shm telemetry rings delivered
    repro lint [--format json] [paths…] # codebase-specific static analysis
    repro modelcheck [--workers 3]      # explicit-state model checking of
                                        # the abort/re-sync protocol

``run``, ``compare`` and ``experiment`` accept ``--trace PATH`` to capture
a Chrome trace-event (Perfetto) file of the whole invocation; ``-v``
routes the :mod:`repro.obs` loggers to stderr.

Every experiment the benchmark harness runs is reachable from here, so the
paper's evaluation can be regenerated without pytest.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import repro
from repro import obs
from repro.analysis import render_json, render_text, run_lint
from repro.analysis.gate import add_fail_on_argument, gate_exit_code
from repro.analysis.model.specsync import SCHEMES as MODEL_SCHEMES

from repro.cluster.spec import ClusterSpec
from repro.experiments import (
    ExperimentScale,
    run_fig3,
    run_fig5,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_table1,
    run_table2,
    scheme_catalog,
)
from repro.experiments import ablations as _ablations
from repro.metrics.serialize import run_summary_to_dict
from repro.utils.ascii_plot import ascii_plot
from repro.utils.tables import TextTable, format_bytes
from repro.workloads import (
    cifar10_workload,
    imagenet_workload,
    matrix_factorization_workload,
    tiny_workload,
)

__all__ = ["main", "build_parser"]

WORKLOADS: Dict[str, Callable] = {
    "mf": matrix_factorization_workload,
    "cifar10": cifar10_workload,
    "imagenet": imagenet_workload,
    "tiny": tiny_workload,
}

EXPERIMENTS: Dict[str, Callable[[ExperimentScale], object]] = {
    "table1": run_table1,
    "fig3": run_fig3,
    "fig5": run_fig5,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "table2": run_table2,
    "ablation-broadcast": _ablations.run_ablation_broadcast,
    "ablation-ssp": _ablations.run_ablation_specsync_ssp,
    "ablation-abort-budget": _ablations.run_ablation_abort_budget,
    "ablation-sensitivity": _ablations.run_ablation_sensitivity,
    "ablation-optimizer": _ablations.run_ablation_optimizer,
    "ablation-failure-injection": _ablations.run_ablation_failure_injection,
    "ablation-orthogonality": _ablations.run_ablation_orthogonality,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpecSync reproduction: run workloads, compare schemes, "
                    "regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, schemes, and experiments")

    run_parser = sub.add_parser("run", help="run one scheme on one workload")
    _add_run_args(run_parser)
    run_parser.add_argument("--scheme", default="adaptive",
                            help="scheme key (see `repro list`)")
    run_parser.add_argument("--json", metavar="PATH",
                            help="write a JSON run summary to PATH")
    run_parser.add_argument("--plot", action="store_true",
                            help="render the loss curve as ASCII art")

    compare_parser = sub.add_parser(
        "compare", help="race several schemes on one workload"
    )
    _add_run_args(compare_parser)
    compare_parser.add_argument(
        "--schemes", nargs="+", default=["original", "adaptive"],
        help="scheme keys to race",
    )
    compare_parser.add_argument("--plot", action="store_true",
                                help="overlay the loss curves as ASCII art")

    exp_parser = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    exp_parser.add_argument("name", choices=sorted(EXPERIMENTS),
                            help="which experiment to run")
    exp_parser.add_argument("--scale", choices=["full", "smoke"],
                            default="full")
    exp_parser.add_argument("--seed", type=int, default=3)
    exp_parser.add_argument(
        "--trace", metavar="PATH",
        help="capture a Chrome trace-event (Perfetto) file of the "
             "whole experiment",
    )

    analyze_parser = sub.add_parser(
        "analyze",
        help="the trace report: critical-path attribution, speculation "
             "ledger, staleness, worker phase percentiles, straggler and "
             "abort-storm verdicts, data quality",
    )
    analyze_parser.add_argument("path", help="trace JSON file to analyze")
    analyze_parser.add_argument("--format", choices=["text", "json"],
                                default="text")
    analyze_parser.add_argument(
        "--compare", metavar="OTHER",
        help="diff against another trace (or a saved analysis JSON)",
    )
    analyze_parser.add_argument(
        "--output", metavar="PATH",
        help="also write the analytics JSON to PATH (for CI artifacts)",
    )
    add_fail_on_argument(analyze_parser)

    top_parser = sub.add_parser(
        "top",
        help="live `repro analyze` report of what the telemetry rings "
             "delivered: attach to a live-exported run, or run the "
             "multiprocess smoke workload with the shm ring exporter enabled",
    )
    top_mode = top_parser.add_mutually_exclusive_group(required=True)
    top_mode.add_argument(
        "--attach", metavar="SPEC.json",
        help="attach to a running live-exported session via its ring "
             "spec file (this process becomes the single consumer)",
    )
    top_mode.add_argument(
        "--smoke", action="store_true",
        help="run the multiprocess smoke workload with live export and "
             "watch it",
    )
    top_parser.add_argument(
        "--interval", type=float, default=0.5,
        help="refresh/poll interval in wall seconds (default 0.5)",
    )
    top_parser.add_argument(
        "--duration", type=float, default=None,
        help="how long to watch, in wall seconds (smoke run default 0.6; "
             "attach default: until interrupted)",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="emit a single final snapshot instead of a refreshing view",
    )
    top_parser.add_argument(
        "--json", action="store_true",
        help="emit the final snapshot as JSON, the `repro analyze "
             "--format json` document plus totals and counters",
    )
    top_parser.add_argument("--seed", type=int, default=0,
                            help="--smoke workload seed")
    top_parser.add_argument(
        "--drain", metavar="PATH",
        help="serialize the captured stream to a trace file at "
             "PATH when the dashboard ends (repro analyze reads it)",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="run the repro-specific static-analysis suite "
             "(determinism, concurrency, flow)",
    )
    lint_parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    lint_parser.add_argument("--format", choices=["text", "json"],
                             default="text")
    lint_parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings waived by # repro: allow[...] comments",
    )
    lint_parser.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help="run only this rule id (repeatable, e.g. --rule FLOW-RELEASE)",
    )
    lint_parser.add_argument(
        "--pack", action="append", default=None, metavar="NAME",
        help="run only this rule pack (repeatable: determinism, "
             "concurrency, flow); unions with --rule",
    )
    lint_parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the findings (in the selected --format) to PATH",
    )
    add_fail_on_argument(lint_parser)

    model_parser = sub.add_parser(
        "modelcheck",
        help="exhaustively model-check the SpecSync abort/re-sync "
             "protocol (invariants, deadlock, liveness) and optionally "
             "run the mutation harness and DES trace conformance",
    )
    model_parser.add_argument(
        "--scheme", choices=list(MODEL_SCHEMES) + ["all"], default="all",
        help="which synchronization scheme's model to explore",
    )
    model_parser.add_argument("--workers", type=int, default=3,
                              help="modelled worker count m")
    model_parser.add_argument("--max-iterations", type=int, default=2,
                              help="iteration bound that closes the state space")
    model_parser.add_argument("--abort-rate", type=float, default=0.5,
                              help="re-sync threshold as a fraction of m")
    model_parser.add_argument("--staleness-bound", type=int, default=1,
                              help="SSP staleness bound s")
    model_parser.add_argument("--abort-budget", type=int, default=1,
                              help="max aborts per worker per iteration")
    model_parser.add_argument("--max-states", type=int, default=2_000_000,
                              help="exploration cap (hitting it fails the run)")
    model_parser.add_argument(
        "--mutants", action="store_true",
        help="also run the seeded-mutation harness (every known protocol "
             "bug must be rejected with a counterexample)",
    )
    model_parser.add_argument(
        "--conformance", action="store_true",
        help="also shadow one seeded DES run per scheme against the model",
    )
    model_parser.add_argument("--seed", type=int, default=0,
                              help="seed for the --conformance DES run")
    model_parser.add_argument("--format", choices=["text", "json"],
                              default="text")
    model_parser.add_argument(
        "--output", metavar="PATH",
        help="also write the JSON report (with counterexample traces) "
             "to PATH (for CI artifacts)",
    )
    add_fail_on_argument(model_parser)
    return parser


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="mf")
    parser.add_argument("--workers", type=int, default=40)
    parser.add_argument("--heterogeneous", action="store_true",
                        help="use the paper's Cluster-2 instance mix")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--horizon", type=float, default=None,
                        help="virtual-time horizon in seconds")
    parser.add_argument("--no-early-stop", action="store_true",
                        help="run the full horizon even after convergence")
    parser.add_argument(
        "--trace", metavar="PATH",
        help="capture a Chrome trace-event (Perfetto) file of the "
             "whole invocation",
    )


@contextmanager
def _maybe_trace(args):
    """Capture the whole command in a Chrome trace when ``--trace`` is set.

    Enablement is process-wide (:func:`repro.obs.collecting`), so engines
    and runtimes constructed arbitrarily deep inside the workload code pick
    up the collector without any plumbing through their constructors.
    """
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        yield
        return
    collector = obs.TraceCollector()
    collector.metadata["command"] = args.command
    for key in ("workload", "scheme", "name", "seed", "workers"):
        value = getattr(args, key, None)
        if value is not None:
            collector.metadata[key] = value
    with obs.collecting(collector):
        yield
    with open(trace_path, "w", encoding="utf-8") as handle:
        count = obs.write_chrome_trace(collector, handle)
    print(f"{count} trace events written to {trace_path}", file=sys.stderr)


def _build_cluster(args) -> ClusterSpec:
    if args.heterogeneous:
        per_type = max(1, args.workers // 4)
        return ClusterSpec.heterogeneous(
            [("m3.xlarge", per_type), ("m3.2xlarge", per_type),
             ("m4.xlarge", per_type), ("m4.2xlarge", per_type)]
        )
    return ClusterSpec.homogeneous(args.workers)


def _run_one(args, scheme_key: str):
    workload = WORKLOADS[args.workload]()
    catalog = scheme_catalog(workload.name)
    if scheme_key not in catalog:
        known = ", ".join(sorted(catalog))
        raise SystemExit(f"unknown scheme {scheme_key!r}; known: {known}")
    cluster = _build_cluster(args)
    result = workload.run(
        cluster,
        catalog[scheme_key].make(),
        seed=args.seed,
        horizon_s=args.horizon,
        early_stop=not args.no_early_stop,
    )
    return workload, result


def _result_row(workload, result) -> List[str]:
    time_to_conv = result.time_to_convergence(workload.convergence)
    return [
        result.scheme,
        f"{time_to_conv:.0f}s" if time_to_conv is not None else "never",
        str(result.total_iterations),
        str(result.total_aborts),
        f"{result.mean_staleness:.1f}",
        f"{result.final_loss:.4f}",
        format_bytes(result.total_transfer_bytes),
    ]


def _cmd_list() -> int:
    table = TextTable(["workload", "target loss", "iteration time", "horizon"])
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        table.add_row([
            name,
            workload.convergence.target_loss,
            f"{workload.paper_iteration_time_s:g}s",
            f"{workload.default_horizon_s:g}s",
        ])
    print(table.render())
    print("\nschemes: " + ", ".join(sorted(scheme_catalog("mf"))))
    print("experiments: " + ", ".join(sorted(EXPERIMENTS)))
    return 0


def _cmd_run(args) -> int:
    workload, result = _run_one(args, args.scheme)
    table = TextTable(
        ["scheme", "time to target", "iterations", "aborts",
         "mean staleness", "final loss", "transfer"],
        title=f"{workload.name} on {_build_cluster(args).describe()}",
    )
    table.add_row(_result_row(workload, result))
    print(table.render())
    if args.plot:
        print()
        print(ascii_plot({result.scheme: result.curve.as_series()},
                         x_label="virtual s", y_label="loss"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(run_summary_to_dict(result), handle, indent=2)
        print(f"\nsummary written to {args.json}")
    return 0


def _cmd_compare(args) -> int:
    workload = WORKLOADS[args.workload]()
    table = TextTable(
        ["scheme", "time to target", "iterations", "aborts",
         "mean staleness", "final loss", "transfer"],
        title=(
            f"{workload.name} (target {workload.convergence.target_loss}) "
            f"on {_build_cluster(args).describe()}"
        ),
    )
    results = {}
    for scheme_key in args.schemes:
        _, result = _run_one(args, scheme_key)
        results[scheme_key] = result
        table.add_row(_result_row(workload, result))
    print(table.render())

    baseline_key = args.schemes[0]
    baseline_time = results[baseline_key].time_to_convergence(workload.convergence)
    if baseline_time is not None:
        for scheme_key in args.schemes[1:]:
            this_time = results[scheme_key].time_to_convergence(workload.convergence)
            if this_time is not None:
                print(f"{scheme_key} speedup over {baseline_key}: "
                      f"{baseline_time / this_time:.2f}x")
    if args.plot:
        print()
        print(ascii_plot(
            {k: r.curve.as_series() for k, r in results.items()},
            x_label="virtual s", y_label="loss",
        ))
    return 0


def _cmd_experiment(args) -> int:
    scale = ExperimentScale.SMOKE if args.scale == "smoke" else ExperimentScale.FULL
    driver = EXPERIMENTS[args.name]
    result = driver(scale, seed=args.seed)
    print(result.render())
    return 0


def _load_analysis(path: str) -> dict:
    """Load ``path`` as analytics JSON, analyzing it first if it is a trace.

    Accepts either a ``--trace`` capture (``traceEvents``) or a saved
    ``repro analyze --output`` file (``runs``), so comparisons work
    against both raw and pre-digested artifacts.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "runs" in data and "traceEvents" not in data:
        if data.get("schema_version") != obs.ANALYSIS_SCHEMA_VERSION:
            raise obs.AnalysisError(
                f"unsupported analysis schema_version "
                f"{data.get('schema_version')!r} "
                f"(this build reads v{obs.ANALYSIS_SCHEMA_VERSION})"
            )
        return data
    return obs.analyze_trace(data)


def _cmd_analyze(args) -> int:
    from repro.analysis.findings import Finding, Severity

    def _gate_error(rule_id: str, message: str) -> int:
        findings = [Finding(
            rule_id=rule_id, severity=Severity.ERROR,
            path=args.path, line=1, message=message,
        )]
        print(render_text(findings))
        return gate_exit_code(findings, args.fail_on)

    try:
        analysis = _load_analysis(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        return _gate_error("TRACE-PARSE", f"cannot read trace: {exc}")
    except obs.AnalysisError as exc:
        return _gate_error("TRACE-SCHEMA", str(exc))

    if args.compare:
        try:
            other = _load_analysis(args.compare)
        except (OSError, json.JSONDecodeError) as exc:
            return _gate_error("TRACE-PARSE", f"cannot read comparison: {exc}")
        except obs.AnalysisError as exc:
            return _gate_error("TRACE-SCHEMA", str(exc))
        print(obs.render_analysis_comparison(other, analysis))
    elif args.format == "json":
        print(json.dumps(analysis, indent=1, sort_keys=True))
    else:
        print(obs.render_analysis_text(analysis))

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(analysis, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"analytics written to {args.output}", file=sys.stderr)

    # A collector-only multiprocess capture holds the parent's view alone:
    # its workers wrote nowhere it could read, so nothing can be attributed.
    findings = [
        Finding(
            rule_id="TRACE-NO-WORKER-SPANS", severity=Severity.WARNING,
            path=args.path, line=1,
            message=f"run {run['index']} ({run['domain']} time) has no "
                    "worker spans, so its critical path and ledger are "
                    "empty; a multiprocess run's workers record only into "
                    "live rings: capture it with `repro top --drain`",
        )
        for run in analysis["runs"] if run["critical_path"]["track"] is None
    ]
    if findings:
        print(render_text(findings), file=sys.stderr)
    return gate_exit_code(findings, args.fail_on)


def _drain_live_capture(aggregator, path: str) -> None:
    """Serialize an aggregator's retained stream to a trace file."""
    collector = obs.TraceCollector()
    collector.metadata["command"] = "top"
    aggregator.drain_to_collector(collector)
    with open(path, "w", encoding="utf-8") as handle:
        count = obs.write_chrome_trace(collector, handle)
    print(f"{count} trace events written to {path}", file=sys.stderr)


def _cmd_top(args) -> int:
    import time

    from repro.obs.live import LiveTelemetrySession, render_frame, run_dashboard

    def emit(snapshot: dict) -> None:
        if args.json:
            print(json.dumps(snapshot, indent=1, sort_keys=True))
        else:
            print(render_frame(snapshot))

    if args.attach:
        try:
            session = LiveTelemetrySession.load_spec(args.attach)
        except (OSError, ValueError) as exc:
            print(f"repro top: error: {exc}", file=sys.stderr)
            return 2
        aggregator = session.aggregator()
        try:
            snapshot = run_dashboard(
                aggregator,
                now_fn=time.monotonic,
                sleep_fn=time.sleep,
                write=sys.stdout.write,
                interval_s=args.interval,
                duration_s=args.duration,
                once=args.once,
                as_json=args.json,
            )
        finally:
            session.close()
        if args.drain:
            _drain_live_capture(aggregator, args.drain)
        return 0

    # --smoke: a small multiprocess workload with the ring exporters on;
    # this CLI process is the single consumer of the rings.
    import threading

    import numpy as np

    from repro.cluster.compute import ComputeTimeModel
    from repro.core.tuning import AdaptiveTuner
    from repro.ml import SoftmaxRegressionModel, SyntheticImageDataset
    from repro.ml.optim import ConstantSchedule, SgdUpdateRule
    from repro.runtime.multiprocess import MultiprocessRun

    dataset = SyntheticImageDataset(
        num_classes=3, feature_dim=8, num_samples=800,
        class_separation=3.0, warp=False, seed=0,
    )
    partitions = dataset.partition(4, np.random.default_rng(0))
    session = LiveTelemetrySession.create(num_workers=len(partitions))
    duration = args.duration if args.duration is not None else 0.6
    failure: List[BaseException] = []

    def _run() -> None:
        try:
            MultiprocessRun(
                model=SoftmaxRegressionModel(input_dim=8, num_classes=3),
                partitions=partitions,
                eval_batch=dataset.eval_batch(),
                update_rule=SgdUpdateRule(ConstantSchedule(0.2)),
                compute_model=ComputeTimeModel(mean_time_s=3.0, jitter_sigma=0.1),
                batch_size=32,
                time_scale=0.004, tuner=AdaptiveTuner(), seed=args.seed,
                live_session=session,
            ).run(duration_s=duration)
        except BaseException as exc:  # surfaced after the join below
            failure.append(exc)

    runner = threading.Thread(target=_run, daemon=True)
    try:
        runner.start()
        aggregator = session.aggregator()
        if args.once:
            # Poll quietly while the run is live (keeps the rings from
            # ever filling), then print one final snapshot.
            while runner.is_alive():
                aggregator.poll()
                time.sleep(min(args.interval, 0.1))
            runner.join()
            aggregator.poll()
            emit(aggregator.snapshot())
        else:
            run_dashboard(
                aggregator,
                now_fn=time.monotonic,
                sleep_fn=time.sleep,
                write=sys.stdout.write,
                interval_s=args.interval,
                duration_s=args.duration,
                once=False,
                as_json=args.json,
                stop_when=lambda: not runner.is_alive(),
            )
            runner.join()
        if args.drain:
            _drain_live_capture(aggregator, args.drain)
    finally:
        session.close()
        session.unlink()
    if failure:
        print(f"repro top: smoke run failed: {failure[0]}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.rules import rules_for

    paths = args.paths or [os.path.dirname(os.path.abspath(repro.__file__))]
    try:
        rules = rules_for(rule_ids=args.rule, packs=args.pack)
    except ValueError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    try:
        findings = run_lint(paths, rules=rules)
    except FileNotFoundError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        rendered = render_json(findings)
    else:
        rendered = render_text(findings, show_suppressed=args.show_suppressed)
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return gate_exit_code(findings, args.fail_on)


def _cmd_modelcheck(args) -> int:
    from repro.analysis.model import run_modelcheck

    report = run_modelcheck(
        schemes=None if args.scheme == "all" else [args.scheme],
        workers=args.workers,
        max_iterations=args.max_iterations,
        abort_rate=args.abort_rate,
        staleness_bound=args.staleness_bound,
        abort_budget=args.abort_budget,
        max_states=args.max_states,
        mutants=args.mutants,
        conformance=args.conformance,
        seed=args.seed,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"report written to {args.output}", file=sys.stderr)
    return gate_exit_code(report.findings, args.fail_on)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        obs.attach_cli_handler(
            logging.DEBUG if args.verbose > 1 else logging.INFO
        )
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        with _maybe_trace(args):
            return _cmd_run(args)
    if args.command == "compare":
        with _maybe_trace(args):
            return _cmd_compare(args)
    if args.command == "experiment":
        with _maybe_trace(args):
            return _cmd_experiment(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "modelcheck":
        return _cmd_modelcheck(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
