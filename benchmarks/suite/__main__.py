"""``python -m benchmarks.suite``: run the benchmark, print every metric.

Each workload runs in a fresh subprocess (``benchmarks.suite.child``),
one at a time, with BLAS pinned to one thread before NumPy is imported.
This process imports neither NumPy nor ``repro`` and starts no thread.

With ``--workload NAME`` the last line of stdout is the one JSON object
the benchmark driver reads (``correct``, ``attempted``, ``failed``,
``metrics``); without it every workload runs.  The full records go to
``--out`` either way.  The exit code is non-zero when any rep failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.suite import spec

ROOT = pathlib.Path(__file__).resolve().parents[2]
CHILD_TIMEOUT_S = 170


def run_child(
    workload: str, seed: int, seconds: float, traced: bool, quick: bool
) -> Dict[str, object]:
    """Run one workload in a fresh subprocess and return its record."""
    env = dict(os.environ)
    env.update({variable: "1" for variable in spec.SINGLE_THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    command = [
        sys.executable, "-m", "benchmarks.suite.child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--traced", str(int(traced)), "--quick", str(int(quick)),
    ]
    # Its own session, so a timeout can also stop the processes it forked.
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: workload subprocess exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def print_record(record: Dict[str, object]) -> None:
    """Every metric by name and unit, then the check results."""
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        spread = (
            f"  (min {entry['min']:.6g}, q1 {entry['q1']:.6g}, "
            f"q3 {entry['q3']:.6g}, n={entry['n']})" if "n" in entry else ""
        )
        print(f"{name:26s} {metric:14s} {entry['value']:.6g} {entry['unit']}{spread}")
    units = {m.name: m.unit for m in spec.PER_LAYER}
    for metric, value in record.get("layers", {}).items():
        shown = "null" if value is None else f"{value:.6g} {units[metric]}"
        print(f"{name:26s} {metric:30s} {shown}")
    if record.get("unresolved_hooks"):
        print(f"{name:26s} unresolved_hooks {record['unresolved_hooks']}")
    print(f"{name:26s} sim_digest     {record['sim_digest']}")
    for index, rep in enumerate(record["reps"]):
        for failure in rep["failures"]:
            print(f"{name:26s} rep {index} FAILED: {failure}")


def contract_line(record: Dict[str, object]) -> str:
    """The driver's result object.  Untraced: every end-to-end metric of
    BENCHMARK.json; traced: every per-layer metric, ``null`` (unresolved
    or not on this substrate) written as 0 because the driver reads
    numbers — the record in ``--out`` keeps the distinction."""
    if record["traced"]:
        layers = record.get("layers", {})
        metrics = {
            m.name: {"value": layers.get(m.name) or 0.0, "unit": m.unit}
            for m in spec.PER_LAYER
        }
    else:
        metrics = {
            m.name: {key: record["metrics"][m.name][key] for key in ("value", "unit")}
            for m in spec.END_TO_END if m.in_contract and m.name in record["metrics"]
        }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def compare_sets(first: List[Dict], second: List[Dict]) -> bool:
    """``--repeat 2``: do two sets of the same commit agree?  Medians
    within the metric's bound; ``sim_ttc_s`` and the digests exactly."""
    agree = True
    for one, two in zip(first, second):
        name = one["workload"]
        for metric in spec.END_TO_END:
            a = one["metrics"].get(metric.name, {}).get("value")
            b = two["metrics"].get(metric.name, {}).get("value")
            if a is None or b is None:
                continue
            if metric.bound is None:
                verdict = a == b
                detail = "exact"
            else:
                change = abs(b - a) / a
                verdict = change <= metric.bound
                detail = f"{change:.1%} of bound {metric.bound:.0%}"
            agree &= verdict
            print(
                f"{name:26s} {metric.name:14s} {a:.6g} vs {b:.6g} {metric.unit}: "
                f"{'agree' if verdict else 'DISAGREE'} ({detail})"
            )
        same = one["sim_digest"] == two["sim_digest"]
        agree &= same
        print(f"{name:26s} sim_digest     {'agree' if same else 'DISAGREE'}")
    return agree


def main(argv: Optional[List[str]] = None) -> int:
    names = [w.name for w in spec.WORKLOADS]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    parser.add_argument("--workload", choices=names, help="run one workload (default: all)")
    parser.add_argument(
        "--seed", type=int, default=spec.DEFAULT_SEED,
        help=f"default {spec.DEFAULT_SEED}; {spec.HELD_OUT_SEED} is the held-out seed",
    )
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", "--traced", type=int, nargs="?", const=1, default=0,
                        help="1: reps with harness spans; print the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="self-test: reduced horizons/durations, whole suite < 25 s")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many full sets and report whether they agree")
    parser.add_argument("--out", default="BENCH_suite.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks.suite: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else names
    sets: List[List[Dict]] = []
    for _ in range(args.repeat):
        records = []
        for name in selected:
            record = run_child(name, args.seed, args.seconds, bool(args.trace), args.quick)
            print_record(record)
            records.append(record)
        sets.append(records)
    failed = sum(record["failed"] for records in sets for record in records)

    if args.quick and not args.workload:
        # Seed sanity: the held-out seed must be a different simulation.
        name = "des_tiny160_cherrypick"
        other = run_child(name, spec.HELD_OUT_SEED, args.seconds, False, True)
        ours = next(r for r in sets[0] if r["workload"] == name)
        if args.seed != spec.HELD_OUT_SEED and other["sim_digest"] == ours["sim_digest"]:
            print(f"{name}: seeds {args.seed} and {spec.HELD_OUT_SEED} give the same digest")
            failed += 1
    if args.repeat > 1 and not compare_sets(sets[0], sets[1]):
        failed += 1

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"schema_version": 1, "sets": sets}, handle, indent=1)
        handle.write("\n")
    print(f"failed_share > 0 on {failed} check(s)" if failed else "all checks passed")
    if args.workload:
        print(contract_line(sets[-1][0]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
