"""The committed performance trajectory, and the one rule by which two
measurements are compared.

``trajectory.jsonl`` is append-only: one JSON object per line, one line per
measured commit, copied from the ``BENCH_suite.json`` that
``python3 -m benchmarks.suite`` wrote for that commit.  Entries are only
comparable when they were measured on the same machine, so a PR that claims
a gain appends two — its parent and itself, measured back to back.

    python3 -m benchmarks.suite
    python3 -m benchmarks.history.trajectory compare "PR 13" BENCH_suite.json
    python3 -m benchmarks.history.trajectory append BENCH_suite.json \\
        --commit "$(git rev-parse --short HEAD)" --label "PR 16" --date 2026-09-29
    python3 -m benchmarks.history.trajectory render --into EXPERIMENTS.md

``compare OLD NEW`` takes each side as a ``BENCH_suite.json`` path or the
``label`` of a trajectory entry and prints one verdict per workload and
end-to-end metric.  It has no tolerance option: the bound is the metric's
in ``BENCHMARK.json`` and the spread is OLD's recorded quartiles.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

SCHEMA_VERSION = 1
HISTORY = pathlib.Path(__file__).with_name("trajectory.jsonl")
BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: The end-to-end metrics of BENCHMARK.json, in the order the table shows them.
METRICS = ("wall_s", "iter_per_s", "setup_s", "peak_rss_mb")
#: What is kept of each metric: the reported value (on simulated workloads
#: the undisturbed wall, see benchmarks/suite/README.md), then the spread.
FIELDS = ("value", "unit", "median", "q1", "q3", "n")
BEGIN, END = "<!-- trajectory:begin -->", "<!-- trajectory:end -->"
#: Measured in seconds but not a self time: the gap between an obs-enabled
#: and an obs-disabled run, already inside the layers it slowed down.
OVERLAPPING_LAYERS = ("obs.trace_overhead_s",)


def entry_from_suite(suite: Dict, commit: str, label: str, date: str) -> Dict:
    """One trajectory line from a loaded ``BENCH_suite.json`` (last set)."""
    workloads = {}
    for record in suite["sets"][-1]:
        if record["traced"] or record["quick"] or record["failed"]:
            raise ValueError(
                f"{record['workload']}: the trajectory takes full, untraced, "
                "all-checks-passed runs only"
            )
        workloads[record["workload"]] = {
            "seed": record["seed"],
            "sim_digest": record["sim_digest"],
            "metrics": {
                name: {k: record["metrics"][name][k] for k in FIELDS
                       if k in record["metrics"][name]}
                for name in METRICS
            },
        }
    return {"schema_version": SCHEMA_VERSION, "commit": commit, "label": label,
            "date": date, "workloads": workloads}


def load(path: pathlib.Path) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _cell(metric: Dict) -> str:
    if "q1" not in metric:  # peak_rss_mb: one reading per run
        return f"{metric['value']:.4g}"
    return f"{metric['value']:.4g} ({metric['q1']:.4g}–{metric['q3']:.4g}, n={metric['n']})"


def render(entries: List[Dict]) -> str:
    """The trajectory as a markdown table, one row per entry × workload."""
    lines = [
        "| entry | workload | " + " | ".join(METRICS) + " | sim_digest |",
        "|---|---|" + "---|" * len(METRICS) + "---|",
    ]
    for entry in entries:
        who = f"{entry['label']} `{entry['commit']}` {entry['date']}"
        for name, workload in entry["workloads"].items():
            cells = " | ".join(_cell(workload["metrics"][m]) for m in METRICS)
            digest = (workload["sim_digest"] or "—")[:8]
            lines.append(f"| {who} | `{name}` | {cells} | `{digest}` |")
    return "\n".join(lines)


def load_side(ref: str) -> Dict[str, Dict]:
    """One side of a comparison, workload name -> record: the last set of
    the ``BENCH_suite.json`` at ``ref``, or the trajectory entry labelled
    ``ref``.  Both keep ``metrics`` in one shape; only a traced suite
    record also carries ``layers`` and ``tiling``."""
    if pathlib.Path(ref).is_file():
        with open(ref, encoding="utf-8") as handle:
            records = json.load(handle)["sets"][-1]
        failed = [record["workload"] for record in records if record["failed"]]
        if failed:
            raise ValueError(f"{ref}: reps failed their checks on {', '.join(failed)}")
        return {record["workload"]: record for record in records}
    entries = load(HISTORY)
    for entry in entries:
        if entry["label"] == ref:
            return entry["workloads"]
    labels = ", ".join(repr(entry["label"]) for entry in entries)
    raise ValueError(f"{ref!r} is neither a file nor a trajectory label ({labels})")


def verdict(old: Dict, new: Dict, better: str, bound: float) -> str:
    """``worse`` / ``unresolved`` / ``improved`` / ``held`` for one metric.

    ``old`` and ``new`` are metric summaries; the reported ``value`` is
    compared (on simulated rows the undisturbed wall) and the spread is
    ``old``'s own q3 − q1.  A metric recorded without quartiles
    (``peak_rss_mb``) is judged by the bound alone.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["value"] - old["value"])
    allowed = bound * abs(old["value"])
    if worsening > allowed:
        return "worse"
    if "q1" not in old:
        return "improved" if -worsening > allowed else "held"
    spread = old["q3"] - old["q1"]
    overlap = "q1" in new and new["q1"] <= old["q3"] and old["q1"] <= new["q3"]
    if spread > allowed and overlap:
        return "unresolved"
    return "improved" if -worsening > spread else "held"


def compare(old: Dict[str, Dict], new: Dict[str, Dict], benchmark: Dict) -> List[Dict]:
    """One row per workload × end-to-end metric of ``benchmark`` (a loaded
    ``BENCHMARK.json``).  A workload or metric only one side has reads
    ``missing``; it is reported, not judged."""
    rows = []
    for workload in sorted(set(old) | set(new)):
        for metric in benchmark["end_to_end"]:
            sides = [
                side.get(workload, {}).get("metrics", {}).get(metric["name"])
                for side in (old, new)
            ]
            row = {"workload": workload, "metric": metric["name"],
                   "old": sides[0], "new": sides[1], "verdict": "missing"}
            if None not in sides:
                row["verdict"] = verdict(*sides, metric["better"], metric["bound"])
            rows.append(row)
    return rows


def layer_deltas(
    old: Dict, new: Dict, benchmark: Dict
) -> Optional[Tuple[float, List[Tuple[str, float]]]]:
    """Where a wall-time delta went, for one workload traced on both sides:
    the traced ``wall_s`` delta, then every per-layer metric measured in
    seconds with its delta, largest move first, closed by what no layer
    names.  ``None`` unless both records are traced and their layer self
    times tile the wall (the single-threaded workloads)."""
    if not all(
        (side.get("layers") or {}).get("bench.tiling_residual_share") is not None
        for side in (old, new)
    ):
        return None
    wall = new["tiling"]["traced_wall_s"] - old["tiling"]["traced_wall_s"]
    deltas = []
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        before, after = old["layers"].get(name), new["layers"].get(name)
        if metric["unit"] != "s" or name in OVERLAPPING_LAYERS or None in (before, after):
            continue
        deltas.append((name, after - before))
    deltas.sort(key=lambda pair: -abs(pair[1]))
    deltas.append(("(no layer)", wall - sum(delta for _, delta in deltas)))
    return wall, deltas


def _value(metric: Optional[Dict]) -> str:
    return "—" if metric is None else f"{metric['value']:.4g}"


def render_comparison(
    rows: List[Dict], old: Dict[str, Dict], new: Dict[str, Dict], benchmark: Dict
) -> str:
    """The verdict table, then the layer attribution of each traced workload."""
    lines = [f"{'workload':26s} {'metric':12s} {'old':>9s} {'new':>9s} {'change':>8s}  verdict"]
    for row in rows:
        change = ""
        if row["verdict"] != "missing":
            change = f"{row['new']['value'] / row['old']['value'] - 1.0:+.1%}"
        lines.append(
            f"{row['workload']:26s} {row['metric']:12s} {_value(row['old']):>9s} "
            f"{_value(row['new']):>9s} {change:>8s}  {row['verdict']}"
        )
    for workload in sorted(set(old) & set(new)):
        moved = layer_deltas(old[workload], new[workload], benchmark)
        if moved is None:
            continue
        wall, deltas = moved
        lines.append(f"\n{workload}: traced wall_s {wall:+.4f} s, by layer")
        for name, delta in deltas:
            share = f"{delta / wall:.1%}" if wall else "—"
            lines.append(f"  {name:24s} {delta:+9.4f} s  {share:>7s}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.history.trajectory")
    commands = parser.add_subparsers(dest="command", required=True)
    append = commands.add_parser("append", help="append one entry from a BENCH_suite.json")
    append.add_argument("suite", type=pathlib.Path)
    for flag in ("--commit", "--label", "--date"):
        append.add_argument(flag, required=True)
    show = commands.add_parser("render", help="print the table, or splice it into a file")
    show.add_argument("--into", type=pathlib.Path,
                      help=f"replace the block between {BEGIN} and {END}")
    versus = commands.add_parser(
        "compare", help="judge NEW against OLD: BENCH_suite.json paths or trajectory labels")
    versus.add_argument("old")
    versus.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "compare":
        try:
            old, new = load_side(args.old), load_side(args.new)
        except (OSError, ValueError, KeyError) as exc:
            print(f"trajectory compare: error: {exc}", file=sys.stderr)
            return 2
        with open(BENCHMARK, encoding="utf-8") as handle:
            benchmark = json.load(handle)
        rows = compare(old, new, benchmark)
        print(render_comparison(rows, old, new, benchmark))
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0
    if args.command == "append":
        if any(entry["label"] == args.label for entry in load(HISTORY)):
            # compare addresses entries by label
            print(f"trajectory append: error: label {args.label!r} is already "
                  f"in {HISTORY.name}", file=sys.stderr)
            return 2
        with open(args.suite, encoding="utf-8") as handle:
            entry = entry_from_suite(json.load(handle), args.commit, args.label, args.date)
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return 0
    table = render(load(HISTORY))
    if args.into is None:
        print(table)
        return 0
    text = args.into.read_text(encoding="utf-8")
    head, rest = text.split(BEGIN)
    tail = rest.split(END)[1]
    args.into.write_text(f"{head}{BEGIN}\n{table}\n{END}{tail}", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
