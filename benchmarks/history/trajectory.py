"""The committed performance trajectory (ROADMAP item 1a).

``trajectory.jsonl`` is append-only: one JSON object per line, one line per
measured commit, copied from the ``BENCH_suite.json`` that
``python3 -m benchmarks.suite`` wrote for that commit.  Entries are only
comparable when they were measured on the same machine, so a PR that claims
a gain appends two — its parent and itself, measured back to back.

    python3 -m benchmarks.suite
    python3 -m benchmarks.history.trajectory append BENCH_suite.json \\
        --commit "$(git rev-parse --short HEAD)" --label "PR 13" --date 2026-09-28
    python3 -m benchmarks.history.trajectory render --into EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List

SCHEMA_VERSION = 1
HISTORY = pathlib.Path(__file__).with_name("trajectory.jsonl")
#: The end-to-end metrics of BENCHMARK.json, in the order the table shows them.
METRICS = ("wall_s", "iter_per_s", "setup_s", "peak_rss_mb")
#: What is kept of each metric: the reported value (on simulated workloads
#: the undisturbed wall, see benchmarks/suite/README.md), then the spread.
FIELDS = ("value", "unit", "median", "q1", "q3", "n")
BEGIN, END = "<!-- trajectory:begin -->", "<!-- trajectory:end -->"


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
    args = parser.parse_args(argv)

    if args.command == "append":
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
