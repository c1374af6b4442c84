"""Shared fixtures for the benchmark harness.

Every bench renders the same rows/series its paper table or figure reports,
prints them, and archives them under ``benchmarks/results/`` so the numbers
in EXPERIMENTS.md can be regenerated and diffed.

Scale control: the default (full) reproduces the paper's dimensions (40
workers, full horizons), and every shape assertion is written for it.
``REPRO_SCALE=smoke`` shrinks the clusters and horizons, and some shape
assertions do not hold there (Fig 11's at 5–10 workers, the broadcast
ablation's amplification at m = 10), so a smoke bench run is not a wiring
check.  The wiring check is CI's "every experiment driver at smoke scale"
step: ``repro experiment NAME --scale smoke`` for every name in
``repro.cli.EXPERIMENTS``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Bumped when the ``<name>.meta.json`` sidecar layout changes.
ARCHIVE_META_VERSION = 1


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def archive(results_dir):
    """Save rendered experiment output and echo it to stdout.

    Alongside each ``<name>.txt`` a ``<name>.meta.json`` sidecar records
    the wall time from fixture setup to the archive call and the
    ``REPRO_SCALE`` the run used, so archived numbers can be compared
    like-for-like across captures.
    """
    started = time.perf_counter()

    def _archive(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        meta = {
            "schema_version": ARCHIVE_META_VERSION,
            "name": name,
            "wall_time_s": round(time.perf_counter() - started, 6),
            "repro_scale": os.environ.get("REPRO_SCALE", "full"),
        }
        meta_path = results_dir / f"{name}.meta.json"
        with meta_path.open("w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\n{text}\n[saved to {path}; meta in {meta_path}]")

    return _archive


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The drivers are minutes-long simulations; statistical repetition is
    meaningless and unaffordable, so a single timed round is recorded.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
