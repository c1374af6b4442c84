"""Bench for the Cherrypick grid search behind Table II's trial counts.

Rebuilds ``benchmarks/results/cherrypick_search_mf.txt`` through
:func:`repro.experiments.cherrypick_search.mf_search`, the search that
``python -m repro.experiments.cherrypick_search`` prints.

Shape assertions: the 3 x 4 grid runs 12 trials, and one cell scores
best.
"""

from benchmarks.conftest import run_once
from repro.experiments.cherrypick_search import mf_search


def test_cherrypick_search_mf(benchmark, archive):
    result = run_once(benchmark, mf_search)
    archive("cherrypick_search_mf", result.render())

    assert result.num_trials == 12
    best_loss = min(trial.score_loss for trial in result.trials)
    winners = [trial for trial in result.trials if trial.score_loss == best_loss]
    assert [trial.hyperparams for trial in winners] == [result.best]
