"""Pin the simulated outcome of two short seeded DES runs.

The first tuple is what the benchmark suite hashes into ``sim_digest``:
total iterations, events fired, aborts, per-worker iterations, transfer
bytes and ``repr(final_loss)``.  Counts follow from simulated timing alone,
and SGD damps an ulp-sized gradient change below the final loss's last
digit (an MF gradient with one product distributed over a sum reads the
same tuple), so the test also pins a SHA-256 of the final parameters: any
moved gradient bit — a reordered float op, a reordered gradient key that
shifts the clip scale — shows there.  The first two cases' expected
values were recorded before the models' combined ``loss_and_grad`` was
split into ``loss`` and ``gradient``, the third before Algorithm 1's
candidate set moved from a ``round()`` per push pair to NumPy.
"""

import hashlib

import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.specsync import SpecSyncPolicy
from repro.experiments.common import CHERRYPICK_DEFAULTS
from repro.workloads import matrix_factorization_workload, tiny_workload


def pinned(per_worker):
    """Per-worker iterations as pinned: the tuple itself, or a SHA-256 of
    its ``repr`` once it is too long to read."""
    if len(per_worker) <= 16:
        return per_worker
    return hashlib.sha256(repr(per_worker).encode()).hexdigest()


def run_outcome(preset, workers, policy, horizon_s, seed):
    engine = preset.build_engine(
        ClusterSpec.homogeneous(workers), policy, seed=seed, horizon_s=horizon_s
    )
    result = engine.run()
    digest_tuple = (
        result.total_iterations, engine.sim.events_fired, result.total_aborts,
        pinned(tuple(w.iterations for w in result.worker_stats)),
        result.total_transfer_bytes, repr(result.final_loss),
    )
    params_sha = hashlib.sha256(engine.store.params.to_vector().tobytes()).hexdigest()
    return digest_tuple, params_sha[:16]


@pytest.mark.parametrize(
    "preset, workers, policy, horizon_s, expected",
    [
        pytest.param(
            matrix_factorization_workload, 8, SpecSyncPolicy.adaptive, 240.0,
            ((540, 4721, 300, (66, 63, 67, 66, 70, 70, 69, 69),
              23318542592.0, "0.5958785081384383"), "165bf12a925a67f6"),
            id="mf8_adaptive",
        ),
        pytest.param(
            tiny_workload, 16,
            lambda: SpecSyncPolicy.cherrypick(CHERRYPICK_DEFAULTS["tiny"]), 60.0,
            ((848, 7197, 405,
              (56, 56, 54, 53, 54, 54, 52, 50, 52, 52, 51, 52, 54, 52, 52, 54),
              211915680.0, "0.13635369921742915"), "d356c3b89e88f66b"),
            id="tiny16_cherrypick",
        ),
        # Every one of its 13 epochs holds 179-275 pushes, so every
        # Algorithm-1 scan runs on a subsampled candidate set.
        pytest.param(
            tiny_workload, 160, SpecSyncPolicy.adaptive, 20.0,
            ((3124, 24546, 843,
              "63f368d291a901c9be8c80f68d5d622f11fe3c0787e8166c7b4d785f475b81ab",
              725817952.0, "0.3265813887446938"), "a742e9ab43547090"),
            id="tiny160_adaptive",
        ),
    ],
)
def test_seeded_run_matches_recorded_outcome(preset, workers, policy, horizon_s, expected):
    assert run_outcome(preset(), workers, policy(), horizon_s, seed=3) == expected
