"""Replay-determinism checker: same-seed DES runs fire identical events.

Seeded fixtures plant a nondeterministic event stream and must produce
exactly one ``DYN-REPLAY-DIVERGENCE`` finding attributed to the callback
in *this* file; a real seeded DES run must replay identically.
"""

import os

from repro.analysis.findings import Severity
from repro.analysis.replay import DYN_REPLAY_DIVERGENCE, check_replay
from repro.events.simulator import Simulator

HERE = os.path.basename(__file__)


def des_scenario(seed: int):
    """A small, fully seeded DES run, rebuilt from scratch on every call.

    Returns a zero-argument callable that builds the workload, cluster,
    scheme and simulator anew, which is what :func:`check_replay` needs
    to compare two independent runs.
    """

    def scenario() -> None:
        from repro.cluster.spec import ClusterSpec
        from repro.experiments import scheme_catalog
        from repro.workloads import tiny_workload

        workload = tiny_workload()
        scheme = scheme_catalog(workload.name)["adaptive"].make()
        workload.run(
            ClusterSpec.homogeneous(4),
            scheme,
            seed=seed,
            horizon_s=40.0,
            early_stop=False,
        )

    return scenario


class TestReplayDeterminism:
    def test_deterministic_scenario_matches(self):
        def scenario():
            sim = Simulator()

            def tick(n):
                if n < 4:
                    sim.schedule(1.0, tick, n + 1)

            sim.schedule(1.0, tick, 0)
            sim.run()

        report = check_replay(scenario)
        assert report.deterministic
        assert report.findings == []
        assert report.run_lengths == (5, 5)

    def test_seeded_nondeterminism_detected(self):
        calls = [0]

        def tick_builder(sim):
            def tick(n):
                # Event 2 fires 0.5s later on the second run only.
                late = 0.5 if calls[0] == 2 and n == 1 else 0.0
                if n < 3:
                    sim.schedule(1.0 + late, tick, n + 1)

            return tick

        def scenario():
            calls[0] += 1
            sim = Simulator()
            sim.schedule(1.0, tick_builder(sim), 0)
            sim.run()

        report = check_replay(scenario)
        assert not report.deterministic
        assert report.divergence_index == 2
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule_id == DYN_REPLAY_DIVERGENCE
        assert finding.severity is Severity.ERROR
        assert "diverged at event 2" in finding.message
        assert os.path.basename(finding.path) == HERE

    def test_tap_removed_even_when_scenario_raises(self):
        def broken():
            raise RuntimeError("boom")

        try:
            check_replay(broken)
        except RuntimeError:
            pass
        assert Simulator._taps == ()

    def test_seeded_des_run_replays_identically(self):
        report = check_replay(des_scenario(seed=1))
        assert report.deterministic, [f.render() for f in report.findings]
        assert report.run_lengths[0] == report.run_lengths[1] > 0
        assert Simulator._taps == ()
