"""Tests for curve and run-summary JSON serialization."""

import json

import pytest

from repro import AspPolicy, ClusterSpec, SpecSyncPolicy
from repro.metrics.curves import EvalPoint, LossCurve
from repro.metrics.serialize import (
    curve_from_dict,
    curve_to_dict,
    run_summary_to_dict,
)
from repro.workloads import tiny_workload


@pytest.fixture(scope="module")
def run_result():
    return tiny_workload().run(
        ClusterSpec.homogeneous(3), SpecSyncPolicy.adaptive(), seed=2,
        horizon_s=30.0,
    )


class TestCurveRoundTrip:
    def test_round_trip_preserves_points(self):
        curve = LossCurve()
        curve.add(EvalPoint(1.0, 10, 0.5, accuracy=0.9))
        curve.add(EvalPoint(2.0, 20, 0.4))
        rebuilt = curve_from_dict(curve_to_dict(curve))
        assert len(rebuilt) == 2
        assert rebuilt[0].loss == 0.5
        assert rebuilt[0].accuracy == 0.9
        assert rebuilt[1].accuracy is None

    def test_dict_is_json_serializable(self):
        curve = LossCurve()
        curve.add(EvalPoint(1.0, 10, 0.5))
        json.dumps(curve_to_dict(curve))

    def test_real_run_curve_round_trips(self, run_result):
        rebuilt = curve_from_dict(curve_to_dict(run_result.curve))
        assert rebuilt.losses() == run_result.curve.losses()
        assert rebuilt.times() == run_result.curve.times()


class TestRunSummary:
    def test_summary_json_serializable(self, run_result):
        payload = run_summary_to_dict(run_result)
        json.dumps(payload)

    def test_summary_fields(self, run_result):
        payload = run_summary_to_dict(run_result)
        assert payload["scheme"] == "specsync-adaptive"
        assert payload["workload"] == "tiny"
        assert payload["total_iterations"] == run_result.total_iterations
        assert len(payload["workers"]) == 3
        assert payload["curve"]["points"]

    def test_policy_summary_filtered_to_scalars(self, run_result):
        payload = run_summary_to_dict(run_result)
        for value in payload["policy_summary"].values():
            assert isinstance(value, (int, float, str, bool, type(None)))
