"""JSON (de)serialization of run artifacts.

Export a run's curve and headline measurements to a JSON document, and
reload the curve later without re-simulating.  A run's event-level record
is its ``--trace`` file, read back by ``repro analyze``.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.curves import EvalPoint, LossCurve

__all__ = ["curve_to_dict", "curve_from_dict", "run_summary_to_dict"]


# ----------------------------------------------------------------------
# Loss curves
# ----------------------------------------------------------------------
def curve_to_dict(curve: LossCurve) -> Dict:
    """A JSON-ready dict of the full evaluation sequence."""
    return {
        "points": [
            {
                "time": p.time,
                "total_iterations": p.total_iterations,
                "loss": p.loss,
                "accuracy": p.accuracy,
            }
            for p in curve
        ]
    }


def curve_from_dict(data: Dict) -> LossCurve:
    """Inverse of :func:`curve_to_dict`."""
    curve = LossCurve()
    for point in data["points"]:
        curve.add(
            EvalPoint(
                time=float(point["time"]),
                total_iterations=int(point["total_iterations"]),
                loss=float(point["loss"]),
                accuracy=point.get("accuracy"),
            )
        )
    return curve


# ----------------------------------------------------------------------
# Run summaries
# ----------------------------------------------------------------------
def run_summary_to_dict(result) -> Dict:
    """A JSON-ready digest of a :class:`repro.ps.RunResult`.

    Includes the full curve plus the headline aggregates.
    """
    return {
        "scheme": result.scheme,
        "workload": result.workload,
        "num_workers": result.num_workers,
        "seed": result.seed,
        "horizon_s": result.horizon_s,
        "total_iterations": result.total_iterations,
        "total_aborts": result.total_aborts,
        "mean_staleness": result.mean_staleness,
        "final_loss": result.final_loss,
        "total_transfer_bytes": result.total_transfer_bytes,
        "transfer_by_category": result.ledger.bytes_by_category(),
        "policy_summary": {
            k: v for k, v in result.policy_summary.items()
            if isinstance(v, (int, float, str, bool, type(None)))
        },
        "curve": curve_to_dict(result.curve),
        "workers": [
            {
                "worker_id": w.worker_id,
                "node": w.node_name,
                "iterations": w.iterations,
                "pulls": w.pulls,
                "pushes": w.pushes,
                "aborts": w.aborts,
                "mean_iteration_time": w.mean_iteration_time,
            }
            for w in result.worker_stats
        ],
    }
