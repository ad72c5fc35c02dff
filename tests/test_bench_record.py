"""The cross-session note of ``scripts/bench_record.py --compare``."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))

import bench_record  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "thinning"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
}


def record(wall_s: float, raw_wall_s: float, slowness_p50: float) -> dict:
    """A BENCH_*.json holding one workload run with the given metric, raw
    pass wall and host-slowness median."""
    return {
        "workloads": {
            "thinning": {
                "plain": {
                    "result": {"correct": True, "failed": 0, "attempted": 10,
                               "metrics": {"wall_s": {"value": wall_s}}},
                    "record": {"raw_wall_s": raw_wall_s,
                               "host_slowness": {"p10": 0.5, "p50": slowness_p50, "p90": 2.0}},
                },
            },
        },
    }


@pytest.mark.parametrize(
    "new, crosses, status",
    [
        # the rescaled wall rose 10% while the raw wall fell: host drift
        (record(0.22, 0.16, 0.77), True, 0),
        # beyond the bound: flagged, and the note does not change the status
        (record(0.30, 0.17, 0.80), True, 1),
        # the same session: no note
        (record(0.21, 0.24, 1.20), False, 0),
    ],
)
def test_compare_notes_cross_session_records(capsys, new, crosses, status):
    old = record(0.20, 0.25, 1.30)
    assert bench_record.compare(BENCHMARK, old, new) == status
    out = capsys.readouterr().out
    raw = new["workloads"]["thinning"]["plain"]["record"]
    assert "raw_wall_s" in out and f"{raw['raw_wall_s']:.4g}" in out and "0.25" in out
    assert f"{raw['host_slowness']['p50']:.4g}" in out and "1.3" in out
    assert ("crosses sessions" in out) == crosses
    assert ("scripts/bench_pairs.py" in out) == crosses
