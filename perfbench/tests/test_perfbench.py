"""Self-tests of the benchmark harness: run with
``python3 -m pytest -q perfbench/tests`` from the repository root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_percentile_reports_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert harness.percentile(values, 50) == (50.0, 50)
    assert harness.percentile(values, 90) == (90.0, 10)
    # One sample fewer leaves only nine beyond p90.
    assert harness.percentile(values[1:], 90) == (90.0, 9)
    assert harness.percentile([3.0], 90) == (3.0, 0)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    dur, self_time = tracing.self_times(np.array(start), np.array(end), np.array(parent))
    assert dur.tolist() == [10.0, 3.0, 1.0, 4.0]
    assert self_time.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert self_time.sum() == dur[0]


def test_traced_spans_nest_and_self_times_add_up():
    t = tracing.Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = t.wrap(leaf, "expansion.leaf")
    traced_mid = t.wrap(lambda: [traced_leaf() for _ in range(3)], "protocols.mid")
    traced_root = t.wrap(lambda: traced_mid() and traced_leaf(), "cli.root")
    traced_root()
    s = tracing.Summary(t, 0, len(t))
    assert s.calls("expansion.leaf") == 4
    assert list(t.parent) == [-1, 0, 1, 1, 1, 0]
    layers = s.layer_self_seconds()
    assert sum(layers.values()) == pytest.approx(s.seconds("cli.root"))
    # A summary over a sub-range treats parents outside it as roots.
    inner = tracing.Summary(t, 1, 5)
    assert inner.seconds("protocols.mid") == pytest.approx(s.seconds("protocols.mid"))


def test_job_times_are_divided_by_the_slowness_around_them():
    outcome = harness.PassOutcome(
        seconds=[1.0, 3.0], slowness=[1.0, 3.0, 1.0], digests={}, failures={}, stdout_bytes=0
    )
    assert outcome.host_seconds() == [0.5, 1.5]
    assert harness.host_slowness() > 0.0


def simulate_job(summary: str) -> harness.Job:
    return harness.Job(
        id="sim",
        argv=["simulate", "--graph", "q3.txt", "--trials", "5", "--seed", "3", "--summary-out", summary],
        outputs=(summary,),
    )


def test_flipped_output_byte_fails_the_job(tmp_path, monkeypatch):
    from rumorspread import cli, generators, graph

    monkeypatch.chdir(tmp_path)
    graph.save_edge_list(generators.hypercube(3), "q3.txt")
    jobs = [simulate_job("s.csv")]
    first = harness.run_pass(jobs, lambda: cli.main, expected=None, check=True)
    assert first.failures == {}
    assert len(first.slowness) == len(jobs) + 1
    again = harness.run_pass(jobs, lambda: cli.main, expected=first.digests, check=False)
    assert again.failures == {}

    original = cli.write_summary_csv

    def flip_one_byte(summary, path):
        original(summary, path)
        with open(path, "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-2, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 1]))

    monkeypatch.setattr(cli, "write_summary_csv", flip_one_byte)
    flipped = harness.run_pass(jobs, lambda: cli.main, expected=first.digests, check=False)
    assert flipped.failures == {"sim": "output digest differs from the reference"}


def test_failing_check_and_nonzero_exit_fail_the_job(tmp_path, monkeypatch):
    from rumorspread import cli, generators, graph

    monkeypatch.chdir(tmp_path)
    graph.save_edge_list(generators.hypercube(3), "q3.txt")
    bad_check = harness.Job(id="checked", argv=["analyze", "--graph", "q3.txt"], check=lambda r: "wrong")
    too_big = harness.Job(id="limit", argv=["analyze", "--graph", "q3.txt", "--limit", "4"])
    outcome = harness.run_pass([bad_check, too_big], lambda: cli.main, expected=None, check=True)
    assert outcome.failures["checked"] == "wrong"
    assert outcome.failures["limit"].startswith("exit code 3")


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_reports_every_declared_metric(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--scale", "tiny"
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("run-record ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr[-2000:]
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "--workload", "spread", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
