"""The pair verdict of ``scripts/bench_pairs.py``, on synthetic pair lists."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))

import bench_pairs  # noqa: E402

# ten parent runs with quartiles 10.225 and 10.675: an IQR of 0.45
PARENT = [10.0 + i / 10 for i in range(10)]


def moved(by: list[float]) -> list[float]:
    return [p + d for p, d in zip(PARENT, by)]


def test_quartiles():
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    q1, med, q3 = bench_pairs.quartiles(PARENT)
    assert (q1, med, q3) == pytest.approx((10.225, 10.45, 10.675))


@pytest.mark.parametrize(
    "change, better, want",
    [
        # nine of ten pairs lower, medians 1.0 apart against an IQR of 0.45
        (moved([-1.0] * 9 + [0.5]), "lower", (9, 1, "gain")),
        # eight of ten is short of nine tenths, however far apart
        (moved([-1.0] * 8 + [0.5] * 2), "lower", (8, 2, "-")),
        # ten of ten, but the medians are closer than the parent's IQR
        (moved([-0.2] * 10), "lower", (10, 0, "-")),
        # a tie counts for neither side: nine wins still make a gain, and
        # all ties are no verdict
        (moved([-1.0] * 9 + [0.0]), "lower", (9, 0, "gain")),
        (list(PARENT), "lower", (0, 0, "-")),
        (moved([-1.0] * 8 + [0.0] * 2), "lower", (8, 0, "-")),
        # the mirror case
        (moved([1.0] * 9 + [-0.5]), "lower", (1, 9, "loss")),
        # where higher is better the same moves swap sides
        (moved([1.0] * 9 + [-0.5]), "higher", (9, 1, "gain")),
        (moved([-1.0] * 9 + [0.5]), "higher", (1, 9, "loss")),
        (moved([1.0] * 8 + [-0.5] * 2), "higher", (8, 2, "-")),
    ],
)
def test_verdict(change, better, want):
    assert bench_pairs.verdict(PARENT, change, better) == want


@pytest.mark.parametrize(
    "change, better, want",
    [
        # the parent's median is 10.45: a bound of 25% allows up to 13.0625
        (moved([2.5] * 10), "lower", False),
        (moved([2.7] * 10), "lower", True),
        # the median decides, not the single worst pair
        (moved([0.0] * 6 + [50.0] * 4), "lower", False),
        # far better is never beyond the bound
        (moved([-9.0] * 10), "lower", False),
        # where higher is better, a fall is what counts
        (moved([-2.5] * 10), "higher", False),
        (moved([-2.7] * 10), "higher", True),
        (moved([50.0] * 10), "higher", False),
    ],
)
def test_beyond_bound(change, better, want):
    metric = {"name": "wall_s", "better": better, "bound": 0.25}
    assert bench_pairs.beyond_bound(PARENT, change, metric) is want


def test_beyond_bound_from_zero():
    # a metric at 0 on the parent is beyond any bound once it grows at all,
    # as in bench_record.py --compare
    metric = {"name": "job_p50_ms", "better": "lower", "bound": 0.25}
    assert not bench_pairs.beyond_bound([0.0] * 3, [0.0] * 3, metric)
    assert bench_pairs.beyond_bound([0.0] * 3, [0.1] * 3, metric)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--workload", "spread", "--pairs", "0"], "must be at least 1, got 0"),
        (["--workload", "spread", "--pairs", "-3"], "must be at least 1, got -3"),
        (["--workload", "bogus"], "invalid choice: 'bogus'"),
    ],
    ids=["no-pairs", "negative-pairs", "unknown-workload"],
)
def test_bad_arguments_exit_before_any_run(monkeypatch, capsys, extra, message):
    # checkouts that do not exist: a run at either would fail
    monkeypatch.setattr(bench_pairs, "run_workload", lambda *a, **k: pytest.fail("ran a workload"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["/nonexistent/parent", "/nonexistent/change", *extra])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_repeated_workload_runs_each_in_every_pair(monkeypatch, capsys):
    # every pair runs each named workload on both sides, the parent first in
    # even pairs and the change first in odd ones; one table per workload
    calls = []
    metrics = {m["name"]: {"value": 1.0} for m in bench_pairs.load_json(bench_pairs.BENCHMARK)["end_to_end"]}

    def fake_run(benchmark, workload, *, trace, seed, cwd):
        calls.append((workload, os.path.basename(cwd)))
        return {"result": {"correct": True, "failed": 0, "metrics": metrics}}

    monkeypatch.setattr(bench_pairs, "run_workload", fake_run)
    monkeypatch.setattr(bench_pairs, "clear_bytecode", lambda checkout: None)
    argv = ["/x/parent", "/x/change", "--workload", "thinning", "--workload", "spread",
            "--workload", "thinning", "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    assert calls == [
        ("thinning", "parent"), ("thinning", "change"), ("spread", "parent"), ("spread", "change"),
        ("thinning", "change"), ("thinning", "parent"), ("spread", "change"), ("spread", "parent"),
    ]
    titles = [line for line in capsys.readouterr().out.splitlines() if " pairs; " in line]
    assert [t.split(",")[0] for t in titles] == ["thinning", "spread"]
    assert all("2 pairs" in t for t in titles)
