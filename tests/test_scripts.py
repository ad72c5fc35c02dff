"""Smoke runs of the experiment scripts, called through their ``main``."""

import csv
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))

import measure_separation  # noqa: E402
import run_scaling  # noqa: E402


def test_run_scaling_quick(tmp_path, capsys):
    assert run_scaling.main(["--quick", "--trials", "2", "--out-dir", str(tmp_path)]) == 0
    names = ("hypercube", "regular_pull", "two_cliques", "dumbbell")
    expected = {f"{name}_{kind}" for name in names for kind in ("points.csv", "report.json")}
    assert set(os.listdir(tmp_path)) == expected
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(names)


def test_measure_separation_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert measure_separation.main(["--degrees", "3", "--instances", "1", "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["degree", "n", "instances", "mean_conductance", "mean_combined", "mean_ratio"]
    assert len(rows) == 2 and rows[1][:3] == ["3", "12", "1"]


@pytest.mark.parametrize(
    "main, argv, message",
    [
        (run_scaling.main, ["--trials", "0"], "trials must be >= 1"),
        (measure_separation.main, ["--instances", "0"], "instances must be >= 1, got 0"),
        (measure_separation.main, ["--degrees", "3,x"], "not a comma list of integers: '3,x'"),
        (measure_separation.main, ["--degrees", ""], "not a comma list of integers: ''"),
        (
            run_scaling.main,
            ["--quick", "--trials", "2", "--out-dir", f"{os.devnull}/x"],
            f"cannot write {os.devnull}/x: Not a directory",
        ),
        (
            measure_separation.main,
            ["--degrees", "3", "--instances", "1", "--out", f"{os.devnull}/x.csv"],
            f"cannot write {os.devnull}/x.csv: Not a directory",
        ),
    ],
    ids=[
        "run_scaling-trials-0",
        "measure_separation-instances-0",
        "measure_separation-degrees-3,x",
        "measure_separation-degrees-empty",
        "run_scaling-unwritable-out-dir",
        "measure_separation-unwritable-out",
    ],
)
def test_bad_arguments_are_usage_errors(tmp_path, monkeypatch, capsys, main, argv, message):
    # exit 2 with the message, before anything is written to the working
    # directory (run_scaling's default output directory is relative)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not os.listdir(tmp_path)
