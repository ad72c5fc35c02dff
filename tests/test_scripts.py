"""Smoke runs of the experiment scripts, called through their ``main``."""

import csv
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import run_fuzzed
from rumorspread import FamilySpec
from rumorspread.cli import EXIT_CAPABILITY, EXIT_CONSTRUCTION, EXIT_INPUT, EXIT_OK

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
    "main, argv, code, message",
    [
        (run_scaling.main, ["--trials", "0"], 2, "trials must be >= 1"),
        (measure_separation.main, ["--instances", "0"], 2, "instances must be >= 1, got 0"),
        (measure_separation.main, ["--degrees", "3,x"], 2, "not a comma list of integers: '3,x'"),
        (measure_separation.main, ["--degrees", ""], 2, "not a comma list of integers: ''"),
        (
            run_scaling.main,
            ["--quick", "--trials", "2", "--out-dir", f"{os.devnull}/x"],
            2,
            f"cannot write {os.devnull}/x: Not a directory",
        ),
        (
            measure_separation.main,
            ["--degrees", "3", "--instances", "1", "--out", f"{os.devnull}/x.csv"],
            2,
            f"cannot write {os.devnull}/x.csv: Not a directory",
        ),
        (
            measure_separation.main,
            ["--degrees", "6", "--instances", "1"],
            3,
            "capped at 20 nodes (got n=24)",
        ),
        (
            measure_separation.main,
            ["--degrees", "1", "--c", "4", "--instances", "1"],
            5,
            "failed after 1000 attempts",
        ),
    ],
    ids=[
        "run_scaling-trials-0",
        "measure_separation-instances-0",
        "measure_separation-degrees-3,x",
        "measure_separation-degrees-empty",
        "run_scaling-unwritable-out-dir",
        "measure_separation-unwritable-out",
        "measure_separation-capability",
        "measure_separation-construction",
    ],
)
def test_bad_arguments_exit_with_cli_codes(tmp_path, monkeypatch, capsys, main, argv, code, message):
    # the CLI's exit code with the message, before anything is written to the
    # working directory (run_scaling's default output directory is relative);
    # argparse's own usage errors leave through SystemExit
    monkeypatch.chdir(tmp_path)
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--degrees", "1000", "--instances", "1"], 3, "capped at 20 nodes (got n=4000)"),
        (["--degrees", "3", "--out", f"{os.devnull}/x.csv"], 2, "Not a directory"),
        (["--degrees", "3", "--out", "missing/x.csv"], 2, "No such file or directory"),
        # the parameter checks still come first: an odd degree sum is bad input
        (["--degrees", "1001", "--c", "3", "--instances", "1"], 2, "odd degree sum"),
    ],
    ids=["oversized-instance", "out-in-a-file", "out-in-a-missing-directory", "odd-degree-sum"],
)
def test_measure_separation_refuses_before_any_build(tmp_path, monkeypatch, capsys, argv, code, message):
    # an instance too large to enumerate and an output directory that cannot
    # take the table are both found before the first graph is drawn
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(FamilySpec, "build", lambda self: pytest.fail(f"built {self}"))
    assert measure_separation.main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert not os.listdir(tmp_path)


# the CLI's codes that a script can end in: run_scaling reaches only 0 and 2
SCRIPT_EXIT_CODES = (EXIT_OK, EXIT_INPUT, EXIT_CAPABILITY, EXIT_CONSTRUCTION)
# an output path inside the run's directory (missing parents included), or
# one that cannot be written because its parent is a file
FUZZ_OUT = st.sampled_from(["out", "missing/out", f"{os.devnull}/x"])
FUZZ_SEEDS = st.integers(-(2**70), 2**70)


def junk_for(*flags):
    """None, or a flag and a value that int() or the --degrees list refuses;
    given last, the value overrides the flag's good one."""
    values = st.sampled_from(["x", "", "1.5", "2**3", "1e2", "-", "3,", "3,x", ",4"])
    return st.one_of(st.none(), st.tuples(st.sampled_from(flags), values))


def with_junk(argv, junk):
    return argv if junk is None else [*argv, f"{junk[0]}={junk[1]}"]


# Each number is sampled from good values first, which hypothesis draws most,
# then ones the library refuses; junk_for adds a value argparse refuses.
@given(
    trials=st.sampled_from([1, 0, -1]),
    seed=FUZZ_SEEDS,
    out=FUZZ_OUT,
    junk=junk_for("--trials", "--seed"),
)
@settings(max_examples=10)
@example(trials=1, seed=0, out="missing/out", junk=None)
def test_fuzz_run_scaling_exit_codes(trials, seed, out, junk):
    # --quick with at most one trial keeps a successful run near 0.1 s
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = out if out.startswith(os.devnull) else str(Path(tmp) / out)
        argv = ["--quick", f"--trials={trials}", f"--seed={seed}", f"--out-dir={out_dir}"]
        code, err = run_fuzzed(with_junk(argv, junk), run_scaling.main)
        if code == EXIT_OK:
            assert len(os.listdir(out_dir)) == 8
    assert code in SCRIPT_EXIT_CODES
    assert "Traceback" not in err


@given(
    degrees=st.lists(st.sampled_from([3, 2, 1, 4, 5, 6, 7, 0, -1]), min_size=1, max_size=3),
    instances=st.sampled_from([1, 2, 0, -1]),
    c=st.sampled_from([2, 3, 4, 1, 0, -1]),
    components=st.sampled_from([2, 3, 1, 0]),
    seed=FUZZ_SEEDS,
    out=st.one_of(st.none(), FUZZ_OUT),
    junk=junk_for("--degrees", "--instances", "--c", "--components", "--seed"),
)
@settings(max_examples=40)
@example(degrees=[6], instances=1, c=2, components=2, seed=0, out=None, junk=None)
@example(degrees=[1], instances=1, c=4, components=2, seed=0, out="out", junk=None)
def test_fuzz_measure_separation_exit_codes(degrees, instances, c, components, seed, out, junk):
    # the table enumerates only instances of at most 20 nodes, so degrees up
    # to 7 keep every run short; a larger instance is refused before its build
    with tempfile.TemporaryDirectory() as tmp:
        argv = [f"--degrees={','.join(map(str, degrees))}", f"--instances={instances}",
                f"--c={c}", f"--components={components}", f"--seed={seed}"]
        if out is not None:
            target = out if out.startswith(os.devnull) else str(Path(tmp) / f"{out}.csv")
            argv.append(f"--out={target}")
        code, err = run_fuzzed(with_junk(argv, junk), measure_separation.main)
        if code == EXIT_OK and out is not None:
            assert os.path.exists(target)
    assert code in SCRIPT_EXIT_CODES
    assert "Traceback" not in err
