"""Command line behavior, exercised in process through main(argv)."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rumorspread
import rumorspread.expansion as expansion
import rumorspread.generators as generators
from rumorspread import diameter, load_edge_list
from rumorspread.experiment import BOUND_MODELS
from rumorspread.cli import (
    EXIT_CAPABILITY,
    EXIT_CONSTRUCTION,
    EXIT_INCOMPLETE,
    EXIT_INPUT,
    EXIT_OK,
    MEASURE_ALIASES,
    MEASURES,
    _MEASURES,
    build_parser,
    main,
)
from helpers import run_fuzzed


def run_cli(*argv):
    return main(list(argv))


FUZZ_EXIT_CODES = (EXIT_OK, EXIT_INPUT, EXIT_CAPABILITY, EXIT_INCOMPLETE, EXIT_CONSTRUCTION)
# bytes that are not UTF-8, as the content of an input file
UNDECODABLE = b"\xff\xfe"


@pytest.fixture
def k4(tmp_path):
    out = tmp_path / "k4.txt"
    assert run_cli("gen", "complete", "--n", "4", "--out", str(out)) == EXIT_OK
    return str(out)


# small integers (some colliding as 1/01), words and a negative number
FUZZ_LABELS = st.one_of(
    st.integers(0, 9).map(str), st.sampled_from(["a", "b", "01", "1_0", "-3"])
)


# threshold strings: fractions and decimals in and out of range, and
# malformed literals
FUZZ_FRACTIONS = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=40).map(str),
    st.decimals(min_value=-1, max_value=2, places=3).map(str),
    st.sampled_from(
        ["3/20", "0.15", "1e-3", "abc", "1/0", "nan", "inf", "", "1/2/3", " 1/4 ", "1e-100000"]
    ),
)


@st.composite
def fuzz_edge_lists(draw):
    """A walk over random labels (often a connected graph), then stray lines:
    more edges, wrong token counts, comments and arbitrary text."""
    walk = draw(st.lists(FUZZ_LABELS, min_size=2, max_size=10))
    lines = [f"{a} {b}" for a, b in zip(walk, walk[1:])]
    stray = st.one_of(
        st.lists(FUZZ_LABELS, max_size=4).map(" ".join),
        st.just("# comment"),
        st.text(max_size=8),
    )
    for line in draw(st.lists(stray, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


FUZZ_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from([0.5, -1.0, 2.5, 1e9, 2**70]),
    st.sampled_from(["", "x", "random", "dominating", "logn"]),
    st.lists(st.integers(-1, 9), max_size=3),
)


@st.composite
def fuzz_configs(draw):
    """Experiment configs, mostly JSON objects near a valid sweep: unknown or
    mistyped keys and values, bad families, models and variants, malformed
    sweep points; at times not an object or not JSON at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["{not json", "[]", "5", "null", '{"family": "cycle"', ""]))
    point = st.dictionaries(
        st.sampled_from(["n", "d", "m", "leaves", "degree", "num_components", "c", "p", "rng_seed", "q"]),
        st.one_of(st.integers(-1, 6), st.sampled_from([0.5, "3", None, True, 1e-9])),
        max_size=3,
    )
    data = {}
    if draw(st.integers(0, 9)):
        data["family"] = draw(st.sampled_from(list(generators.FAMILY_NAMES) + ["bogus", 3]))
    if draw(st.integers(0, 9)):
        data["sweep"] = draw(st.one_of(st.lists(point, max_size=3), FUZZ_JSON_VALUES))
    optional = {
        "variant": st.sampled_from(["push", "pull", "pushpull", "shout", 1]),
        "informed": st.one_of(st.sampled_from(["random", "dominating", "everyone"]), st.lists(st.integers(-1, 9), max_size=3)),
        "trials": st.integers(-2, 8),
        "bound_model": st.sampled_from(list(BOUND_MODELS) + ["cubic"]),
        "predictor_values": st.lists(st.sampled_from([1.0, 0.0, -2.0, 3]), max_size=3),
        "quantiles": st.lists(st.sampled_from([0.5, 0.9, 0.0, 1.0, 1.5, -0.1]), max_size=3),
        "rng_seed": st.integers(-(2**70), 2**70),
        "max_rounds": st.integers(-1, 6),
        "max_rounds_factor": st.sampled_from([0, 0.5, 2, -1.0]),
        "enumeration_limit": st.integers(-1, 24),
        "unknown_key": FUZZ_JSON_VALUES,
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), max_size=4, unique=True)):
        data[key] = draw(st.one_of(optional[key], FUZZ_JSON_VALUES))
    return json.dumps(data)


@st.composite
def fuzz_points_tables(draw):
    """Points tables with missing or extra columns, short and long rows,
    non-numeric, zero, negative and non-finite cells, comments and quoting."""
    header = draw(st.sampled_from(
        ["index,params,n,ratio", "index,params,n,ratio", "index,n", "ratio", "# only a comment", ""]
    ))
    width = header.count(",") + 1
    cell = st.sampled_from(["0", "1", "1.5", "2", "-2", "nan", "inf", "1e400", "abc", "", '"d=2"'])
    row = st.lists(cell, min_size=max(0, width - 1), max_size=width + 1).map(",".join)
    return "\n".join([header, *draw(st.lists(row, max_size=4))]) + "\n"


class TestGen:
    def test_hypercube_counts(self, tmp_path):
        out = tmp_path / "q3.txt"
        assert run_cli("gen", "hypercube", "--d", "3", "--out", str(out)) == EXIT_OK
        g, _ = load_edge_list(str(out))
        assert g.n == 8 and g.num_edges == 12

    def test_dumbbell_diameter(self, tmp_path):
        out = tmp_path / "db.txt"
        assert run_cli("gen", "dumbbell", "--m", "4", "--out", str(out)) == EXIT_OK
        g, _ = load_edge_list(str(out))
        assert g.n == 8
        assert diameter(g) == 3

    def test_seeded_family_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code = run_cli(
                "gen", "random_regular",
                "--n", "12", "--degree", "3", "--seed", "5",
                "--out", str(out),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_exit_2(self, tmp_path, capsys):
        code = run_cli("gen", "path", "--d", "3", "--out", str(tmp_path / "x.txt"))
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_construction_failure_exit_5(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(generators, "RETRY_BUDGET", 0)
        code = run_cli(
            "gen", "random_regular",
            "--n", "8", "--degree", "3", "--seed", "0",
            "--out", str(tmp_path / "x.txt"),
        )
        assert code == EXIT_CONSTRUCTION
        assert "error:" in capsys.readouterr().err

    @given(
        family=st.sampled_from(generators.FAMILY_NAMES),
        params=st.dictionaries(
            st.sampled_from(["n", "d", "m", "leaves", "degree", "num-components", "c"]),
            st.integers(-2, 10),
            max_size=4,
        ),
        p=st.one_of(st.none(), st.sampled_from(["0", "0.3", "1", "1.5", "-0.2", "nan", "inf", "1e-9"])),
        seed=st.one_of(st.none(), st.integers(-(2**70), 2**70)),
        out=st.sampled_from(["g.txt", "missing/g.txt"]),
    )
    @settings(max_examples=200)
    def test_fuzz_exit_codes(self, family, params, p, seed, out):
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / out
            argv = ["gen", family, "--out", str(target)]
            argv += [f"--{key}={value}" for key, value in params.items()]
            if p is not None:
                argv.append(f"--p={p}")
            if seed is not None:
                argv.append(f"--seed={seed}")
            code, err = run_fuzzed(argv)
            if code == EXIT_OK:
                g, mapping = load_edge_list(str(target))
                assert mapping == {str(v): v for v in range(g.n)}
        assert code in FUZZ_EXIT_CODES
        assert "Traceback" not in err

    def test_out_dir_env(self, tmp_path, monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("RUMORSPREAD_OUT_DIR", str(outdir))
        assert run_cli("gen", "cycle", "--n", "5", "--out", "c5.txt") == EXIT_OK
        assert (outdir / "c5.txt").exists()


class TestAnalyze:
    def test_complete_graph_measures(self, k4, capsys):
        assert run_cli("analyze", "--graph", k4) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure"]: m["value"] for m in payload["measures"]}
        assert values["vertex-expansion"] == pytest.approx(1.0)
        assert values["conductance"] == pytest.approx(2 / 3)
        assert payload["n"] == 4

    def test_boundary_expansion_on_path_endpoint(self, tmp_path, capsys):
        graph = tmp_path / "p4.txt"
        run_cli("gen", "path", "--n", "4", "--out", str(graph))
        code = run_cli(
            "analyze", "--graph", str(graph), "--set", "0", "--measures", "h"
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        (m,) = payload["measures"]
        assert m["measure"] == "boundary-expansion"
        assert m["value"] == pytest.approx(0.5)

    def test_combined_expansion_on_cycle_vertex(self, tmp_path, capsys):
        graph = tmp_path / "c6.txt"
        run_cli("gen", "cycle", "--n", "6", "--out", str(graph))
        code = run_cli(
            "analyze", "--graph", str(graph), "--set", "0", "--measures", "xi"
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        (m,) = payload["measures"]
        assert m["value"] == pytest.approx(2.0)

    def test_sampled_boundary_expansion(self, tmp_path, capsys):
        graph = tmp_path / "c6.txt"
        run_cli("gen", "cycle", "--n", "6", "--out", str(graph))
        code = run_cli(
            "analyze", "--graph", str(graph), "--set", "0",
            "--measures", "h", "--samples", "4000", "--seed", "1",
        )
        assert code == EXIT_OK
        (m,) = json.loads(capsys.readouterr().out)["measures"]
        assert m["method"] == "monte-carlo"
        assert m["value"] == pytest.approx(0.5, abs=0.05)

    def test_decompose_payload(self, tmp_path, capsys):
        graph = tmp_path / "s6.txt"
        run_cli("gen", "star", "--leaves", "6", "--out", str(graph))
        code = run_cli(
            "analyze", "--graph", str(graph), "--set", "1,2",
            "--measures", "h", "--decompose",
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        dec = payload["degree_classes"]
        assert set(dec["low"] + dec["mid"] + dec["high"]) == {0}
        assert len(dec["contributions"]) == 3

    def test_unknown_measure_exit_2(self, k4, capsys):
        assert run_cli("analyze", "--graph", k4, "--measures", "zeta") == EXIT_INPUT
        assert "unknown measure" in capsys.readouterr().err

    def test_missing_graph_exit_2(self, tmp_path, capsys):
        code = run_cli("analyze", "--graph", str(tmp_path / "nope.txt"))
        assert code == EXIT_INPUT
        assert "cannot read graph file" in capsys.readouterr().err

    def test_set_outside_graph_exit_2(self, k4, capsys):
        code = run_cli("analyze", "--graph", k4, "--set", "9", "--measures", "h")
        assert code == EXIT_INPUT
        assert "not in the graph" in capsys.readouterr().err

    @pytest.mark.parametrize("measures", [[], ["--measures", "h"]], ids=["default", "h"])
    @pytest.mark.parametrize("text", ["", " , "], ids=["empty", "separators"])
    def test_empty_set_exit_2(self, k4, capsys, text, measures):
        # a --set with no labels names the empty set, not no set
        assert run_cli("analyze", "--graph", k4, "--set", text, *measures) == EXIT_INPUT
        assert "set must be a nonempty proper subset" in capsys.readouterr().err

    def test_limit_below_n_exit_3(self, k4, capsys):
        code = run_cli("analyze", "--graph", k4, "--limit", "3")
        assert code == EXIT_CAPABILITY
        assert "capped at 3 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_exit_2(self, k4, capsys, limit):
        code = run_cli("analyze", "--graph", k4, "--limit", limit)
        assert code == EXIT_INPUT
        assert f"enumeration cap must be at least 1 node, got {limit}" in capsys.readouterr().err

    def test_limit_one_exit_3(self, k4, capsys):
        code = run_cli("analyze", "--graph", k4, "--limit", "1")
        assert code == EXIT_CAPABILITY
        assert "capped at 1 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("name", MEASURES)
    def test_measure_table(self, k4, capsys, name):
        # an enumerable measure is one the enumeration computes, its witness
        # scoring the minimum under the measure's set function; any other
        # needs a set
        alias, set_function, enumerable = _MEASURES[name]
        assert MEASURE_ALIASES[alias] == name
        if enumerable:
            g = generators.dumbbell(4)
            best, witness = expansion._exact_minima(g, [name])[name]
            assert getattr(expansion, set_function)(g, witness) == pytest.approx(float(best))
        else:
            assert run_cli("analyze", "--graph", k4, "--measures", alias) == EXIT_INPUT
            assert f"error: {name} needs a node set (--set)" in capsys.readouterr().err

    def test_set_only_measure_first_exit_2(self, k4, capsys):
        # the set-only measure comes before the graph-level one, so its
        # error fires before the enumeration refuses the graph
        code = run_cli("analyze", "--graph", k4, "--measures", "h,alpha", "--limit", "3")
        assert code == EXIT_INPUT
        assert "boundary-expansion needs a node set" in capsys.readouterr().err

    def test_graph_level_measure_first_exit_3(self, k4, capsys):
        code = run_cli("analyze", "--graph", k4, "--measures", "alpha,h", "--limit", "3")
        assert code == EXIT_CAPABILITY
        err = capsys.readouterr().err
        assert "vertex expansion enumerates all subsets and is capped at 3 nodes" in err

    def test_repeated_measure_reported_twice(self, k4, capsys):
        code = run_cli("analyze", "--graph", k4, "--measures", "alpha,phi,alpha")
        assert code == EXIT_OK
        reports = json.loads(capsys.readouterr().out)["measures"]
        assert [m["measure"] for m in reports] == [
            "vertex-expansion", "conductance", "vertex-expansion"
        ]
        assert reports[0] == reports[2]
        assert reports[0]["value"] == pytest.approx(1.0)
        assert reports[1]["value"] == pytest.approx(2 / 3)

    def test_original_labels_respected(self, tmp_path, capsys):
        cases = [
            ("a b\nb c\nc d\n", "a", 0, 0.5),
            # 1 and 01 are distinct labels with the same integer value
            ("1 01\n01 2\n2 3\n3 1\n", "01", 0, 0.375),
        ]
        graph = tmp_path / "named.txt"
        set_file = tmp_path / "set.txt"
        for edges, label, node, h in cases:
            graph.write_text(edges)
            set_file.write_text(f"# original labels\n\n{label}\n")
            for via, arg in (("--set", label), ("--set-file", str(set_file))):
                code = run_cli(
                    "analyze", "--graph", str(graph), via, arg, "--measures", "h"
                )
                assert code == EXIT_OK, (label, via)
                payload = json.loads(capsys.readouterr().out)
                assert payload["measures"][0]["value"] == pytest.approx(h)
                assert payload["measures"][0]["witness"] == [node], (label, via)
                assert payload["node_mapping"][label] == node

    def test_output_independent_of_hash_seed(self, tmp_path):
        # 1 and 01 parse to the same integer; their order must not come from
        # set iteration, which follows the interpreter's hash seed
        graph = tmp_path / "collide.txt"
        graph.write_text("1 01\n01 2\n2 3\n3 1\n")
        src = str(Path(rumorspread.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "5"):
            proc = subprocess.run(
                [sys.executable, "-m", "rumorspread.cli", "analyze", "--graph",
                 str(graph)],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True,
                check=True,
                timeout=120,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @given(
        edge_text=fuzz_edge_lists(),
        prefix=st.sampled_from([b"", b"", b"", b"\xff"]),  # invalid UTF-8 at times
        measures=st.lists(
            st.sampled_from(sorted(MEASURE_ALIASES) + list(MEASURES) + ["zeta", ""]),
            min_size=1,
            max_size=4,
        ).map(",".join),
        limit=st.one_of(
            st.none(), st.sampled_from([0, -1, -7, 10**6]), st.integers(-3, 20)
        ),
        set_label=st.one_of(st.none(), FUZZ_LABELS),
    )
    @pytest.mark.filterwarnings("ignore:.*dropped")
    @settings(max_examples=200)
    @example(
        edge_text="\n".join(f"{i} {(i + 1) % 63}" for i in range(63)),
        prefix=b"",
        measures="alpha,phi,xi",
        limit=10**6,
        set_label=None,
    )
    def test_fuzz_exit_codes(self, edge_text, prefix, measures, limit, set_label):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp) / "fuzz.txt"
            graph.write_bytes(prefix + edge_text.encode())
            argv = ["analyze", "--graph", str(graph), f"--measures={measures}"]
            if limit is not None:
                argv.append(f"--limit={limit}")
            if set_label is not None:
                argv.append(f"--set={set_label}")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAPABILITY, EXIT_INCOMPLETE, EXIT_CONSTRUCTION)
        assert "Traceback" not in err.getvalue()


# Every subcommand in one process, run under two hash seeds by
# TestHashSeedMatrix; its artifacts are the files it leaves in its directory.
HASH_SEED_DRIVER = r"""
import contextlib, io, json
from rumorspread.cli import main

def run(name, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, name
    with open(name + ".stdout", "w") as fh:
        fh.write(out.getvalue())

run("gen", "gen", "erdos_renyi", "--n", "14", "--p", "0.4", "--seed", "2", "--out", "g.txt")
# the same graph with word labels, whose sets iterate in hash-seed order
with open("g.txt") as src, open("words.txt", "w") as dst:
    for line in src:
        if not line.startswith("#"):
            dst.write(" ".join("w" + tok for tok in line.split()) + "\n")
run("analyze", "analyze", "--graph", "words.txt", "--measures", "alpha,phi,xi",
    "--out", "analyze.json")
run("analyze-set", "analyze", "--graph", "words.txt", "--set", "w0,w3,w7",
    "--measures", "alpha,phi,h,xi,rho", "--decompose", "--out", "analyze_set.json")
run("simulate", "simulate", "--graph", "words.txt", "--trials", "20", "--seed", "1",
    "--trace-out", "trace.csv", "--summary-out", "summary.csv")
for tag, extra in (("full", []), ("restricted", ["--restricted-start"])):
    run("participating-" + tag, "participating", "--graph", "words.txt", "--set", "w0,w3",
        "--eps-h", "4/5", "--eps-p", "1/20", "--check", "--log-csv", "log_" + tag + ".csv",
        "--out", "participating_" + tag + ".json", *extra)
with open("sweep.json", "w") as fh:
    json.dump({"family": "hypercube", "sweep": [{"d": 2}, {"d": 3}], "trials": 20,
               "rng_seed": 3}, fh)
run("experiment", "experiment", "--config", "sweep.json", "--points-out", "points.csv",
    "--report-out", "report.json")
run("report", "report", "points.csv", "--out", "digest.json")
"""


class TestHashSeedMatrix:
    def test_every_artifact_independent_of_hash_seed(self, tmp_path):
        src = str(Path(rumorspread.__file__).resolve().parents[1])
        artifacts = {}
        for seed in ("0", "1"):
            cwd = tmp_path / seed
            cwd.mkdir()
            subprocess.run(
                [sys.executable, "-c", HASH_SEED_DRIVER],
                cwd=cwd,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                check=True,
                timeout=300,
            )
            artifacts[seed] = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        names = set(artifacts["0"])
        assert {
            "g.txt", "analyze.json", "analyze_set.json", "trace.csv", "summary.csv",
            "log_full.csv", "log_restricted.csv", "participating_full.json",
            "participating_restricted.json", "points.csv", "report.json", "digest.json",
        } <= names
        assert names == set(artifacts["1"])
        for name in sorted(names):
            assert artifacts["0"][name] == artifacts["1"][name], name


class TestSimulate:
    def test_pair_always_one_round(self, tmp_path, capsys):
        graph = tmp_path / "k2.txt"
        run_cli("gen", "complete", "--n", "2", "--out", str(graph))
        summary = tmp_path / "summary.csv"
        code = run_cli(
            "simulate", "--graph", str(graph), "--trials", "10",
            "--summary-out", str(summary),
        )
        assert code == EXIT_OK
        assert "trials=10 completed=10 median_t_all=1" in capsys.readouterr().out
        lines = summary.read_text().strip().splitlines()
        assert all(line.endswith(",1,1") for line in lines[1:])

    def test_star_center_pull_one_round(self, tmp_path, capsys):
        graph = tmp_path / "star.txt"
        run_cli("gen", "star", "--leaves", "100", "--out", str(graph))
        code = run_cli(
            "simulate", "--graph", str(graph), "--variant", "pull",
            "--informed", "0", "--trials", "20",
        )
        assert code == EXIT_OK
        assert "median_t_all=1" in capsys.readouterr().out

    def test_summary_bytes_reproducible(self, tmp_path, capsys):
        graph = tmp_path / "c8.txt"
        run_cli("gen", "cycle", "--n", "8", "--out", str(graph))
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            code = run_cli(
                "simulate", "--graph", str(graph), "--trials", "30",
                "--seed", "7", "--summary-out", str(out),
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_round_cap_exit_4(self, tmp_path, capsys):
        graph = tmp_path / "p16.txt"
        run_cli("gen", "path", "--n", "16", "--out", str(graph))
        code = run_cli(
            "simulate", "--graph", str(graph), "--variant", "push",
            "--informed", "0", "--trials", "5", "--max-rounds", "1",
        )
        assert code == EXIT_INCOMPLETE
        assert "round cap" in capsys.readouterr().err


    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @given(
        edge_text=st.sampled_from(["0 1\n1 2\n2 3\n3 0\n", "a b\nb c\nc a\nc d\n"]),
        variant=st.sampled_from(["push", "pull", "pushpull", "flood"]),
        informed=st.one_of(
            st.sampled_from(["random", "dominating", "", ",", "0,0", "a a c", "zz", "99"]),
            st.lists(FUZZ_LABELS, max_size=3).map(",".join),
        ),
        trials=st.integers(-2, 6),
        max_rounds=st.one_of(st.none(), st.integers(-1, 8)),
        seed=st.one_of(
            st.integers(-(2**70), 2**70), st.sampled_from([-1, 2**64, 2**64 + 1, 2**70])
        ),
        outputs=st.sampled_from([(), ("--summary-out",), ("--trace-out", "--summary-out")]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fuzz_exit_codes(self, edge_text, variant, informed, trials, max_rounds, seed, outputs):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp) / "fuzz.txt"
            graph.write_text(edge_text)
            argv = [
                "simulate", "--graph", str(graph), "--variant", variant,
                f"--informed={informed}", f"--trials={trials}", f"--seed={seed}",
            ]
            if max_rounds is not None:
                argv.append(f"--max-rounds={max_rounds}")
            for flag in outputs:
                argv.append(f"{flag}={Path(tmp) / flag.strip('-')}")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects an unknown variant
                    code = exc.code
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAPABILITY, EXIT_INCOMPLETE, EXIT_CONSTRUCTION)
        assert "Traceback" not in err.getvalue()


class TestParticipating:
    def test_cycle_fixed_point(self, tmp_path, capsys):
        graph = tmp_path / "c6.txt"
        run_cli("gen", "cycle", "--n", "6", "--out", str(graph))
        code = run_cli(
            "participating", "--graph", str(graph), "--set", "0", "--check"
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["participating"] == ["0", "1", "2", "4", "5"]
        assert payload["active"] == ["0", "1", "5"]
        assert payload["passive"] == ["2", "4"]
        assert payload["removals"] == 1
        assert payload["eps_p"] == "3/20"
        check = payload["active_fraction_check"]
        assert not check["skipped"]
        assert check["all_ok"]

    def test_restricted_start_and_log(self, tmp_path, capsys):
        graph = tmp_path / "p5.txt"
        run_cli("gen", "path", "--n", "5", "--out", str(graph))
        log = tmp_path / "log.csv"
        code = run_cli(
            "participating", "--graph", str(graph), "--set", "0",
            "--eps-p", "1/5", "--restricted-start", "--log-csv", str(log),
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["start_rule"] == "restricted"
        assert payload["participating"] == ["0", "1", "2"]
        assert log.exists()

    def test_fraction_argument_parsing(self, tmp_path, capsys):
        graph = tmp_path / "c6.txt"
        run_cli("gen", "cycle", "--n", "6", "--out", str(graph))
        code = run_cli(
            "participating", "--graph", str(graph), "--set", "0",
            "--eps-p", "1/10", "--eps-h", "3/4",
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["eps_p"] == "1/10" and payload["eps_h"] == "3/4"

    @pytest.mark.parametrize("flag", ["--eps-p", "--eps-h"])
    @pytest.mark.parametrize(
        "value", ["abc", "1/0", "nan", "inf", "", "1/2/3", "1e100000", "1e-100000", "1" * 50]
    )
    def test_malformed_fraction_exit_2(self, tmp_path, capsys, flag, value):
        graph = tmp_path / "c6.txt"
        run_cli("gen", "cycle", "--n", "6", "--out", str(graph))
        code = run_cli("participating", "--graph", str(graph), "--set", "0", f"{flag}={value}")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {flag} value")
        assert "Traceback" not in err

    @given(
        edge_text=fuzz_edge_lists(),
        labels=st.one_of(st.none(), st.lists(FUZZ_LABELS, max_size=3).map(",".join)),
        eps_p=FUZZ_FRACTIONS,
        eps_h=FUZZ_FRACTIONS,
        restricted=st.booleans(),
        check=st.booleans(),
        log_csv=st.sampled_from([None, "log.csv", "missing/log.csv"]),
    )
    @pytest.mark.filterwarnings("ignore:.*dropped")
    @settings(max_examples=200)
    def test_fuzz_exit_codes(self, edge_text, labels, eps_p, eps_h, restricted, check, log_csv):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp) / "fuzz.txt"
            graph.write_text(edge_text)
            argv = ["participating", "--graph", str(graph), f"--eps-p={eps_p}", f"--eps-h={eps_h}"]
            if labels is not None:
                argv.append(f"--set={labels}")
            if restricted:
                argv.append("--restricted-start")
            if check:
                argv.append("--check")
            if log_csv is not None:
                argv.append(f"--log-csv={Path(tmp) / log_csv}")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAPABILITY, EXIT_INCOMPLETE, EXIT_CONSTRUCTION)
        assert "Traceback" not in err.getvalue()


class TestUnwritableOutput:
    """Every output flag turns a file that cannot be written into exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "cycle", "--n", "5", "--out", "{bad}"],
            ["analyze", "--graph", "{graph}", "--out", "{bad}"],
            ["simulate", "--graph", "{graph}", "--trials", "2", "--summary-out", "{bad}"],
            ["simulate", "--graph", "{graph}", "--trials", "2", "--trace-out", "{bad}"],
            ["participating", "--graph", "{graph}", "--set", "0", "--out", "{bad}"],
            ["participating", "--graph", "{graph}", "--set", "0", "--log-csv", "{bad}"],
            ["experiment", "--config", "{config}", "--points-out", "{bad}"],
            ["experiment", "--config", "{config}", "--points-out", "{ok}", "--report-out", "{bad}"],
            ["report", "{points}", "--out", "{bad}"],
        ],
        ids=lambda argv: " ".join(a for a in argv if a.startswith("-") or a.isalpha()),
    )
    def test_missing_directory_exit_2(self, tmp_path, capsys, argv):
        graph = tmp_path / "c6.txt"
        run_cli("gen", "cycle", "--n", "6", "--out", str(graph))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"family": "hypercube", "sweep": [{"d": 2}], "trials": 5, "rng_seed": 1}
        ))
        points = tmp_path / "points.csv"
        run_cli("experiment", "--config", str(config), "--points-out", str(points),
                "--report-out", str(tmp_path / "report.json"))
        capsys.readouterr()
        bad = tmp_path / "missing" / "out.txt"
        paths = {"graph": graph, "config": config, "points": points,
                 "ok": tmp_path / "ok.csv", "bad": bad}
        code = run_cli(*(a.format(**paths) for a in argv))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad}: ")
        assert "Traceback" not in err
        assert not bad.parent.exists()


class TestUnreadableInput:
    """Every input flag turns a file that cannot be decoded, or opened, into
    exit 2 naming the file."""

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["analyze", "--graph", "{bad}"], "graph file"),
            (["simulate", "--graph", "{bad}", "--trials", "2"], "graph file"),
            (["participating", "--graph", "{bad}", "--set", "0"], "graph file"),
            (["analyze", "--graph", "{graph}", "--set-file", "{bad}", "--measures", "h"], "set file"),
            (["participating", "--graph", "{graph}", "--set-file", "{bad}"], "set file"),
            (["experiment", "--config", "{bad}"], "config"),
            (["report", "{points}", "{bad}"], "points table"),
        ],
        ids=["analyze --graph", "simulate --graph", "participating --graph",
             "analyze --set-file", "participating --set-file", "experiment --config", "report"],
    )
    @pytest.mark.parametrize("content", [UNDECODABLE, None], ids=["undecodable", "missing"])
    def test_exit_2(self, tmp_path, capsys, argv, what, content):
        graph = tmp_path / "c6.txt"
        run_cli("gen", "cycle", "--n", "6", "--out", str(graph))
        points = tmp_path / "points.csv"
        points.write_text("index,params,n,ratio\n0,d=2,4,1.5\n")
        bad = tmp_path / "bad.txt"
        if content is not None:
            bad.write_bytes(content)
        paths = {"graph": graph, "points": points, "bad": bad}
        code = run_cli(*(a.format(**paths) for a in argv))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} {bad}: ")
        assert ("codec can't decode" in err) == (content is not None)


class TestExperimentAndReport:
    def write_config(self, tmp_path, name="cfg.json", **overrides):
        data = {
            "family": "hypercube",
            "sweep": [{"d": 2}, {"d": 3}],
            "trials": 30,
            "rng_seed": 3,
        }
        data.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_sweep_flow(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        points = tmp_path / "points.csv"
        report = tmp_path / "report.json"
        code = run_cli(
            "experiment", "--config", cfg,
            "--points-out", str(points), "--report-out", str(report),
        )
        assert code == EXIT_OK
        assert "points=2" in capsys.readouterr().out
        assert points.exists() and report.exists()

        code = run_cli("report", str(points))
        assert code == EXIT_OK
        digest = json.loads(capsys.readouterr().out)
        assert digest["points"] == 2
        assert digest["within_factor_2"] in (True, False)

    def test_two_sweeps_merge(self, tmp_path, capsys):
        paths = []
        for i, d_values in enumerate(([2, 3], [4])):
            cfg = self.write_config(
                tmp_path, name=f"cfg{i}.json", sweep=[{"d": d} for d in d_values]
            )
            points = tmp_path / f"points{i}.csv"
            code = run_cli(
                "experiment", "--config", cfg,
                "--points-out", str(points),
                "--report-out", str(tmp_path / f"report{i}.json"),
            )
            assert code == EXIT_OK
            paths.append(str(points))
        capsys.readouterr()
        assert run_cli("report", *paths) == EXIT_OK
        digest = json.loads(capsys.readouterr().out)
        assert digest["points"] == 3
        assert len(digest["sources"]) == 2

    def test_trials_override(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        points = tmp_path / "p.csv"
        code = run_cli(
            "experiment", "--config", cfg, "--trials", "7",
            "--points-out", str(points),
            "--report-out", str(tmp_path / "r.json"),
        )
        assert code == EXIT_OK
        assert ",7," in points.read_text()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("max_rounds", 0, "max_rounds must be >= 1, got 0"),
            ("informed", [], "initial_informed must be nonempty when given"),
            ("informed", [-1], "informed node ids must be nonnegative: (-1,)"),
        ],
        ids=["max-rounds-0", "informed-empty", "informed-negative"],
    )
    def test_protocol_rules_refused_before_any_build(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        def build(spec):
            raise AssertionError(f"built {spec.describe()} before the config was checked")

        monkeypatch.setattr(generators.FamilySpec, "build", build)
        cfg = self.write_config(
            tmp_path, family="random_regular", sweep=[{"n": 4096, "degree": 8}], **{key: value}
        )
        points = tmp_path / "p.csv"
        code = run_cli("experiment", "--config", cfg, "--points-out", str(points))
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not points.exists()

    def test_over_cap_point_refused_before_its_trials(self, tmp_path, capsys, monkeypatch):
        # hypercube(9) has 512 nodes, too many to enumerate its conductance
        sizes = []
        monte_carlo = rumorspread.experiment.monte_carlo

        def spy(g, cfg, trials):
            sizes.append(g.n)
            return monte_carlo(g, cfg, trials)

        monkeypatch.setattr(rumorspread.experiment, "monte_carlo", spy)
        cfg = self.write_config(
            tmp_path, sweep=[{"d": 4}, {"d": 9}], bound_model="logn_over_phi", trials=2000
        )
        code = run_cli("experiment", "--config", cfg, "--points-out", str(tmp_path / "p.csv"))
        assert code == EXIT_CAPABILITY
        assert sizes == [16]

    def test_report_empty_table_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("index,params,n,ratio\n")
        assert run_cli("report", str(empty)) == EXIT_INPUT
        assert "no sweep points" in capsys.readouterr().err

    def test_report_malformed_csv_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,params,n,ratio\n0,d=2,4\n")
        assert run_cli("report", str(bad)) == EXIT_INPUT
        assert "bad.csv:2" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["0", "-1.5", "nan", "inf"])
    def test_report_rejects_ratio_without_drift(self, tmp_path, capsys, ratio):
        # the drift is the largest ratio over the smallest
        bad = tmp_path / "bad.csv"
        bad.write_text(f"index,params,n,ratio\n0,d=2,4,1.5\n1,d=3,8,{ratio}\n")
        assert run_cli("report", str(bad)) == EXIT_INPUT
        assert "bad.csv:3: ratio must be a positive finite number" in capsys.readouterr().err

    def test_bad_json_config_exit_2(self, tmp_path, capsys):
        cases = [
            ("{not json", "bad JSON"),
            ('{"family": "hypercube", "sweep": [5]}', "sweep"),
            ('{"family": "hypercube", "sweep": [{"d": 2}], "trials": "x"}', "trials"),
            ('{"family": "hypercube", "sweep": [{"d": 2}], "trials": 2.5}', "trials"),
            ('{"family": "cycle", "sweep": [{"n": "8"}]}', "sweep"),
            ('[{"family": "hypercube", "sweep": [{"d": 2}]}]', "JSON object"),
        ]
        # json.load reads NaN and Infinity, which must not reach the sweep
        point = '{"family": "hypercube", "sweep": [{"d": 2}], '
        for key, values in (("max_rounds_factor", ("NaN", "Infinity", "-1", "1e308")),
                            ("predictor_values", ("[0]", "[-1.5]", "[NaN]"))):
            cases += [(point + f'"{key}": {value}}}', key) for value in values]
        cases += [(point + f'"enumeration_limit": {limit}}}', "enumeration_limit must be >= 1")
                  for limit in (0, -1)]
        # positive finite predictors whose ratio is not finite: a subnormal
        # value overflows it, and log2(max degree) is 0 on a single edge
        cases += [
            (point + '"predictor_values": [1e-320]}', "sweep point 0: predictor 1e-320"),
            ('{"family": "path", "sweep": [{"n": 4}, {"n": 2}], '
             '"bound_model": "logn_logdelta_over_alpha"}', "sweep point 1: predictor 0.0"),
        ]
        for text, message in cases:
            cfg = tmp_path / "broken.json"
            cfg.write_text(text)
            assert run_cli("experiment", "--config", str(cfg)) == EXIT_INPUT, text
            assert message in capsys.readouterr().err, text

    @given(config=fuzz_configs(), trials=st.one_of(st.none(), st.integers(-2, 6)))
    @pytest.mark.filterwarnings("ignore:.*dropped")
    @settings(max_examples=150)
    @example(config=UNDECODABLE, trials=None)
    def test_fuzz_experiment_exit_codes(self, config, trials):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_bytes(config if isinstance(config, bytes) else config.encode())
            argv = ["experiment", "--config", str(path), "--points-out", str(Path(tmp) / "p.csv"),
                    "--report-out", str(Path(tmp) / "r.json")]
            if trials is not None:
                argv.append(f"--trials={trials}")
            code, err = run_fuzzed(argv)
        assert code in FUZZ_EXIT_CODES
        assert "Traceback" not in err

    @given(tables=st.lists(fuzz_points_tables(), min_size=1, max_size=2), missing=st.booleans())
    @settings(max_examples=200)
    @example(tables=["index,params,n,ratio\n0,d=2,4,0\n1,d=3,8,1.5\n"], missing=False)
    @example(tables=["index,params,n,ratio\n0,d=2,4,1\n", UNDECODABLE], missing=False)
    def test_fuzz_report_exit_codes(self, tables, missing):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, text in enumerate(tables):
                paths.append(Path(tmp) / f"points{i}.csv")
                paths[-1].write_bytes(text if isinstance(text, bytes) else text.encode())
            if missing:
                paths.append(Path(tmp) / "absent.csv")
            code, err = run_fuzzed(["report", *map(str, paths)])
        assert code in FUZZ_EXIT_CODES
        assert "Traceback" not in err


class TestCountsTooLargeToSize:
    """A count numpy cannot size, 2**60 or more, is bad input: exit 2, never a
    traceback, and no graph built for it. No test here hands numpy a count it
    would try to allocate."""

    HUGE = "99999999999999999999"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--trials", HUGE],
            ["analyze", "--set", "0", "--measures", "h", "--samples", HUGE],
            ["analyze", "--set", "0", "--measures", "h", "--samples", str(2**60)],
        ],
        ids=["simulate-trials", "analyze-samples", "analyze-samples-2**60"],
    )
    def test_main_exit_2(self, k4, capsys, argv):
        assert run_cli(*argv, "--graph", k4) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at most 1152921504606846975" in err

    @pytest.mark.parametrize(
        "config, override",
        [
            ({"family": "hypercube", "sweep": [{"d": 2}], "trials": int(HUGE)}, []),
            ({"family": "hypercube", "sweep": [{"d": 2}], "trials": 2**60}, []),
            ({"family": "hypercube", "sweep": [{"d": 2}]}, ["--trials", HUGE]),
        ],
        ids=["config", "config-2**60", "override"],
    )
    def test_experiment_trials_refused_before_any_build(
        self, tmp_path, capsys, monkeypatch, config, override
    ):
        def build(spec):
            raise AssertionError(f"built {spec.describe()} before the config was checked")

        monkeypatch.setattr(generators.FamilySpec, "build", build)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = run_cli("experiment", "--config", str(path), *override,
                       "--points-out", str(tmp_path / "p.csv"))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: trials must be at most ")

    @pytest.mark.parametrize("d", [63, int(HUGE)])
    def test_hypercube_d(self, tmp_path, capsys, d):
        out = tmp_path / "q.txt"
        assert run_cli("gen", "hypercube", "--d", str(d), "--out", str(out)) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: hypercube needs 1 <= d <= 62")
        assert not out.exists()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "hypercube", "sweep": [{"d": d}], "trials": 2}))
        code = run_cli("experiment", "--config", str(path), "--points-out", str(tmp_path / "p.csv"))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: hypercube needs 1 <= d <= 62")

    @pytest.mark.parametrize("count", [2**60, 2**61])
    def test_library_refuses(self, count):
        g = generators.cycle(6)
        calls = [
            lambda: rumorspread.monte_carlo(g, rumorspread.ProtocolConfig(), count),
            lambda: rumorspread.first_arrival_times(g, {0}, {3}, "push", count, 0),
            lambda: rumorspread.pull_growth_check(g, {0}, count, 0),
            lambda: rumorspread.boundary_expansion_mc(g, {0}, count, 0),
        ]
        for call in calls:
            with pytest.raises(rumorspread.InputError, match="must be at most"):
                call()
