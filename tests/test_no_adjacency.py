"""The package walks only the CSR arrays: no public function that takes a
graph builds the adjacency tuples ``Graph.adj`` for itself."""

import numpy as np
import pytest

import rumorspread.cli as cli
from rumorspread import (
    ParticipatingConfig,
    ProtocolConfig,
    active_fraction_check,
    augmented_combined_expansion_set,
    boundary,
    boundary_expansion_due_to,
    boundary_expansion_exact,
    boundary_expansion_fraction,
    boundary_expansion_mc,
    closure,
    combined_expansion_graph,
    combined_expansion_set,
    compute_participating,
    compute_participating_modified,
    conductance_graph,
    conductance_set,
    cut_size,
    cycle,
    degree_class_decomposition,
    diameter,
    edges_between,
    first_arrival_times,
    greedy_dominating_set,
    harmonic_mass,
    is_dominating,
    load_edge_list,
    monte_carlo,
    participating_fixed_point,
    potential,
    pull_growth_check,
    random_regular,
    regular_h_sandwich,
    regular_s_factor,
    restricted_start,
    run,
    run_restricted,
    sandwich_alpha_phi,
    save_edge_list,
    single_round,
    vertex_expansion_graph,
    vertex_expansion_set,
    volume,
)
from rumorspread.graph import bfs_distances

CASES = {
    # past the enumeration limit: every call but the enumerated measures
    "rr64": (lambda: random_regular(64, 8, rng_seed=3), {0, 9, 17, 40}),
    # a 12-line file, parsed line by line and built as every graph is
    "c12": (lambda: cycle(12), {0, 1}),
}


def library_calls(g, s):
    """Every public library function that takes a graph, by name."""
    cfg = ParticipatingConfig()
    spread = ProtocolConfig(rng_seed=1, max_rounds=200)
    full = compute_participating(g, s, cfg)
    calls = {
        "boundary": lambda: boundary(g, s),
        "closure": lambda: closure(g, s),
        "cut_size": lambda: cut_size(g, s),
        "volume": lambda: volume(g, s),
        "neighbors": lambda: g.neighbors(0),
        "degree": lambda: g.degree(0),
        "edges_between": lambda: edges_between(g, s, g.node_set - closure(g, s)),
        "is_dominating": lambda: is_dominating(g, s),
        "harmonic_mass": lambda: harmonic_mass(g, s),
        "bfs_distances": lambda: bfs_distances(g, 0),
        "diameter": lambda: diameter(g),
        "vertex_expansion_set": lambda: vertex_expansion_set(g, s),
        "conductance_set": lambda: conductance_set(g, s),
        "combined_expansion_set": lambda: combined_expansion_set(g, s),
        "augmented_combined_expansion_set": lambda: augmented_combined_expansion_set(g, s),
        "boundary_expansion_exact": lambda: boundary_expansion_exact(g, s),
        "boundary_expansion_due_to": lambda: boundary_expansion_due_to(g, s, boundary(g, s)),
        "boundary_expansion_fraction": lambda: boundary_expansion_fraction(g, s),
        "degree_class_decomposition": lambda: degree_class_decomposition(g, s, 0.5),
        "regular_h_sandwich": lambda: regular_h_sandwich(g, s),
        "regular_s_factor": lambda: regular_s_factor(g, s),
        "boundary_expansion_mc": lambda: boundary_expansion_mc(g, s, samples=50, rng_seed=0),
        "pull_growth_check": lambda: pull_growth_check(g, s, trials=50, rng_seed=0),
        "greedy_dominating_set": lambda: greedy_dominating_set(g),
        "run": lambda: run(g, spread),
        "monte_carlo": lambda: monte_carlo(g, spread, 5),
        "first_arrival_times": lambda: first_arrival_times(g, s, {g.n - 1}, "pull", 5, 0),
        "single_round": lambda: single_round(g, s, "pushpull", np.random.default_rng(0)),
        "run_restricted": lambda: run_restricted(
            g, s, min(full.active), spread, full.participating, full.active
        ),
        "participating_fixed_point": lambda: participating_fixed_point(g, s, cfg),
        "compute_participating_modified": lambda: compute_participating_modified(g, s, cfg),
        "restricted_start": lambda: restricted_start(g, s, cfg),
        "potential": lambda: potential(g, s, full.participating),
        "active_fraction_check": lambda: active_fraction_check(g, s, cfg, full=full),
    }
    if g.n <= 20:
        calls["vertex_expansion_graph"] = lambda: vertex_expansion_graph(g)
        calls["conductance_graph"] = lambda: conductance_graph(g)
        calls["combined_expansion_graph"] = lambda: combined_expansion_graph(g)
        calls["sandwich_alpha_phi"] = lambda: sandwich_alpha_phi(g)
    return calls


def cli_calls(path, tmp_path, s, enumerable):
    """Each CLI command that walks the graph, by name, as argv lists."""
    nodes = ",".join(map(str, sorted(s)))
    out = str(tmp_path / "out.json")
    calls = {
        "analyze --set --decompose": [
            "analyze", "--graph", path, "--set", nodes, "--measures", "alpha,phi,h,xi,rho",
            "--decompose", "--out", out,
        ],
        "simulate --informed dominating": [
            "simulate", "--graph", path, "--informed", "dominating", "--trials", "3",
            "--summary-out", str(tmp_path / "summary.csv"),
        ],
    }
    for extra in ([], ["--restricted-start"]):
        calls[" ".join(["participating --check", *extra])] = [
            "participating", "--graph", path, "--set", nodes, "--check",
            "--log-csv", str(tmp_path / "log.csv"), "--out", out, *extra,
        ]
    if enumerable:
        calls["analyze"] = [
            "analyze", "--graph", path, "--measures", "alpha,phi,xi", "--out", out,
        ]
    return calls


class TestNoAdjacencyTuples:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_call_builds_adj(self, case, tmp_path, monkeypatch):
        make, s = CASES[case]
        path = str(tmp_path / "g.txt")
        save_edge_list(make(), path)
        g, _ = load_edge_list(path)
        assert "adj" not in g.__dict__
        results = {}
        for name, call in library_calls(g, s).items():
            results[name] = call()
            assert "adj" not in g.__dict__, name
        audit = results["active_fraction_check"]
        assert not audit.skipped and audit.all_ok

        loaded = []

        def load(p):
            g, mapping = load_edge_list(p)
            loaded.append(g)
            return g, mapping

        monkeypatch.setattr(cli, "load_edge_list", load)
        for name, argv in cli_calls(path, tmp_path, s, g.n <= 20).items():
            assert cli.main(argv) == 0, name
            assert "adj" not in loaded[-1].__dict__, name
