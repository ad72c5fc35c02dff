"""Outputs frozen at fixed seeds.

The determinism contract promises the same bytes for the same seed: summary
and trace files, restricted traces, arrival times, growth statistics,
estimator values and enumerated minima with their witnesses. Each expectation
below was recorded from the implementation and must not move when the round
kernel, the boundary-expansion formula or the subset enumerator is
restructured. A deliberate change of any of these values is a change of the
contract and belongs in CHANGES.md.
"""

import hashlib
import random

import pytest

from helpers import petersen, random_connected
from rumorspread import (
    ProtocolConfig,
    boundary,
    clustered_regular,
    combined_expansion_graph,
    conductance_graph,
    boundary_expansion_due_to,
    boundary_expansion_exact,
    boundary_expansion_fraction,
    boundary_expansion_mc,
    cycle,
    dumbbell,
    first_arrival_times,
    hypercube,
    pull_growth_check,
    random_regular,
    run_restricted,
    vertex_expansion_graph,
)
from rumorspread.cli import EXIT_OK, main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SIMULATE_DIGESTS = {
    ("push", "random"): (
        "ad81e08881ab65085fbdc530a7a34b6d6f53c75f5c55d4607a6f97bdc6b5eec7",
        "5ca2d8f60f4a36ef2adc6211e0bcc53df0a058d9d915141cff17366a6e652e83",
    ),
    ("pull", "random"): (
        "05db46aa5aa50f6f9c972bf571cbba1de950cd8efe31d6b55f4f63b7767e2404",
        "ca29a487e5de9394c063e9d653f297225fbd6199eb4d0dcb44836d2b45386517",
    ),
    ("pushpull", "random"): (
        "ce19055a3e2a5f11132efea8ff702bba6d4ac89dff8480685c423fa7e96662e1",
        "7eb2f65148726545ab01b948882f886bc26a1374a2543c0ac54fa82cc430b981",
    ),
    ("pushpull", "dominating"): (
        "7dcfe57c165beb6c95eab567d05b300df5ba4e3bbfbac057b6d0a1e508f3cb9d",
        "2e11715c0f4ebcf19df391b2cd6cfc5a191996e71250a037277cb4efe5412499",
    ),
}


def simulate_digests(tmp_path, variant: str, informed: str) -> tuple[str, str]:
    graph = tmp_path / "db5.txt"
    assert main(["gen", "dumbbell", "--m", "5", "--out", str(graph)]) == EXIT_OK
    summary = tmp_path / "summary.csv"
    trace = tmp_path / "trace.csv"
    argv = [
        "simulate", "--graph", str(graph), "--variant", variant,
        "--informed", informed, "--trials", "12", "--seed", "3",
        "--summary-out", str(summary), "--trace-out", str(trace),
    ]
    assert main(argv) == EXIT_OK
    return _sha(summary.read_bytes()), _sha(trace.read_bytes())


@pytest.mark.parametrize("variant,informed", sorted(SIMULATE_DIGESTS))
def test_simulate_summary_and_trace_bytes(tmp_path, variant, informed):
    assert simulate_digests(tmp_path, variant, informed) == SIMULATE_DIGESTS[
        (variant, informed)
    ]


RESTRICTED_DIGEST = (
    "07540275298f500ba06eba96b6c2799911c244091aca6c49acff5a37c961f080"
)


def restricted_digest() -> str:
    """Hypercube Q4 with participating = 0..11 and, among those, only the
    even-weight nodes active. Q4 is bipartite by weight parity, so no contact
    joins two active nodes and every hop passes through a passive node."""
    g = hypercube(4)
    part = frozenset(range(12))
    active = frozenset(v for v in part if bin(v).count("1") % 2 == 0)
    cfg = ProtocolConfig(rng_seed=11, record_sets=True, max_rounds=30)
    tr = run_restricted(g, {15}, 0, cfg, participating=part, active=active)
    fields = (
        tr.informed, tr.boundary, tr.closure, tr.psi, tr.harmonic_mass,
        [sorted(s) for s in tr.sets], tr.t_half, tr.t_all, tr.completed,
        tr.t_target,
    )
    return _sha(repr(fields).encode())


def test_restricted_trace():
    assert restricted_digest() == RESTRICTED_DIGEST


ARRIVAL_DIGESTS = {
    "push": "e59800cbbcbdd278e62f1c9d6c067102c21906633e50572eea9d1db0f08414a4",
    "pull": "1ce1e846979be196537c4e2e8280b6960cda0b5789c5f29b161eba3d9760361c",
    "pushpull": "2f2fc9d8d276f65f8e41b4ac13fb0374768c27b55b61aae1202fbc6233c9aac7",
}


def arrival_digest(variant: str) -> str:
    # more trials than one sampler batch holds, so the batch seam is covered
    times = first_arrival_times(dumbbell(4), {0}, {7}, variant, 5000, rng_seed=4)
    return _sha(times.astype("<i8").tobytes())


@pytest.mark.parametrize("variant", sorted(ARRIVAL_DIGESTS))
def test_first_arrival_times(variant):
    assert arrival_digest(variant) == ARRIVAL_DIGESTS[variant]


GROWTH_REPRS = {
    "dumbbell-4": "(3000, 0.779, 0.0075766396568331335, 0.25, 2, True)",
    "hypercube-4": "(2000, 4.042, 0.01952712611541093, 2.46875, 7, True)",
}


def growth_repr(name: str) -> str:
    if name == "dumbbell-4":
        rep = pull_growth_check(dumbbell(4), {0, 1}, trials=3000, rng_seed=5)
    else:
        rep = pull_growth_check(hypercube(4), {0, 1, 2}, trials=2000, rng_seed=6)
    return repr(
        (rep.trials, rep.mean_growth, rep.stderr, rep.floor,
         rep.boundary_size, rep.passed)
    )


@pytest.mark.parametrize("name", sorted(GROWTH_REPRS))
def test_pull_growth_check_fields(name):
    assert growth_repr(name) == GROWTH_REPRS[name]


MC_REPRS = {
    "hypercube-4": "(0.355, 0.002877201472042472)",
    "petersen": "(0.5415, 0.006135698732253536)",
}


def mc_repr(name: str) -> str:
    if name == "hypercube-4":
        rep = boundary_expansion_mc(hypercube(4), {0, 1, 2}, 5000, rng_seed=7)
    else:
        rep = boundary_expansion_mc(petersen(), {0, 5}, 3000, rng_seed=8)
    return repr((rep.value, rep.stderr))


@pytest.mark.parametrize("name", sorted(MC_REPRS))
def test_boundary_expansion_mc(name):
    assert mc_repr(name) == MC_REPRS[name]


FORMULA_CASES = {
    "cycle-9": (cycle(9), {0, 1}),
    "dumbbell-4": (dumbbell(4), {0, 1, 2}),
    "hypercube-4": (hypercube(4), {0, 1, 3, 7}),
    "petersen": (petersen(), {0, 5}),
    "random-11": (random_connected(random.Random(17), 11, extra=0.25), {2, 4}),
}

FORMULA_REPRS = {
    "cycle-9": "(0.5, 0.25, Fraction(1, 2))",
    "dumbbell-4": "(0.25, 0.25, Fraction(1, 4))",
    "hypercube-4": "(0.25390625, 0.134765625, Fraction(65, 256))",
    "petersen": "(0.5555555555555555, 0.30555555555555547, Fraction(5, 9))",
    "random-11": "(0.3094444444444444, 0.17333333333333328, Fraction(557, 1800))",
}


def formula_repr(g, s) -> str:
    """Exact float, contribution of every other boundary node, rational."""
    half = sorted(boundary(g, s))[::2]
    return repr(
        (
            boundary_expansion_exact(g, s),
            boundary_expansion_due_to(g, s, half),
            boundary_expansion_fraction(g, s),
        )
    )


@pytest.mark.parametrize("name", sorted(FORMULA_REPRS))
def test_boundary_expansion_formula(name):
    assert formula_repr(*FORMULA_CASES[name]) == FORMULA_REPRS[name]


MINIMA_GRAPHS = {
    "hypercube-4": lambda: hypercube(4),
    "cycle-16": lambda: cycle(16),
    "clustered-16": lambda: clustered_regular(2, 4, 2, rng_seed=21),
    "random-3-regular-14": lambda: random_regular(14, 3, rng_seed=5),
    # past 16 nodes the subsets are enumerated in several chunks
    "random-4-regular-18": lambda: random_regular(18, 4, rng_seed=9),
    "cycle-20": lambda: cycle(20),
}

MINIMA_MEASURES = {
    "alpha": vertex_expansion_graph,
    "phi": conductance_graph,
    "xi": combined_expansion_graph,
}

MINIMA_REPRS = {
    ("hypercube-4", "alpha"): "(0.75, Fraction(3, 4), (0, 1, 2, 3, 4, 5, 8, 9))",
    ("hypercube-4", "phi"): "(0.25, Fraction(1, 4), (0, 1, 2, 3, 4, 5, 6, 7))",
    ("hypercube-4", "xi"): "(0.25, Fraction(1, 4), (0, 1, 2, 3, 4, 5, 6, 7))",
    ("cycle-16", "alpha"): "(0.25, Fraction(1, 4), (0, 1, 2, 3, 4, 5, 6, 7))",
    ("cycle-16", "phi"): "(0.125, Fraction(1, 8), (0, 1, 2, 3, 4, 5, 6, 7))",
    ("cycle-16", "xi"): "(0.25, Fraction(1, 4), (0, 1, 2, 3, 4, 5, 6, 7))",
    ("clustered-16", "alpha"): "(0.5, Fraction(1, 2), (0, 1, 2, 3, 4, 5, 6, 7))",
    ("clustered-16", "phi"): "(0.15, Fraction(3, 20), (0, 1, 2, 3, 4, 5, 6, 7))",
    ("clustered-16", "xi"): "(0.3023255813953488, Fraction(13, 43), (0, 1, 2, 3, 5, 6, 7, 14))",
    ("random-3-regular-14", "alpha"): "(0.42857142857142855, Fraction(3, 7), (1, 2, 3, 4, 5, 8, 12))",
    ("random-3-regular-14", "phi"): "(0.2, Fraction(1, 5), (0, 7, 9, 10, 11))",
    ("random-3-regular-14", "xi"): "(0.3333333333333333, Fraction(1, 3), (0, 1, 6, 7, 9, 10, 11))",
    ("random-4-regular-18", "alpha"): "(0.5555555555555556, Fraction(5, 9), (1, 2, 3, 4, 6, 10, 12, 15, 16))",
    ("random-4-regular-18", "phi"): "(0.2222222222222222, Fraction(2, 9), (0, 5, 7, 8, 9, 11, 14, 16, 17))",
    ("random-4-regular-18", "xi"): "(0.2777777777777778, Fraction(5, 18), (1, 2, 4, 6, 8, 9, 10, 13, 16))",
    ("cycle-20", "alpha"): "(0.2, Fraction(1, 5), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9))",
    ("cycle-20", "phi"): "(0.1, Fraction(1, 10), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9))",
    ("cycle-20", "xi"): "(0.2, Fraction(1, 5), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9))",
}


@pytest.mark.parametrize("name,measure", sorted(MINIMA_REPRS))
def test_graph_minima(name, measure):
    """Value, exact rational and tie-broken witness of each enumerated
    minimum; hypercube and cycle have many tied minimizers."""
    rep = MINIMA_MEASURES[measure](MINIMA_GRAPHS[name]())
    assert repr((rep.value, rep.exact, rep.witness)) == MINIMA_REPRS[(name, measure)]
