"""Outputs frozen at fixed seeds.

The determinism contract promises the same bytes for the same seed: summary
and trace files, restricted traces, arrival times, growth statistics,
estimator values, enumerated minima with their witnesses, the thinning
removal logs with their potential trajectories, and the guarantee audit's
reports and ``participating --check`` output. Each expectation below was
recorded from the implementation and must not move when the round kernel, the
boundary-expansion formula, the subset enumerator or the thinning loop is
restructured. A deliberate change of any of these values is a change of the
contract and belongs in CHANGES.md.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from helpers import petersen, random_connected
from rumorspread import (
    Graph,
    ParticipatingConfig,
    ProtocolConfig,
    active_fraction_check,
    boundary,
    clustered_regular,
    combined_expansion_graph,
    compute_participating,
    compute_participating_modified,
    conductance_graph,
    boundary_expansion_due_to,
    boundary_expansion_exact,
    boundary_expansion_fraction,
    boundary_expansion_mc,
    cycle,
    dumbbell,
    first_arrival_times,
    hypercube,
    path,
    pull_growth_check,
    random_regular,
    run_restricted,
    save_edge_list,
    two_cliques_shared_vertex,
    vertex_expansion_graph,
    write_removal_log_csv,
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


def _relabelled(g: Graph, perm: list[int]) -> Graph:
    """``g`` with node v renamed ``perm[v]``."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _two_cliques(n: int, side: tuple[int, ...], bridge: tuple[int, int]) -> Graph:
    """A clique on ``side``, a clique on the other nodes and one bridge."""
    rest = [v for v in range(n) if v not in side]
    edges = itertools.chain(
        itertools.combinations(side, 2), itertools.combinations(rest, 2), [bridge]
    )
    return Graph.from_edges(n, list(edges))


MINIMA_GRAPHS = {
    "hypercube-4": lambda: hypercube(4),
    "cycle-16": lambda: cycle(16),
    "clustered-16": lambda: clustered_regular(2, 4, 2, rng_seed=21),
    "random-3-regular-14": lambda: random_regular(14, 3, rng_seed=5),
    # past 16 nodes the subsets are enumerated in several chunks
    "random-4-regular-18": lambda: random_regular(18, 4, rng_seed=9),
    "cycle-20": lambda: cycle(20),
    # The halves {0, 2, 3, 7} and {1, 4, 5, 6} both have half the volume, so
    # they tie; the smaller member tuple holds the last node.
    "dumbbell-4-relabelled": lambda: _relabelled(dumbbell(4), [0, 7, 2, 3, 4, 5, 6, 1]),
    # odd n; the conductance minimizer {0, 3, 5, 8} has less than half the
    # volume and holds the last node
    "lopsided-cliques-9": lambda: _two_cliques(9, (0, 3, 5, 8), (5, 1)),
    "random-11": lambda: random_connected(random.Random(11), 11, extra=0.3),
    "path-2": lambda: path(2),
    # two digits of mask tables; every minimizer holds node 16
    "two-cliques-17": lambda: _two_cliques(17, (0, 1, 2, 3, 4, 5, 6, 16), (6, 7)),
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
    ("dumbbell-4-relabelled", "alpha"): "(0.25, Fraction(1, 4), (0, 2, 3, 7))",
    ("dumbbell-4-relabelled", "phi"): "(0.07692307692307693, Fraction(1, 13), (0, 2, 3, 7))",
    ("dumbbell-4-relabelled", "xi"): "(0.25, Fraction(1, 4), (0, 2, 3, 7))",
    ("lopsided-cliques-9", "alpha"): "(0.25, Fraction(1, 4), (0, 3, 5, 8))",
    ("lopsided-cliques-9", "phi"): "(0.07692307692307693, Fraction(1, 13), (0, 3, 5, 8))",
    ("lopsided-cliques-9", "xi"): "(0.25, Fraction(1, 4), (0, 3, 5, 8))",
    ("random-11", "alpha"): "(0.8, Fraction(4, 5), (0, 3, 4, 9, 10))",
    ("random-11", "phi"): "(0.391304347826087, Fraction(9, 23), (2, 3, 5, 7, 8, 9))",
    ("random-11", "xi"): "(0.4, Fraction(2, 5), (2, 3, 4, 8, 9))",
    ("path-2", "alpha"): "(1.0, Fraction(1, 1), (0,))",
    ("path-2", "phi"): "(1.0, Fraction(1, 1), (0,))",
    ("path-2", "xi"): "(1.0, Fraction(1, 1), (0,))",
    ("two-cliques-17", "alpha"): "(0.125, Fraction(1, 8), (0, 1, 2, 3, 4, 5, 6, 16))",
    ("two-cliques-17", "phi"): "(0.017543859649122806, Fraction(1, 57), (0, 1, 2, 3, 4, 5, 6, 16))",
    ("two-cliques-17", "xi"): "(0.125, Fraction(1, 8), (0, 1, 2, 3, 4, 5, 6, 16))",
}


@pytest.mark.parametrize("name,measure", sorted(MINIMA_REPRS))
def test_graph_minima(name, measure):
    """Value, exact rational and tie-broken witness of each enumerated
    minimum; hypercube and cycle have many tied minimizers."""
    rep = MINIMA_MEASURES[measure](MINIMA_GRAPHS[name]())
    assert repr((rep.value, rep.exact, rep.witness)) == MINIMA_REPRS[(name, measure)]


THINNING_CASES = {
    "cycle-12": (lambda: cycle(12), {0}),
    "dumbbell-8": (lambda: dumbbell(8), {8, 15}),
    "twocliques-10": (lambda: two_cliques_shared_vertex(10), {1}),
    "rr-64-8": (lambda: random_regular(64, 8, rng_seed=3), {40, 51}),
    "clustered-64-a": (lambda: clustered_regular(2, 4, 8, rng_seed=4), {25, 48}),
    "clustered-64-b": (lambda: clustered_regular(2, 4, 8, rng_seed=4), {49}),
}

# (case, eps_p, start, order) -> (sha256 of the removal-log CSV bytes,
# sha256 of repr(trajectory)). At 2/5 the random graphs lose active nodes
# and cascade over several batches; at 3/20 only passive nodes leave.
THINNING_DIGESTS = {
    ("cycle-12", "3/20", "full", "lowest"): (
        "8469b23fa12e48c7f2b4ad25ef5be18f957fde13fa4d86496ee41c9faa103aec",
        "b18bfc4339be7cb3238a3a55794ea321af88d63835ebd0757199fc4eedc3b87b",
    ),
    ("cycle-12", "3/20", "full", "batch"): (
        "f11db49bea979d79fc647d0e0e54772a21f85b61d9a17415792b346ad5d7f066",
        "14ec1760994f09b6438cc7f6af073854d3e92503be62e0786014f296cb57af72",
    ),
    ("cycle-12", "3/20", "full", "random"): (
        "45ee2792720f7fcb38a8b4092a967ac51674cca8e0585d95d9c0e2ab87cd449f",
        "b18bfc4339be7cb3238a3a55794ea321af88d63835ebd0757199fc4eedc3b87b",
    ),
    ("cycle-12", "3/20", "restricted", "lowest"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "8a2d938dde785017f8250f1b6bebfd530c01946f60bfa34ea4a7f5cc2f9182e3",
    ),
    ("cycle-12", "3/20", "restricted", "batch"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "8a2d938dde785017f8250f1b6bebfd530c01946f60bfa34ea4a7f5cc2f9182e3",
    ),
    ("cycle-12", "3/20", "restricted", "random"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "8a2d938dde785017f8250f1b6bebfd530c01946f60bfa34ea4a7f5cc2f9182e3",
    ),
    ("cycle-12", "2/5", "full", "lowest"): (
        "8469b23fa12e48c7f2b4ad25ef5be18f957fde13fa4d86496ee41c9faa103aec",
        "b18bfc4339be7cb3238a3a55794ea321af88d63835ebd0757199fc4eedc3b87b",
    ),
    ("cycle-12", "2/5", "full", "batch"): (
        "f11db49bea979d79fc647d0e0e54772a21f85b61d9a17415792b346ad5d7f066",
        "14ec1760994f09b6438cc7f6af073854d3e92503be62e0786014f296cb57af72",
    ),
    ("cycle-12", "2/5", "full", "random"): (
        "45ee2792720f7fcb38a8b4092a967ac51674cca8e0585d95d9c0e2ab87cd449f",
        "b18bfc4339be7cb3238a3a55794ea321af88d63835ebd0757199fc4eedc3b87b",
    ),
    ("cycle-12", "2/5", "restricted", "lowest"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "27d20ff2158635254ee2546e76e0f641e047e263435dddf6bf2f8d36dcf64555",
    ),
    ("cycle-12", "2/5", "restricted", "batch"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "27d20ff2158635254ee2546e76e0f641e047e263435dddf6bf2f8d36dcf64555",
    ),
    ("cycle-12", "2/5", "restricted", "random"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "27d20ff2158635254ee2546e76e0f641e047e263435dddf6bf2f8d36dcf64555",
    ),
    ("dumbbell-8", "3/20", "full", "lowest"): (
        "6fcede0d055605223297ac8c7b600abfec893c6e83a2baf2f75c7da5481bbb8e",
        "1ce0c92b329ea68d97d57f720284b7e7e1cd09645dc9543eb4c5e311d619e785",
    ),
    ("dumbbell-8", "3/20", "full", "batch"): (
        "d183e5e09e0294ca8ebe451898c9a3f78389ebd14b4a8abf7526c0010cfc2841",
        "ccad52bb54d117d53de6e5915408dc731751adf1afd99372f6f7043edd923c91",
    ),
    ("dumbbell-8", "3/20", "full", "random"): (
        "c24c8cc4d04b544e8c60154cc31a96b98546317a954af9dcdd487255a19a3b9a",
        "1ce0c92b329ea68d97d57f720284b7e7e1cd09645dc9543eb4c5e311d619e785",
    ),
    ("dumbbell-8", "3/20", "restricted", "lowest"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "11a1c89c91064eb84efa724dfcd0032a8e44a07fdf5b95d89f4dfccfc077157b",
    ),
    ("dumbbell-8", "3/20", "restricted", "batch"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "11a1c89c91064eb84efa724dfcd0032a8e44a07fdf5b95d89f4dfccfc077157b",
    ),
    ("dumbbell-8", "3/20", "restricted", "random"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "11a1c89c91064eb84efa724dfcd0032a8e44a07fdf5b95d89f4dfccfc077157b",
    ),
    ("dumbbell-8", "2/5", "full", "lowest"): (
        "1d1129a5cd033d557df13aa4dc20794d158792808b8ee087aebd7c47a56a86df",
        "0701fad53fdb96531c78f88cbd52d418d0ad442e2d867391fa1b394988e101b3",
    ),
    ("dumbbell-8", "2/5", "full", "batch"): (
        "f857e92c4062b783609a2e216a0b7b4d9752691be2c585a023dfdf739adef6b0",
        "e8754a94f83cf478d9e1c16db52619a358535ac4bde28bbe2743efb86dc4c624",
    ),
    ("dumbbell-8", "2/5", "full", "random"): (
        "25a612e58424396de55cde2e0ab7fcbdd7377245a4e6f9c18cd9afbc3e19f302",
        "0701fad53fdb96531c78f88cbd52d418d0ad442e2d867391fa1b394988e101b3",
    ),
    ("dumbbell-8", "2/5", "restricted", "lowest"): (
        "ca567254fc3f9423b377eb170467565f10f119b3a82484be3cf765fcd505fa7b",
        "799ac5f66c3e64684d0a96a6222c794411850c8a965912c8e90ea96100b993ce",
    ),
    ("dumbbell-8", "2/5", "restricted", "batch"): (
        "ca567254fc3f9423b377eb170467565f10f119b3a82484be3cf765fcd505fa7b",
        "799ac5f66c3e64684d0a96a6222c794411850c8a965912c8e90ea96100b993ce",
    ),
    ("dumbbell-8", "2/5", "restricted", "random"): (
        "ca567254fc3f9423b377eb170467565f10f119b3a82484be3cf765fcd505fa7b",
        "799ac5f66c3e64684d0a96a6222c794411850c8a965912c8e90ea96100b993ce",
    ),
    ("twocliques-10", "3/20", "full", "lowest"): (
        "7103d48dbe38243713ff03e4bc2b2054d9ca70ca38522017624d5ccbd5a6b32a",
        "8e2c8b4e39366325033d3ac7f02005c4edb364266f793b42417ee8083705df49",
    ),
    ("twocliques-10", "3/20", "full", "batch"): (
        "219b6943a884f49ea798589bb1c737d0efe7ec46eb4978a03bd2f4099d173d8c",
        "4b7dc1892ac337ad9394220f95e71e21ca0522116567aba151f8a6b1942327d8",
    ),
    ("twocliques-10", "3/20", "full", "random"): (
        "0a23b7c56350d9eeb883d20b4ba74903dbfa1bb2ec1e7b7e29357a710176dae1",
        "8e2c8b4e39366325033d3ac7f02005c4edb364266f793b42417ee8083705df49",
    ),
    ("twocliques-10", "3/20", "restricted", "lowest"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "bc7fceb5d97aa15e4c5ec6a0b6fa4396e6ef7279952de750d0a93a820d162752",
    ),
    ("twocliques-10", "3/20", "restricted", "batch"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "bc7fceb5d97aa15e4c5ec6a0b6fa4396e6ef7279952de750d0a93a820d162752",
    ),
    ("twocliques-10", "3/20", "restricted", "random"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "bc7fceb5d97aa15e4c5ec6a0b6fa4396e6ef7279952de750d0a93a820d162752",
    ),
    ("twocliques-10", "2/5", "full", "lowest"): (
        "7103d48dbe38243713ff03e4bc2b2054d9ca70ca38522017624d5ccbd5a6b32a",
        "8e2c8b4e39366325033d3ac7f02005c4edb364266f793b42417ee8083705df49",
    ),
    ("twocliques-10", "2/5", "full", "batch"): (
        "219b6943a884f49ea798589bb1c737d0efe7ec46eb4978a03bd2f4099d173d8c",
        "4b7dc1892ac337ad9394220f95e71e21ca0522116567aba151f8a6b1942327d8",
    ),
    ("twocliques-10", "2/5", "full", "random"): (
        "0a23b7c56350d9eeb883d20b4ba74903dbfa1bb2ec1e7b7e29357a710176dae1",
        "8e2c8b4e39366325033d3ac7f02005c4edb364266f793b42417ee8083705df49",
    ),
    ("twocliques-10", "2/5", "restricted", "lowest"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "bc7fceb5d97aa15e4c5ec6a0b6fa4396e6ef7279952de750d0a93a820d162752",
    ),
    ("twocliques-10", "2/5", "restricted", "batch"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "bc7fceb5d97aa15e4c5ec6a0b6fa4396e6ef7279952de750d0a93a820d162752",
    ),
    ("twocliques-10", "2/5", "restricted", "random"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "bc7fceb5d97aa15e4c5ec6a0b6fa4396e6ef7279952de750d0a93a820d162752",
    ),
    ("rr-64-8", "3/20", "full", "lowest"): (
        "0040414190b30091eb5758e078fc513a730bf7627fe26b4e952159df3162d702",
        "299ba97727d8d59ef3106324b42cd6c40c87258081b8a04c9a461a8daa293be9",
    ),
    ("rr-64-8", "3/20", "full", "batch"): (
        "a9dd05cd13698501b9a9c0a07fa461234cf7a43abfecb3aad2d6136e9040a955",
        "b4e9394c3e76c9f8d53375b00f4631f8b21436800f0a7bd2f444ae478faa6844",
    ),
    ("rr-64-8", "3/20", "full", "random"): (
        "7296050ad7fca36db4dd68fe6f9319efbf49c2519f01eab3712801be000fb7c3",
        "aab05004999d12aeb65f0078d0e16f1f3cdc7f8174886d4ec78624511429c5d5",
    ),
    ("rr-64-8", "3/20", "restricted", "lowest"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "d8b6525f3dd71f150d3224d812b10c2d5d8d31ba809b6527085fc1fe68e5761f",
    ),
    ("rr-64-8", "3/20", "restricted", "batch"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "d8b6525f3dd71f150d3224d812b10c2d5d8d31ba809b6527085fc1fe68e5761f",
    ),
    ("rr-64-8", "3/20", "restricted", "random"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "d8b6525f3dd71f150d3224d812b10c2d5d8d31ba809b6527085fc1fe68e5761f",
    ),
    ("rr-64-8", "2/5", "full", "lowest"): (
        "c8532488f890dc8c991eba069ef20450ba10d820ff75c8da50170f89c2b4ed71",
        "f5755056449337dcb2765b246cde9152128364020d27adf92f432af2d823b2fa",
    ),
    ("rr-64-8", "2/5", "full", "batch"): (
        "4047ca14870f06ab37baa3739947a187ea89ca45b62de2273063b2ec6a2dda2e",
        "6cfd315bd9b87362ddb923955632d94851a5f3003f71227d4b55e836bdce97bf",
    ),
    ("rr-64-8", "2/5", "full", "random"): (
        "7279e52f018c4c134fef3a9a628e10b6fcc773cc871b01657230683e0bddc845",
        "32edd11e43945b3a9b5791d0182f51f4d2e47f128e509d8472fa14c6aa6cefb5",
    ),
    ("rr-64-8", "2/5", "restricted", "lowest"): (
        "dbbf04ec19dd8e90ab67e21a69a7a2a6959b8181db498bc3aa02d440c6ac2f98",
        "d40b21d360fc5b3a7001e75e58e86a780cb3ef64b72013510ec956a0f3e63b5c",
    ),
    ("rr-64-8", "2/5", "restricted", "batch"): (
        "daa2e28076e4e2ae34f6586b45ae8e9e3e1a5b74d96a6bafa67e5c6c88d87943",
        "d53d5a2fa280df857ede2bbf5b48278027778cf3771ad6bb9dc9c8f5880218c2",
    ),
    ("rr-64-8", "2/5", "restricted", "random"): (
        "158faf8032b80e7d55a4f729564114b448850ec131acab5e7abaf67253c05237",
        "d40b21d360fc5b3a7001e75e58e86a780cb3ef64b72013510ec956a0f3e63b5c",
    ),
    ("clustered-64-a", "3/20", "full", "lowest"): (
        "3ef7da080defab5e9ccdf211bc5f5fa9f78a8e2cf3c8032cee67641938ff75c3",
        "6cc0039e27711fa077af2ffff8c52fac4f11dead77ef41b7eee246bea8e90524",
    ),
    ("clustered-64-a", "3/20", "full", "batch"): (
        "5bdc3cc2acaf14bbed2eeb9bf92c2e8d9b3b13ab7b67f4938079ef4ec694b2f5",
        "293bf517e7b6f6edee57c7189b628482e753698ceed420ef8ab01aa371d17a92",
    ),
    ("clustered-64-a", "3/20", "full", "random"): (
        "cc564989e979b75c700a7e1a6e8e4e35b7d29c68ab738791c9e20e8bf178264b",
        "b670a762120034076b747cde7d1db1b2548ffad5924f262f8760cefef5e7c0b3",
    ),
    ("clustered-64-a", "3/20", "restricted", "lowest"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "5650688b9e7f37dc5171719401331a66e0c0dcd20b1f9d605345064f4d57f43d",
    ),
    ("clustered-64-a", "3/20", "restricted", "batch"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "5650688b9e7f37dc5171719401331a66e0c0dcd20b1f9d605345064f4d57f43d",
    ),
    ("clustered-64-a", "3/20", "restricted", "random"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "5650688b9e7f37dc5171719401331a66e0c0dcd20b1f9d605345064f4d57f43d",
    ),
    ("clustered-64-a", "2/5", "full", "lowest"): (
        "e04304422543281c0613832c85d0077d84c348ceb716d135a5692aa8e36c60d1",
        "ae930253f84a7925d14ebd041ab7df41bded740648f0c0c94517f3a1a1edea70",
    ),
    ("clustered-64-a", "2/5", "full", "batch"): (
        "0cf5b936488d5761980af91616d0d5f08cc03c8016c418be0fbd5a5ae799bd43",
        "03aa2b5f91927e59e669e98393f7c5457f3096e7fe6ee692ed4c68ef2a14d4bd",
    ),
    ("clustered-64-a", "2/5", "full", "random"): (
        "30b515257e7ba51324326f9f397d9a18057345651728bd1f237047539616c5fa",
        "8a7abac4ada73c736cd95c62da29576f97e5b255ea8c8800f9a84eb06798049d",
    ),
    ("clustered-64-a", "2/5", "restricted", "lowest"): (
        "97439a817e2092122d0424c2397d5765626b76d99dd4796a979cbb3a436f019d",
        "e4124c8fe1fcff322e649c353b18c09652e82d7e254776d35128c41695832512",
    ),
    ("clustered-64-a", "2/5", "restricted", "batch"): (
        "900df3989d9cea08237f4c39a26774561ac7093e3b459617f3a645621fa13e0c",
        "f4b6a61e56a51a9e9f88f764dec274494a7c15cc5ace3d6af119656585f4f1c7",
    ),
    ("clustered-64-a", "2/5", "restricted", "random"): (
        "1e2abd0a5997136107b05406dde0e70e440e8c079803e62ac043f4da308f53a8",
        "ae0b66f9541d34f91e0e9e7ba2424311974647a965e9d34a2a525c1a57a7ac2f",
    ),
    ("clustered-64-b", "3/20", "full", "lowest"): (
        "3cd14e132ad8cb1286f0d272eeeed7c0983daeecc996a337fd7ec38f5c5897b4",
        "c9dde79f28e232da201f02a0fd1083b239b1379b1e320180daeaae693b80c3a4",
    ),
    ("clustered-64-b", "3/20", "full", "batch"): (
        "7140d9ced1d43e5525fc4f75f1d0f2eefe14f7af3ddb00063f736cc0c8af2662",
        "947153dd9fe856be645b5606e7d51a4914f2f08bc6075777351c58cb0c2e8fd4",
    ),
    ("clustered-64-b", "3/20", "full", "random"): (
        "c92cd779f798072f59357e487e359b39b813ed7654801014ae3f66bab9a6097a",
        "8b67cb8b1c87cbd198395d6b030ccdf705cf010f8277e3b228f138dc1c823e5f",
    ),
    ("clustered-64-b", "3/20", "restricted", "lowest"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "c2dce1cff98d2621c40ae804722df17d7fef9ea7ab4852c678badd9011952ba0",
    ),
    ("clustered-64-b", "3/20", "restricted", "batch"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "c2dce1cff98d2621c40ae804722df17d7fef9ea7ab4852c678badd9011952ba0",
    ),
    ("clustered-64-b", "3/20", "restricted", "random"): (
        "dbfcb078560288e88506997d39fd64698cab86ef55ffbe77a7a1ac11e3b62b69",
        "c2dce1cff98d2621c40ae804722df17d7fef9ea7ab4852c678badd9011952ba0",
    ),
    ("clustered-64-b", "2/5", "full", "lowest"): (
        "c06f4105801440c5208bba2123f378e747dfd156386615509093d9d7987d4d24",
        "0e35a497b44fd19362ea797b6b35cf6573e051a092dba4b90fbdfa4e5007fcff",
    ),
    ("clustered-64-b", "2/5", "full", "batch"): (
        "7f379c8c85341b7155aabdb8beb4a461f2cf6b8fdeedbc435c2060a875812859",
        "c0ce74bf6682edd3677a48073f257d76a8dbe3860313218bda97c9f5c5acb36f",
    ),
    ("clustered-64-b", "2/5", "full", "random"): (
        "6a8d4c00b3b304aab1f347e0a1c80b71b8ecdfa1b640fa2a04da77aff6de2381",
        "b03e383e7bd910f5b8099ee27739fea2378cbc07343dc0c500fc5e836eea3a99",
    ),
    ("clustered-64-b", "2/5", "restricted", "lowest"): (
        "d0c624bd0564782b79feda90da3ec9a2a8a9447b434eebfa42aceb59bb65b79d",
        "ba4bea8bc12c3715ae04e847b7d896004f146351723eb101c9521c741ab21e52",
    ),
    ("clustered-64-b", "2/5", "restricted", "batch"): (
        "570ac4368d95914925ab97f209acc46875fbf33f07e3c1ed60ebce9280e590f7",
        "78911b624a8aca556eb5f5521fa44676a137751b267282c092052becff47b6be",
    ),
    ("clustered-64-b", "2/5", "restricted", "random"): (
        "7a3c340042f62252458adaab7ff18db7cde1933157c4c3646b46582c8500e421",
        "7cef2caa242162a3b22067c6602d0ec7252ee4c7d5a0f5529889047e006abbd5",
    ),
}


def thinning_digests(tmp_path, name, eps_p, start, order) -> tuple[str, str]:
    make, s = THINNING_CASES[name]
    cfg = ParticipatingConfig(eps_p=Fraction(eps_p))
    build = compute_participating if start == "full" else compute_participating_modified
    kwargs = {"rng": random.Random(5)} if order == "random" else {}
    result = build(make(), s, cfg, order=order, **kwargs)
    log = tmp_path / "removals.csv"
    write_removal_log_csv(result, str(log))
    return _sha(log.read_bytes()), _sha(repr(result.trajectory).encode())


@pytest.mark.parametrize("name,eps_p,start,order", sorted(THINNING_DIGESTS))
def test_thinning_log_and_trajectory(tmp_path, name, eps_p, start, order):
    got = thinning_digests(tmp_path, name, eps_p, start, order)
    assert got == THINNING_DIGESTS[(name, eps_p, start, order)]


# (eps_p, eps_h) audit configs. At the default eps_h = 1/2, 3/20 is in the
# guarantee regime and 2/5 is not (skipped by config); the random graphs'
# boundary expansion exceeds 1/2 (skipped by h), so 1/20 with eps_h = 4/5
# and 2/21 with eps_h = 7/10 put them in scope as well; at 2/21 the
# restricted start leaves second-shell holes, so the start potential is
# positive.
AUDIT_CONFIGS = {
    "3/20": ("3/20", "1/2"),
    "2/5": ("2/5", "1/2"),
    "1/20": ("1/20", "4/5"),
    "2/21": ("2/21", "7/10"),
}

# (case, eps_p) -> repr(active_fraction_check(...))
AUDIT_REPRS = {
    ('clustered-64-a', '3/20'): (
        "ActiveFractionReport(skipped=True, reason='boundary expansion 0.608383 exceeds eps_h=0.5', h_value=0.6083829365079365, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('clustered-64-a', '2/5'): (
        "ActiveFractionReport(skipped=True, reason='config outside guarantee regime: eps_p=2/5 >= (1-eps_h)/3=1/6', h_value=None, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('clustered-64-a', '1/20'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.6083829365079365, boundary_size=12, surviving_boundary=12, fraction_floor=0.06432748538011696, fraction_ok=True, phi_start=0.0, phi_start_ceiling=10.105263157894736, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('clustered-64-a', '2/21'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.6083829365079365, boundary_size=12, surviving_boundary=12, fraction_floor=0.04427244582043344, fraction_ok=True, phi_start=2.1607142857142856, phi_start_ceiling=9.284210526315789, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('clustered-64-b', '3/20'): (
        "ActiveFractionReport(skipped=True, reason='boundary expansion 0.803307 exceeds eps_h=0.5', h_value=0.8033068783068783, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('clustered-64-b', '2/5'): (
        "ActiveFractionReport(skipped=True, reason='config outside guarantee regime: eps_p=2/5 >= (1-eps_h)/3=1/6', h_value=None, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('clustered-64-b', '1/20'): (
        "ActiveFractionReport(skipped=True, reason='boundary expansion 0.803307 exceeds eps_h=0.8', h_value=0.8033068783068783, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('clustered-64-b', '2/21'): (
        "ActiveFractionReport(skipped=True, reason='boundary expansion 0.803307 exceeds eps_h=0.7', h_value=0.8033068783068783, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('cycle-12', '3/20'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.5, boundary_size=2, surviving_boundary=2, fraction_floor=0.15966386554621848, fraction_ok=True, phi_start=0.0, phi_start_ceiling=1.1764705882352942, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('cycle-12', '2/5'): (
        "ActiveFractionReport(skipped=True, reason='config outside guarantee regime: eps_p=2/5 >= (1-eps_h)/3=1/6', h_value=None, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('cycle-12', '1/20'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.5, boundary_size=2, surviving_boundary=2, fraction_floor=0.06432748538011696, fraction_ok=True, phi_start=0.0, phi_start_ceiling=1.6842105263157894, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('cycle-12', '2/21'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.5, boundary_size=2, surviving_boundary=2, fraction_floor=0.04427244582043344, fraction_ok=True, phi_start=0.0, phi_start_ceiling=1.5473684210526315, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('dumbbell-8', '3/20'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.125, boundary_size=7, surviving_boundary=7, fraction_floor=0.15966386554621848, fraction_ok=True, phi_start=0.875, phi_start_ceiling=4.117647058823529, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('dumbbell-8', '2/5'): (
        "ActiveFractionReport(skipped=True, reason='config outside guarantee regime: eps_p=2/5 >= (1-eps_h)/3=1/6', h_value=None, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('dumbbell-8', '1/20'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.125, boundary_size=7, surviving_boundary=7, fraction_floor=0.06432748538011696, fraction_ok=True, phi_start=0.0, phi_start_ceiling=5.894736842105263, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('dumbbell-8', '2/21'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.125, boundary_size=7, surviving_boundary=7, fraction_floor=0.04427244582043344, fraction_ok=True, phi_start=0.875, phi_start_ceiling=5.41578947368421, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('rr-64-8', '3/20'): (
        "ActiveFractionReport(skipped=True, reason='boundary expansion 0.676501 exceeds eps_h=0.5', h_value=0.67650146484375, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('rr-64-8', '2/5'): (
        "ActiveFractionReport(skipped=True, reason='config outside guarantee regime: eps_p=2/5 >= (1-eps_h)/3=1/6', h_value=None, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('rr-64-8', '1/20'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.67650146484375, boundary_size=15, surviving_boundary=15, fraction_floor=0.06432748538011696, fraction_ok=True, phi_start=0.0, phi_start_ceiling=12.631578947368421, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('rr-64-8', '2/21'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.67650146484375, boundary_size=15, surviving_boundary=15, fraction_floor=0.04427244582043344, fraction_ok=True, phi_start=1.625, phi_start_ceiling=11.605263157894736, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('twocliques-10', '3/20'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.05555555555555555, boundary_size=9, surviving_boundary=9, fraction_floor=0.15966386554621848, fraction_ok=True, phi_start=0.5, phi_start_ceiling=5.294117647058823, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('twocliques-10', '2/5'): (
        "ActiveFractionReport(skipped=True, reason='config outside guarantee regime: eps_p=2/5 >= (1-eps_h)/3=1/6', h_value=None, boundary_size=None, surviving_boundary=None, fraction_floor=None, fraction_ok=None, phi_start=None, phi_start_ceiling=None, phi_start_ok=None, monotone_ok=None, active_drop_ok=None)"
    ),
    ('twocliques-10', '1/20'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.05555555555555555, boundary_size=9, surviving_boundary=9, fraction_floor=0.06432748538011696, fraction_ok=True, phi_start=0.5, phi_start_ceiling=7.578947368421052, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
    ('twocliques-10', '2/21'): (
        'ActiveFractionReport(skipped=False, reason=None, h_value=0.05555555555555555, boundary_size=9, surviving_boundary=9, fraction_floor=0.04427244582043344, fraction_ok=True, phi_start=0.5, phi_start_ceiling=6.963157894736842, phi_start_ok=True, monotone_ok=True, active_drop_ok=True)'
    ),
}

# (case, eps_p, start) -> sha256 of the stdout of ``participating --check``
AUDIT_CLI_DIGESTS = {
    ('clustered-64-a', '3/20', 'full'): "60156fb7482be310e19eb2ef5880d591b6bf916ca8a3c93c7367abdd6d006430",
    ('clustered-64-a', '3/20', 'restricted'): "a234f409098469943a15d8141cacf468fe0ed7b0761e5e206d0d5621a91de0f6",
    ('clustered-64-a', '2/5', 'full'): "47d44c5c7d2b111a9e731e337ab5dc4f8c3f7a3781f1f76a459c6fb9ed369b89",
    ('clustered-64-a', '2/5', 'restricted'): "970d3f29cd35f430d5ab10c47ec2c92aaf2c6353c3150f92f920949b95bc9940",
    ('clustered-64-a', '1/20', 'full'): "74783fb2271956cd0c1c39fc3723c1691cd62afc6883fe2955292697dbf1eabf",
    ('clustered-64-a', '1/20', 'restricted'): "9cdc57bc503a82ed99e184f27537b25df4a99db087991cf13286d6f16a8de1a5",
    ('clustered-64-a', '2/21', 'full'): "8616e6be581782658d97726c5ad76107a5fd498ac8bda6ef2c5c2334930b75a3",
    ('clustered-64-a', '2/21', 'restricted'): "570b0bcadd6aae6e756a3d266ec050870b02c0bc4316886a1eb29e4863629cdc",
    ('clustered-64-b', '3/20', 'full'): "3071585f9369d2ff68fd24bd95aeec249290e3e2ecb16aef2868dee22b0b4a7a",
    ('clustered-64-b', '3/20', 'restricted'): "2bcfd5b9d748e83b8d27dad702ec9dcd405f1ec498fd67831f7c3b9be82d95d8",
    ('clustered-64-b', '2/5', 'full'): "a16053548ade44c077d3144b8fd52f151df7635a3167e369d1763f7ff48fdcb6",
    ('clustered-64-b', '2/5', 'restricted'): "0f2c474d6f8bd2cbed9bb2b2736ee089124a677464e6c10d1a4d1475e20bf653",
    ('clustered-64-b', '1/20', 'full'): "7df69fe22ed54f503b8cfdbefb441fc476ed69e68b10a9c13f98014bee901672",
    ('clustered-64-b', '1/20', 'restricted'): "c487a5d9abcf04f7e2847797d30579e34e7c4f5b4dcb847413ca6eea36d11b96",
    ('clustered-64-b', '2/21', 'full'): "908ed1d5c4aa527fd199bee4216298bce7726dd43775bf48bb1361873437ccc4",
    ('clustered-64-b', '2/21', 'restricted'): "9065e58c2881c6f9fcb0a2f74d13ba343eb403785a49dd57e02a8ed9e0528bc1",
    ('cycle-12', '3/20', 'full'): "132ca92663a36772c69557f31eb2e2fb374f15f3c03bc4ae55a3e4d71ed7f497",
    ('cycle-12', '3/20', 'restricted'): "177c0dd70da1ed2afb07182db7604b73b75915bf7d65f3497082a7a7ac38db4b",
    ('cycle-12', '2/5', 'full'): "a0a032009aa3fdcba9c339458733a636b6f9febed17a3b5b2a5a49dbf571c0fb",
    ('cycle-12', '2/5', 'restricted'): "2df85c04417791575b3bf354a2f033cd955482b8070f0fa97866e28c227aeff9",
    ('cycle-12', '1/20', 'full'): "35515bcb3e52e57724f9a21702fbf460043f5ea9f1479eb2333b72e9d60880b3",
    ('cycle-12', '1/20', 'restricted'): "da9b6f5e2da6c6a3fd102da91cbf30a64c3d1a3c94c0641e3fa759a390935c39",
    ('cycle-12', '2/21', 'full'): "b54aed5b053268e9265dcacb8ce668f10cf0e5d8bef42fcefa741cc1b719b9c8",
    ('cycle-12', '2/21', 'restricted'): "648020d5aa78e9e567c6c0cb06fbdf80faa7117e0f4339e41b480ed5d7260153",
    ('dumbbell-8', '3/20', 'full'): "cc3f79721d7c38357280b5ece837344a319ddd3c96cb47e0f4989d76db6af0ec",
    ('dumbbell-8', '3/20', 'restricted'): "74ec7bbed196648cd0e00c331eff4daf2c2834fdf0bb401e0892830614bdd6a9",
    ('dumbbell-8', '2/5', 'full'): "e9350658ab48dce0bac136d59ead916d8df2ff32494bf077074b7951b5a076ce",
    ('dumbbell-8', '2/5', 'restricted'): "6a0482db4e4cb83e0ee43d7065e1c3035a6d63bc2a982809846de3bace88b169",
    ('dumbbell-8', '1/20', 'full'): "2eb9a8fb8c2bc5f429cf8665b21d0939d390259ddd46ca01f0b183680a25578d",
    ('dumbbell-8', '1/20', 'restricted'): "4eecd1757694db74dfea198517f7fbfcaa5652834f50395fceccbb0a3914bce3",
    ('dumbbell-8', '2/21', 'full'): "33b0c7111059c06a9c7237d6a694d422d9fb166de97bbd8c652a437bad48d197",
    ('dumbbell-8', '2/21', 'restricted'): "388ddbd91eebef1ba455a6c6a7732095922d9b388fec340fe36fdd6dc8767cee",
    ('rr-64-8', '3/20', 'full'): "0dbfc7248c9b761f1cdd025eaa77e1b2fb5562c26129e78ce6e63e748e6e481a",
    ('rr-64-8', '3/20', 'restricted'): "c489c94ee45b2aec7c5fea80b2219a76c02808d7464ae3eeaccc038fdb2f1b0f",
    ('rr-64-8', '2/5', 'full'): "48342e631ab7653321730418f7932107958bb0fa75a1eb1329aaa324131fc68e",
    ('rr-64-8', '2/5', 'restricted'): "0777d2a688075fe0a87b7077e43420c114beeafd7a1584f23fd17d5582d45d66",
    ('rr-64-8', '1/20', 'full'): "bde2d35c6b04c8d2a5af120fc18585bef4cf9ef9319c90a9402dbb61ff654cb9",
    ('rr-64-8', '1/20', 'restricted'): "a10698cba690bb970d656b130822b59451224e9599dfa88b6a73c689acfbc80e",
    ('rr-64-8', '2/21', 'full'): "daf9d60a97f241a1c29c980d29463454841774cebec501d96e5f8948a61d8502",
    ('rr-64-8', '2/21', 'restricted'): "665f495b82c943ee4edb50ce8d8c35633ab339eef651517c88c059ca5d24b58e",
    ('twocliques-10', '3/20', 'full'): "937694b59d900054a09e33bf0113c62c2ad63f7aa56da52a58821bccd3fe2768",
    ('twocliques-10', '3/20', 'restricted'): "8ed0cd1e7a24c2ab981138cbb86fcdc323fd274e23f446b7b2345af41d79b202",
    ('twocliques-10', '2/5', 'full'): "d72de0b4055efca50dc65458141aed92288ff8bf126e181699eda080929c5267",
    ('twocliques-10', '2/5', 'restricted'): "22831f7256a1cf31ad51b0aa9b35a099d7cc609a391196cdbb798fd1e74465c9",
    ('twocliques-10', '1/20', 'full'): "f61cd5e9ceec8e64702a6c3dab79d6300e1d32462b055cadfd77c567363374a9",
    ('twocliques-10', '1/20', 'restricted'): "ecc1d8d1b82230a7f9a5514eff9aa45f13011439443ef3b5c31d7b70c8873800",
    ('twocliques-10', '2/21', 'full'): "8aa110ba401b9516c9bb35564e761d6274abbc287670c3915d976fd90f05bf03",
    ('twocliques-10', '2/21', 'restricted'): "6a27c450273b926d12a3ea4597b8e310d7c0e27775cdc579e28b9f43e50a8b41",
}


def audit_repr(name: str, eps_p: str) -> str:
    make, s = THINNING_CASES[name]
    eps_p, eps_h = AUDIT_CONFIGS[eps_p]
    cfg = ParticipatingConfig(eps_p=Fraction(eps_p), eps_h=Fraction(eps_h))
    return repr(active_fraction_check(make(), s, cfg))


def audit_cli_digest(tmp_path, monkeypatch, capsys, name, eps_p, start) -> str:
    make, s = THINNING_CASES[name]
    eps_p, eps_h = AUDIT_CONFIGS[eps_p]
    monkeypatch.chdir(tmp_path)
    save_edge_list(make(), "graph.txt")
    argv = [
        "participating", "--graph", "graph.txt", "--set", ",".join(map(str, sorted(s))),
        "--eps-p", eps_p, "--eps-h", eps_h, "--check",
    ]
    if start == "restricted":
        argv.append("--restricted-start")
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    return _sha(capsys.readouterr().out.encode())


@pytest.mark.parametrize("name,eps_p", sorted(AUDIT_REPRS))
def test_active_fraction_check_report(name, eps_p):
    assert audit_repr(name, eps_p) == AUDIT_REPRS[(name, eps_p)]


@pytest.mark.parametrize("name,eps_p,start", sorted(AUDIT_CLI_DIGESTS))
def test_participating_check_stdout(tmp_path, monkeypatch, capsys, name, eps_p, start):
    got = audit_cli_digest(tmp_path, monkeypatch, capsys, name, eps_p, start)
    assert got == AUDIT_CLI_DIGESTS[(name, eps_p, start)]
