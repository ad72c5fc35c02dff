"""Expansion measures: set-level values, exhaustive graph-level minima,
sampling, and the regular-graph relations."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import connected_graphs, graph_and_proper_subset
from helpers import child_peak_mb, random_connected
from rumorspread import expansion
from rumorspread import (
    CapabilityError,
    Graph,
    InputError,
    augmented_combined_expansion_set,
    boundary,
    boundary_expansion_due_to,
    boundary_expansion_exact,
    boundary_expansion_mc,
    closure,
    combined_expansion_graph,
    combined_expansion_set,
    complete,
    conductance_graph,
    conductance_set,
    cycle,
    degree_class_decomposition,
    dumbbell,
    erdos_renyi,
    hypercube,
    is_dominating,
    path,
    pull_growth_check,
    random_regular,
    regular_h_sandwich,
    regular_s_factor,
    sandwich_alpha_phi,
    star,
    vertex_expansion_graph,
    vertex_expansion_set,
)


class TestSetLevel:
    def test_vertex_expansion_values(self):
        assert vertex_expansion_set(cycle(6), {0}) == pytest.approx(2.0)
        assert vertex_expansion_set(cycle(6), {0, 1, 2}) == pytest.approx(2 / 3)
        assert vertex_expansion_set(path(4), {0, 1}) == pytest.approx(0.5)

    def test_conductance_values(self):
        assert conductance_set(complete(4), {0, 1}) == pytest.approx(2 / 3)
        assert conductance_set(cycle(6), {0, 1, 2}) == pytest.approx(1 / 3)
        # whole node set is allowed here and has an empty cut
        assert conductance_set(cycle(6), range(6)) == 0.0

    def test_validation(self):
        with pytest.raises(InputError):
            vertex_expansion_set(cycle(6), set())
        with pytest.raises(InputError):
            vertex_expansion_set(cycle(6), range(6))


class TestBoundaryExpansion:
    def test_hand_values(self):
        assert boundary_expansion_exact(path(4), {0}) == pytest.approx(0.5)
        assert boundary_expansion_exact(cycle(6), {0}) == pytest.approx(0.5)

    def test_dominating_gives_zero(self):
        assert boundary_expansion_exact(complete(4), {0, 1}) == 0.0
        assert boundary_expansion_exact(star(6), {0}) == 0.0

    def test_zero_iff_closure_covers(self):
        g = dumbbell(3)
        for k in range(1, g.n):
            for s in _subsets(g.n, k):
                h = boundary_expansion_exact(g, s)
                if is_dominating(g, s):
                    assert h == 0.0
                else:
                    assert 0.0 < h < 1.0

    @given(graph_and_proper_subset())
    def test_matches_oracle(self, gs):
        g, s = gs
        assert boundary_expansion_exact(g, s) == pytest.approx(
            float(oracles.naive_h(g.adj, s)), abs=1e-12
        )

    def test_restricted_contribution(self):
        g = cycle(6)
        assert boundary_expansion_due_to(g, {0}, {1}) == pytest.approx(0.25)
        assert boundary_expansion_due_to(g, {0}, set()) == 0.0
        assert boundary_expansion_due_to(g, {0}, {1, 5}) == pytest.approx(0.5)
        with pytest.raises(InputError):
            boundary_expansion_due_to(g, {0}, {2})

    @given(graph_and_proper_subset())
    def test_contribution_monotone_and_bounded(self, gs):
        g, s = gs
        bd = sorted(boundary(g, s))
        prefix = set()
        last = 0.0
        for u in bd:
            prefix.add(u)
            value = boundary_expansion_due_to(g, s, prefix)
            assert value >= last - 1e-12
            last = value
        assert last == pytest.approx(boundary_expansion_exact(g, s), abs=1e-12)

    def test_monte_carlo_close_and_deterministic(self):
        g = erdos_renyi(60, 0.1, rng_seed=3)
        s = frozenset(range(6))
        exact = boundary_expansion_exact(g, s)
        rep = boundary_expansion_mc(g, s, samples=20000, rng_seed=5)
        assert rep.samples == 20000
        assert rep.stderr > 0
        assert abs(rep.value - exact) <= 4 * rep.stderr
        again = boundary_expansion_mc(g, s, samples=20000, rng_seed=5)
        assert again.value == rep.value and again.stderr == rep.stderr

    def test_monte_carlo_dominating_set(self):
        rep = boundary_expansion_mc(star(6), {0}, samples=100, rng_seed=0)
        assert rep.value == 0.0 and rep.stderr == 0.0

    @pytest.mark.parametrize("budget", [1, 2**40])
    def test_block_budget_changes_nothing(self, monkeypatch, budget):
        # by default the estimator runs these 3000 samples in two blocks
        # (the second shell is the wider array) and the growth check its
        # 3000 trials in three; a budget of 1 gives one-row blocks, and 2**40
        # one block
        g = random_regular(1024, 8, rng_seed=4)
        s = frozenset(random.Random(4).sample(range(g.n), 16))
        shells = expansion._BoundaryHits(g, *expansion._closure(g, s))
        assert shells.boundary.size < shells.shell.size
        assert expansion._block_rows(shells.shell.size) < 3000
        whole = boundary_expansion_mc(g, s, samples=3000, rng_seed=7)
        growth = pull_growth_check(g, s, trials=3000, rng_seed=7)
        monkeypatch.setattr(expansion, "_BLOCK_ELEMENTS", budget)
        assert repr(boundary_expansion_mc(g, s, samples=3000, rng_seed=7)) == repr(whole)
        assert repr(pull_growth_check(g, s, trials=3000, rng_seed=7)) == repr(growth)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 40),
        st.sampled_from([0.02, 0.1, 0.4]),
        st.booleans(),
    )
    def test_hits_match_oracle(self, seed, n, extra, covering):
        # random sample rows over the boundary; a set whose closure covers
        # the graph has an empty second shell and no hits
        rand = random.Random(seed)
        g = random_connected(rand, n, extra)
        if covering:
            s = frozenset(range(g.n)) - {rand.randrange(g.n)}
        else:
            s = frozenset(rand.sample(range(g.n), rand.randint(1, g.n - 1)))
        hits = expansion._BoundaryHits(g, *expansion._closure(g, s))
        bd = oracles.naive_boundary(g.adj, s)
        bd2 = oracles.naive_boundary(g.adj, oracles.naive_closure(g.adj, s))
        assert hits.boundary.tolist() == sorted(bd)
        assert hits.shell.tolist() == sorted(bd2)
        assert hits.degrees.tolist() == [len(g.adj[u]) for u in sorted(bd)]
        assert not (covering and bd2)
        assert hits.exact() == oracles.naive_h(g.adj, s)
        self.assert_counts_match_oracle(g, s, hits, seed, rand.random())

    @staticmethod
    def assert_counts_match_oracle(g, s, hits, seed, p):
        assert "contact" not in vars(hits)  # built on the first count() only
        sampled = np.random.default_rng(seed).random((9, hits.boundary.size)) < p
        want = [
            oracles.naive_shell_hits(g.adj, s, set(hits.boundary[row].tolist()))
            for row in sampled
        ]
        assert hits.count(sampled).tolist() == want

    @pytest.mark.parametrize(
        "g, s, kinds",
        [
            (cycle(12), frozenset({0}), {"single"}),
            (hypercube(8), frozenset(random.Random(1).sample(range(256), 16)), {"multi"}),
            (
                random_regular(1024, 8, rng_seed=0),
                frozenset(random.Random(0).sample(range(1024), 16)),
                {"single", "multi"},
            ),
        ],
        ids=["cycle-single", "hypercube-multi", "regular-mixed"],
    )
    def test_hit_counts_match_oracle_by_shell_kind(self, g, s, kinds):
        # a second-shell node with one boundary neighbour is counted through
        # the weight column, one with several through its own column
        for seed, p in enumerate((0.1, 0.5, 0.9)):
            hits = expansion._BoundaryHits(g, *expansion._closure(g, s))
            self.assert_counts_match_oracle(g, s, hits, seed, p)
        contacts = np.bincount(np.searchsorted(hits.shell, hits.outer))
        assert {"single" if c == 1 else "multi" for c in contacts.tolist()} == kinds
        assert hits.contact.shape == (hits.boundary.size, np.count_nonzero(contacts > 1) + 1)
        assert hits.contact[:, -1].sum() == np.count_nonzero(contacts == 1)

    def test_monte_carlo_peak_memory(self):
        # the sampled arrays are bounded by the block budget, the second
        # shell's hits included (about 45 MB; 105 MB before, with blocks of
        # 2**22 boundary columns)
        assert child_peak_mb(
            "import random; g = rs.random_regular(1024, 8, rng_seed=0); "
            "s = random.Random(0).sample(range(g.n), 16); "
            "rs.boundary_expansion_mc(g, s, 20000, 1)"
        ) < 64


def _subsets(n, k):
    from itertools import combinations

    for comb in combinations(range(n), k):
        yield frozenset(comb)


class TestGraphLevel:
    def test_frozen_minima(self):
        rep = vertex_expansion_graph(cycle(6))
        assert rep.exact == Fraction(2, 3) and rep.witness == (0, 1, 2)
        rep = conductance_graph(cycle(6))
        assert rep.exact == Fraction(1, 3) and rep.witness == (0, 1, 2)
        assert vertex_expansion_graph(complete(4)).exact == 1
        assert conductance_graph(complete(4)).exact == Fraction(2, 3)
        assert conductance_graph(dumbbell(4)).exact == Fraction(1, 13)
        assert conductance_graph(dumbbell(4)).witness == (0, 1, 2, 3)
        # the ball around a vertex beats any face: {0,1,2,4} has boundary
        # {3,5,6}, giving 3/4
        rep = vertex_expansion_graph(hypercube(3))
        assert rep.exact == Fraction(3, 4) and rep.witness == (0, 1, 2, 4)
        assert vertex_expansion_graph(path(4)).exact == Fraction(1, 2)
        assert conductance_graph(path(4)).exact == Fraction(1, 3)
        assert conductance_graph(star(4)).exact == 1

    def test_combined_minimum_cycle(self):
        rep = combined_expansion_graph(cycle(6))
        # the arc {0,1,2} minimizes: expansion 2/3, and its boundary {3,5}
        # has all four incident edges leaving, so the second factor is 1
        assert rep.exact == Fraction(2, 3)
        assert rep.witness == (0, 1, 2)

    def test_odd_cycle_vertex_expansion_exceeds_one(self):
        assert vertex_expansion_graph(complete(3)).exact == 2

    @given(connected_graphs(max_nodes=7))
    @settings(max_examples=40)
    def test_matches_oracle(self, g):
        val, wit = oracles.naive_vertex_expansion(g.adj, g.n)
        rep = vertex_expansion_graph(g)
        assert rep.exact == val and rep.witness == wit
        val, wit = oracles.naive_conductance(g.adj, g.n)
        rep = conductance_graph(g)
        assert rep.exact == val and rep.witness == wit
        val, wit = oracles.naive_combined_expansion(g.adj, g.n)
        rep = combined_expansion_graph(g)
        assert rep.exact == val and rep.witness == wit

    @given(connected_graphs(max_nodes=10))
    @settings(max_examples=30)
    def test_one_pass_matches_oracles(self, g):
        # every ordered selection, repeats included, of one to three measures
        want = {
            "vertex-expansion": oracles.naive_vertex_expansion(g.adj, g.n),
            "conductance": oracles.naive_conductance(g.adj, g.n),
            "combined-expansion": oracles.naive_combined_expansion(g.adj, g.n),
        }
        for k in (1, 2, 3):
            for selection in itertools.product(want, repeat=k):
                reports = expansion._enumerated(g, selection, None)
                assert set(reports) == set(selection)
                for measure, rep in reports.items():
                    assert rep.measure == measure
                    assert (rep.exact, rep.witness) == want[measure]

    @pytest.mark.parametrize("n", [17, 18, 20])
    def test_one_pass_equals_one_measure_passes(self, n):
        # 2, 4 and 16 chunks of 2^16 masks, over two table digits
        g = random_connected(random.Random(n), n, extra=0.2)
        measures = ("vertex-expansion", "conductance", "combined-expansion")
        together = expansion._enumerated(g, measures, None)
        for measure in measures:
            assert together[measure] == expansion._enumerated(g, [measure], None)[measure]

    @pytest.mark.parametrize("n", [5, 12, 16, 17])
    def test_each_measure_walks_only_its_domain(self, monkeypatch, n):
        # alpha and xi see exactly the sets of 1..n/2 nodes; phi, as
        # cut(S) = cut(V - S), sees no set holding node n - 1
        g = random_connected(random.Random(n), n, extra=0.3)
        folded: list[np.ndarray] = []
        fold = expansion._RunningMinimum.fold

        def spy(self, masks, num, den):
            # under NEP 50 a uint8 popcount times a Python int stays uint8
            # and wraps, so every value must reach the fold as int64
            assert num.dtype == den.dtype == np.int64
            folded.append(masks.copy())
            fold(self, masks, num, den)

        monkeypatch.setattr(expansion._RunningMinimum, "fold", spy)
        walked = {}
        for measure in ("vertex-expansion", "conductance", "combined-expansion"):
            folded.clear()
            expansion._exact_minima(g, [measure])
            walked[measure] = np.concatenate(folded)
        sets = sum(math.comb(n, k) for k in range(1, n // 2 + 1))
        for measure in ("vertex-expansion", "combined-expansion"):
            masks = walked[measure]
            assert masks.size == sets == np.unique(masks).size
            sizes = [bin(mask).count("1") for mask in masks.tolist()]
            assert min(sizes) >= 1 and max(sizes) <= n // 2
        phi = walked["conductance"]
        assert 0 < phi.size <= 2 ** (n - 1) - 1
        assert not (phi >> (n - 1) & 1).any()

    def test_capability_cap(self):
        g = cycle(10)
        with pytest.raises(CapabilityError):
            vertex_expansion_graph(g, max_nodes=9)
        assert vertex_expansion_graph(g, max_nodes=10).exact == Fraction(2, 5)
        # int64 subset masks hold at most 62 nodes, whatever the cap says
        for measure in (vertex_expansion_graph, conductance_graph, combined_expansion_graph):
            with pytest.raises(CapabilityError, match="capped at 62 nodes"):
                measure(cycle(63), max_nodes=10**6)

    def test_tie_break_on_member_tuples(self):
        def lex_smallest(*sets):
            masks = np.array([sum(1 << v for v in s) for s in sets], dtype=np.int64)
            return expansion._lex_smallest(masks)

        # integer order would pick {1} = 0b10 over {0, 2} = 0b101
        assert lex_smallest({1}, {0, 2}) == 0b101
        # a prefix of another tuple comes first
        assert lex_smallest({0, 1, 2}, {0, 1}) == 0b11
        assert lex_smallest({0, 1}, {0, 1, 2}) == 0b11
        assert lex_smallest({3, 5}, {2, 9}, {2, 4, 61}, {2, 4, 7}) == (1 << 2) | (1 << 4) | (1 << 7)
        assert lex_smallest({5}) == 1 << 5
        rand = random.Random(3)
        for _ in range(200):
            sets = {
                tuple(sorted(rand.sample(range(20), rand.randint(1, 6))))
                for _ in range(rand.randint(1, 12))
            }
            got = lex_smallest(*sets)
            assert got == sum(1 << v for v in min(sets))

    def test_mask_tables_across_digits(self):
        # 62 nodes span four table digits, so cross-digit edges are counted
        rand = random.Random(8)
        g = random_connected(rand, 62, extra=0.08)
        tables = expansion._MaskTables(g)
        low = (1 << 16) - 1
        sets = [frozenset(rand.sample(range(62), rand.randint(0, 62))) for _ in range(300)]
        masks = np.array([sum(1 << v for v in s) for s in sets], dtype=np.int64)
        vol, cut = tables.stats(masks)
        for i, s in enumerate(sets):
            mask = int(masks[i])
            want = (oracles.naive_volume(g.adj, s), oracles.naive_cut(g.adj, s))
            assert (vol[i], cut[i]) == want
            part_vol, part_cut, part_nbr = tables.part(mask)
            assert (part_vol, part_cut) == want
            assert part_nbr == sum(1 << v for v in {v for u in s for v in g.adj[u]})
            # a chunk of the walk: the low digit's tables read in place plus
            # the nodes above it
            lo = mask & low
            chunk_masks, chunk_vol, chunk_cut = tables.chunk(mask & ~low, lo, lo + 1)
            assert (chunk_masks[0], chunk_vol[0], chunk_cut[0]) == (mask, *want)
            for d in tables.digits:
                members = {u for u in s if d.shift <= u <= d.shift + 15}
                bd = oracles.naive_boundary(g.adj, members)
                assert d.boundary[mask >> d.shift & d.bits] == sum(1 << v for v in bd)

    def test_report_serialization(self):
        rep = vertex_expansion_graph(cycle(6))
        d = rep.to_json_dict()
        assert set(d) == {"measure", "value", "witness", "method", "samples", "stderr"}
        assert d["value"] == pytest.approx(2 / 3)

    @given(connected_graphs(max_nodes=8))
    @settings(max_examples=40)
    def test_alpha_phi_sandwich(self, g):
        assert sandwich_alpha_phi(g)

    @given(connected_graphs(min_nodes=4, max_nodes=8))
    @settings(max_examples=40)
    def test_alpha_upper_bound_even_n(self, g):
        # a half-split witness exists only when n is even; odd n can push the
        # minimum above 1 (the triangle reaches 2)
        if g.n % 2 == 0:
            assert vertex_expansion_graph(g).exact <= 1


class TestCombinedMeasures:
    def test_combined_hand_values(self):
        assert combined_expansion_set(cycle(6), {0}) == pytest.approx(2.0)
        assert combined_expansion_set(complete(4), {0, 1}) == pytest.approx(2 / 3)

    def test_augmented_hand_values(self):
        assert augmented_combined_expansion_set(cycle(6), {0}) == pytest.approx(4.0)
        want = 2 / 3 + 1 / math.log2(3)
        assert augmented_combined_expansion_set(complete(4), {0, 1}) == pytest.approx(want)

    def test_augmented_needs_degree_two(self):
        with pytest.raises(InputError):
            augmented_combined_expansion_set(complete(2), {0})

    @given(graph_and_proper_subset(min_nodes=3))
    def test_augmented_dominates_combined(self, gs):
        g, s = gs
        if g.max_degree < 2:
            return
        assert augmented_combined_expansion_set(g, s) >= combined_expansion_set(g, s)


class TestRegularRelations:
    def test_sandwich_cycle_seed(self):
        lower, h, upper = regular_h_sandwich(cycle(6), {0})
        assert (lower, h, upper) == (0.25, 0.5, 0.5)

    def test_s_factor_cycle(self):
        assert regular_s_factor(cycle(6), {0}) == pytest.approx(1.0)

    def test_s_factor_undefined_when_flat(self):
        with pytest.raises(InputError):
            regular_s_factor(complete(4), {0, 1})

    def test_requires_regular(self):
        with pytest.raises(InputError):
            regular_h_sandwich(star(4), {1})
        with pytest.raises(InputError):
            regular_s_factor(star(4), {1})

    def test_s_factor_in_unit_band_on_sweeps(self):
        from helpers import regular_small_graphs

        checked = 0
        for _, g in regular_small_graphs():
            for k in range(1, g.n // 2 + 1):
                for s in _subsets(g.n, k):
                    if is_dominating(g, s):
                        continue
                    s_val = regular_s_factor(g, s)
                    assert 1.0 - 1e-9 <= s_val <= 2.0 + 1e-9
                    regular_h_sandwich(g, s)  # raises internally if violated
                    checked += 1
                if checked > 400:
                    break
            if checked > 2500:
                break
        assert checked > 300


class TestDegreeClasses:
    def test_partition_and_certificate(self):
        g = cycle(6)
        dec = degree_class_decomposition(g, {0}, 0.5)
        bd = boundary(g, {0})
        assert dec.low | dec.mid | dec.high == bd
        assert not (dec.low & dec.mid) and not (dec.mid & dec.high)
        assert sum(dec.contributions) >= 0.5 - 1e-12
        assert dec.certifying_classes  # 0.5 >= threshold, some class certifies

    def test_contributions_cover_value(self):
        g = erdos_renyi(40, 0.12, rng_seed=8)
        s = frozenset(range(5))
        h = boundary_expansion_exact(g, s)
        dec = degree_class_decomposition(g, s, 0.3)
        assert sum(dec.contributions) >= h - 1e-12
        for contrib in dec.contributions:
            assert contrib <= h + 1e-12

    def test_certifying_rule(self):
        g = cycle(8)
        dec = degree_class_decomposition(g, {0}, 0.5)
        h = boundary_expansion_exact(g, {0})
        if h >= 0.5:
            assert dec.certifying_classes
        for name, contrib in zip(("low", "mid", "high"), dec.contributions):
            if name in dec.certifying_classes:
                assert contrib >= 0.5 / 3

    def test_degenerate_small_boundary(self):
        # c*|boundary| is far below 1 here, so the low class must be empty
        g = cycle(6)
        dec = degree_class_decomposition(g, {0}, 0.5)
        assert dec.c == pytest.approx((0.5 / 3) ** 2 / 8)
        assert dec.low == frozenset()
        assert dec.high_degree_floor >= 1.0

    def test_threshold_validation(self):
        with pytest.raises(InputError):
            degree_class_decomposition(cycle(6), {0}, 0.0)
        with pytest.raises(InputError):
            degree_class_decomposition(cycle(6), {0}, 1.0)

    @given(st.lists(st.integers(1, 12), max_size=20))
    @settings(max_examples=150)
    @example([])
    @example([5, 9, 1, 2, 2, 5])  # [1, 2] and [5, 10] hold three each; the first wins
    def test_densest_window_matches_naive_scan(self, degs):
        # S is a path on k nodes; boundary node i has degree degs[i] into S,
        # so the mid class's degrees are exactly degs, and one more boundary
        # node with k pendants has degree k + 1 > |S| and is high
        k = max(degs, default=1)
        edges = [(v, v + 1) for v in range(k - 1)]
        for i, d in enumerate(degs):
            edges += [(v, k + i) for v in range(d)]
        high = k + len(degs)
        edges += [(0, high)] + [(high, high + j) for j in range(1, k + 1)]
        g = Graph.from_edges(high + k + 1, edges)
        dec = degree_class_decomposition(g, range(k), 0.5)
        assert sorted(g.degrees[u] for u in dec.mid) == sorted(degs)
        assert dec.mid_heaviest_degree == oracles.naive_densest_window(degs)

    def test_class_thresholds_respected(self):
        g = star(12)
        s = frozenset({1, 2, 3})
        dec = degree_class_decomposition(g, s, 0.5)
        bd = boundary(g, s)
        for u in dec.low:
            assert len(g.adj[u]) <= dec.c * len(bd)
        for u in dec.mid:
            assert dec.c * len(bd) < len(g.adj[u]) <= len(s)
        for u in dec.high:
            assert len(g.adj[u]) > dec.high_degree_floor
