"""Expansion measures: set-level values, exhaustive graph-level minima,
sampling, and the regular-graph relations."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import connected_graphs, graph_and_proper_subset
from helpers import random_connected
from rumorspread import expansion
from rumorspread import (
    CapabilityError,
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
        sets = [frozenset(rand.sample(range(62), rand.randint(0, 62))) for _ in range(300)]
        masks = np.array([sum(1 << v for v in s) for s in sets], dtype=np.int64)
        size, vol, edges = tables.stats(masks)
        nbr = tables.neighbourhood(masks)
        for i, s in enumerate(sets):
            assert size[i] == len(s)
            assert vol[i] == oracles.naive_volume(g.adj, s)
            assert vol[i] - 2 * edges[i] == oracles.naive_cut(g.adj, s)
            reached = {v for u in s for v in g.adj[u]}
            assert nbr[i] == sum(1 << v for v in reached)

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
