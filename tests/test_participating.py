"""Thinning fixed point, its potential accounting, and the guarantee audit."""

import dataclasses
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import rumorspread.expansion as expansion
import rumorspread.graph as graph_module
import rumorspread.participating as part_mod
from conftest import graph_and_proper_subset
from rumorspread.cli import main
from rumorspread import (
    Graph,
    InputError,
    ParticipatingConfig,
    ParticipatingResult,
    active_fraction_check,
    boundary,
    boundary_expansion_exact,
    boundary_expansion_fraction,
    closure,
    compute_participating,
    compute_participating_modified,
    cycle,
    erdos_renyi,
    participating_fixed_point,
    path,
    potential,
    random_regular,
    restricted_start,
    save_edge_list,
    star,
    write_removal_log_csv,
)


EPS_P = st.sampled_from([Fraction(1, 10), Fraction(3, 20), Fraction(2, 5), Fraction(3, 5)])
# Star around node 1 with S = {0}, eps_p = 2/5: the leaves 2 and 3 get mass
# 1/3 from node 1 and go; node 1 keeps a pooled share of only 1/3 and stays on
# the mass 1 of its active neighbour 0, so the fixed point is {0, 1}.
STAR_CASE = (Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)]), frozenset({0}))
# A tree with S = {0, 3}: thinned from the restricted start at eps_p = 3/5,
# it removes the active node 4 and the potential drops by only 1/12.
DROP_CASE = (
    Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 6), (4, 7)]),
    frozenset({0, 3}),
)


def assert_trajectory_matches_oracle(g, s, res):
    """Replay the removal log: the pool after step i is the start minus every
    node logged at a step <= i, and its potential must be the oracle's."""
    removed_at: dict[int, list[int]] = {}
    for entry in res.removal_log:
        removed_at.setdefault(entry.step, []).append(entry.node)
    assert sorted(removed_at) == list(range(1, res.steps + 1))
    pool = set(res.start)
    eager = [oracles.naive_potential(g.adj, s, pool)]
    assert res.trajectory[0] == eager[0]
    for i in range(1, res.steps + 1):
        pool -= set(removed_at[i])
        eager.append(oracles.naive_potential(g.adj, s, pool))
        assert res.trajectory[i] == eager[i], i
    assert pool == res.participating
    # a list of (Fraction, Fraction) tuples, printed exactly as the
    # independently built list is
    assert repr(res.trajectory) == repr(eager)


# Instances on which the three removal orders log different steps: from the
# full pool most nodes violate at once, and later steps remove one or several.
ORDER_INSTANCES = [
    (n, degree, seed, s, eps_p)
    for n, degree, seeds in ((64, 8, range(6)), (128, 6, range(3)))
    for seed in seeds
    for s in (frozenset({0}), frozenset({0, 1}))
    for eps_p in (Fraction(2, 5), Fraction(3, 20))
]


@functools.cache
def order_instance(i: int, start_kind: str):
    """Graph, set, eps_p and start pool of ``ORDER_INSTANCES[i]``; a custom
    start is the closure of the set's closure."""
    n, degree, seed, s, eps_p = ORDER_INSTANCES[i]
    g = random_regular(n, degree, rng_seed=seed)
    start = None if start_kind == "full" else closure(g, closure(g, s))
    return g, s, eps_p, start


@functools.cache
def oracle_removal_steps(i: int, start_kind: str, order: str):
    g, s, eps_p, start = order_instance(i, start_kind)
    return oracles.naive_removal_steps(g.adj, s, eps_p, order, random.Random(i), start)


def wide_degree_graph() -> Graph:
    """Hub 0 joined to nodes 1..42, node c (1 <= c <= 42) also joined to
    leaves 43..42 + c: node c has degree c + 1 and leaf 42 + i degree 43 - i,
    so the degrees span 1..43, whose lcm 9419588158802421600 is past int64."""
    edges = [(0, c) for c in range(1, 43)]
    edges += [(c, 42 + i) for c in range(1, 43) for i in range(1, c + 1)]
    return Graph.from_edges(85, edges)


WIDE = wide_degree_graph()


class TestConfig:
    def test_defaults(self):
        cfg = ParticipatingConfig()
        assert cfg.eps_p == Fraction(3, 20)
        assert cfg.eps_h == Fraction(1, 2)
        assert cfg.hypothesis_ok

    def test_float_coercion_is_exact(self):
        cfg = ParticipatingConfig(eps_p=0.15, eps_h=0.5)
        assert cfg.eps_p == Fraction(3, 20)
        assert cfg.eps_h == Fraction(1, 2)

    def test_range_validation(self):
        with pytest.raises(InputError):
            ParticipatingConfig(eps_p=0)
        with pytest.raises(InputError):
            ParticipatingConfig(eps_p=1)
        with pytest.raises(InputError):
            ParticipatingConfig(eps_h=1)
        ParticipatingConfig(eps_h=0)  # allowed

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e400])
    @pytest.mark.parametrize("name", ["eps_p", "eps_h"])
    def test_non_finite_float_is_input_error(self, name, value):
        with pytest.raises(InputError, match="finite"):
            ParticipatingConfig(**{name: value})

    def test_hypothesis_flag(self):
        # the coupled constraint is not a hard error, only a flag
        cfg = ParticipatingConfig(eps_p=Fraction(1, 4), eps_h=Fraction(1, 2))
        assert not cfg.hypothesis_ok


class TestPotential:
    def test_full_pool_is_zero(self):
        p1, p2, tot = potential(cycle(6), {0}, range(6))
        assert (p1, p2, tot) == (0.0, 0.0, 0.0)

    def test_hand_value(self):
        # pool drops node 1 from the closure {5,0,1}: active node 0 sends
        # 1/2 toward the hole, and the removed closure node keeps both its
        # edges (to 0 and 2) pointing back into the pool, mass 2/2
        p1, p2, tot = potential(cycle(6), {0}, {0, 2, 3, 4, 5})
        assert p1 == pytest.approx(0.5)
        assert p2 == pytest.approx(1.0)
        assert tot == pytest.approx(1.5)

    @given(graph_and_proper_subset(min_nodes=3))
    def test_matches_oracle(self, gs):
        g, s = gs
        rand = random.Random(11)
        pool = frozenset(
            v for v in range(g.n) if rand.random() < 0.7
        ) | {min(s)}
        w1, w2 = oracles.naive_potential(g.adj, s, pool)
        p1, p2, tot = potential(g, s, pool)
        assert p1 == pytest.approx(float(w1), abs=1e-12)
        assert p2 == pytest.approx(float(w2), abs=1e-12)
        assert tot == pytest.approx(float(w1 + w2), abs=1e-12)


class TestFixedPoint:
    def test_path_hand_example(self):
        cfg = ParticipatingConfig(eps_p=Fraction(1, 5))
        res = compute_participating(path(5), {0}, cfg)
        assert res.participating == {0, 1, 2}
        assert res.active == {0, 1}
        assert res.passive == {2}
        assert res.start_rule == "full"

    def test_path_modified_same_result(self):
        cfg = ParticipatingConfig(eps_p=Fraction(1, 5))
        res = compute_participating_modified(path(5), {0}, cfg)
        assert res.participating == {0, 1, 2}
        assert res.start == {0, 1, 2}
        assert res.start_rule == "restricted"

    def test_cycle_full_frozen(self):
        res = compute_participating(cycle(6), {0}, ParticipatingConfig())
        assert res.participating == {0, 1, 2, 4, 5}
        assert res.active == {0, 1, 5}
        assert res.passive == {2, 4}
        assert len(res.removal_log) == 1
        assert res.removal_log[0].node == 3

    def test_restricted_start_hand_value(self):
        cfg = ParticipatingConfig(eps_p=Fraction(1, 5))
        assert restricted_start(path(5), {0}, cfg) == {0, 1, 2}
        # raising the threshold excludes the outer boundary node
        high = ParticipatingConfig(eps_p=Fraction(2, 7))
        assert restricted_start(path(5), {0}, high) == {0, 1}

    def test_start_none_equals_full(self):
        g = erdos_renyi(15, 0.25, rng_seed=1)
        cfg = ParticipatingConfig()
        a = participating_fixed_point(g, {0, 1}, cfg)
        b = participating_fixed_point(g, {0, 1}, cfg, start=g.node_set)
        assert a.participating == b.participating
        assert a.start_rule == "full"
        assert b.start_rule == "custom"

    @given(graph_and_proper_subset(min_nodes=3), EPS_P)
    @example(STAR_CASE, Fraction(2, 5))
    def test_matches_oracle(self, gs, eps_p):
        g, s = gs
        cfg = ParticipatingConfig(eps_p=eps_p)
        res = compute_participating(g, s, cfg)
        want = oracles.naive_participating(g.adj, s, cfg.eps_p)
        assert res.participating == want

    @given(graph_and_proper_subset(min_nodes=3), EPS_P)
    @example(STAR_CASE, Fraction(2, 5))
    def test_no_violators_at_fixed_point(self, gs, eps_p):
        g, s = gs
        cfg = ParticipatingConfig(eps_p=eps_p)
        res = compute_participating(g, s, cfg)
        p = res.participating
        sp = closure(g, g.check_set(s))
        for u in range(g.n):
            # sampling mass of the active neighbours, plus the pooled share
            # for a closure node
            in_score = sum(
                (Fraction(1, len(g.adj[v])) for v in g.adj[u] if v in p and v in sp),
                Fraction(0),
            )
            if u in sp:
                in_score += Fraction(sum(1 for v in g.adj[u] if v in p), len(g.adj[u]))
            if u in p:
                assert in_score >= cfg.eps_p
            else:
                assert in_score < cfg.eps_p

    def test_order_indifference(self):
        g = erdos_renyi(25, 0.15, rng_seed=2)
        s = frozenset({0, 1, 2})
        cfg = ParticipatingConfig()
        base = participating_fixed_point(g, s, cfg, order="lowest").participating
        assert (
            participating_fixed_point(g, s, cfg, order="batch").participating == base
        )
        for seed in range(6):
            got = participating_fixed_point(
                g, s, cfg, order="random", rng=random.Random(seed)
            ).participating
            assert got == base

    def test_monotone_in_start(self):
        g = erdos_renyi(20, 0.2, rng_seed=3)
        s = frozenset({0})
        cfg = ParticipatingConfig()
        full = compute_participating(g, s, cfg).participating
        modified = compute_participating_modified(g, s, cfg).participating
        assert modified <= full

    def test_partition(self):
        g = erdos_renyi(20, 0.2, rng_seed=4)
        res = compute_participating(g, {0, 3}, ParticipatingConfig())
        assert res.active | res.passive == res.participating
        assert not (res.active & res.passive)
        sp = closure(g, frozenset({0, 3}))
        assert res.active == res.participating & sp

    def test_trajectory_matches_direct_potential(self):
        g = erdos_renyi(18, 0.18, rng_seed=5)
        s = frozenset({0})
        res = compute_participating_modified(g, s, ParticipatingConfig())
        assert res.trajectory is not None
        assert res.steps == len(res.removal_log)
        _, _, direct = potential(g, s, res.participating)
        assert float(res.phi(res.steps)) == pytest.approx(direct, abs=1e-12)


class TestRunningPotential:
    """The per-removal dual-form sums against an independent recompute."""

    @given(
        gs=graph_and_proper_subset(min_nodes=3, max_nodes=12),
        order=st.sampled_from(["lowest", "batch", "random"]),
        start_kind=st.sampled_from(["full", "restricted", "random"]),
        eps_p=st.sampled_from([Fraction(1, 10), Fraction(3, 20), Fraction(2, 5), Fraction(3, 5)]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150)
    def test_trajectory_matches_oracle_after_every_step(
        self, gs, order, start_kind, eps_p, seed
    ):
        g, s = gs
        rand = random.Random(seed)
        cfg = ParticipatingConfig(eps_p=eps_p)
        if start_kind == "full":
            start = None
        elif start_kind == "restricted":
            start = restricted_start(g, s, cfg)
        else:
            start = {v for v in range(g.n) if rand.random() < 0.7}
        res = participating_fixed_point(
            g, s, cfg, start=start, order=order, rng=rand
        )
        assert_trajectory_matches_oracle(g, s, res)

    def test_disagreeing_forms_raise(self, monkeypatch):
        remove = part_mod._RunningPotential.remove

        def skewed(self, x, *counts):
            remove(self, x, *counts)
            self.phi2_recv += 1

        monkeypatch.setattr(part_mod._RunningPotential, "remove", skewed)
        with pytest.raises(AssertionError, match="dual forms disagree"):
            compute_participating(cycle(6), {0}, ParticipatingConfig())

    # S = {0} at eps_p = 3/5 removes 2, 5 and 6 (passive), then 3 (active)
    LATE_ACTIVE = (
        Graph.from_edges(7, [(0, 1), (0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (3, 5), (3, 6), (5, 6)]),
        frozenset({0}),
    )

    @pytest.mark.parametrize(
        "skew, raised_after",
        [((1, 0), [2]), ((0, 1), [2, 5, 6, 3])],
        ids=["active_mass", "pool_nbrs"],
    )
    def test_wrong_worklist_count_raises_where_used(self, monkeypatch, skew, raised_after):
        # the receiver form reads the worklist's counts for the removed node:
        # a wrong active mass fails at the first removal, a wrong pooled
        # count at the first removal of a closure node, the only one to read it
        g, s = self.LATE_ACTIVE
        cfg = ParticipatingConfig(eps_p=Fraction(3, 5))
        assert [(e.node, e.reason) for e in compute_participating(g, s, cfg).removal_log] == [
            (2, "passive"), (5, "passive"), (6, "passive"), (3, "active")
        ]
        remove = part_mod._RunningPotential.remove
        removed = []

        def skewed(self, x, active_mass, pool_nbrs):
            removed.append(x)
            remove(self, x, active_mass + skew[0], pool_nbrs + skew[1])

        monkeypatch.setattr(part_mod._RunningPotential, "remove", skewed)
        with pytest.raises(AssertionError, match="dual forms disagree"):
            compute_participating(g, s, cfg)
        assert removed == raised_after

    def test_drift_from_recompute_raises(self, monkeypatch):
        # both forms skewed alike pass the per-step comparison; the end-state
        # recompute still catches them
        remove = part_mod._RunningPotential.remove

        def skewed(self, x, *counts):
            remove(self, x, *counts)
            self.phi1_send += 1
            self.phi1_recv += 1

        monkeypatch.setattr(part_mod._RunningPotential, "remove", skewed)
        with pytest.raises(AssertionError, match="drifted"):
            compute_participating(cycle(6), {0}, ParticipatingConfig())


class TestScalePastInt64:
    """Degrees 1..43 make the common denominator of the sampling masses too
    large for int64: the start state, the potential and the restricted start
    must still be exact."""

    # the last two remove active nodes at eps_p = 3/5, from either start
    SETS = [frozenset({0}), frozenset({43, 6}), frozenset({84, 1, 2}), frozenset({51}), frozenset({9, 12, 42})]

    def test_scale_is_past_int64(self):
        unit, scale = part_mod._sampling_units(WIDE)
        assert scale == math.lcm(*range(1, 44)) == 9419588158802421600 > 2**63
        assert unit.dtype == object and sorted(set(WIDE.degrees)) == list(range(1, 44))

    @pytest.mark.parametrize("s", SETS)
    @pytest.mark.parametrize("eps_p", [Fraction(3, 20), Fraction(2, 5), Fraction(3, 5)])
    def test_fixed_points_match_oracles(self, s, eps_p):
        cfg = ParticipatingConfig(eps_p=eps_p)
        want = oracles.naive_participating(WIDE.adj, s, eps_p)
        for order in ("lowest", "batch", "random"):
            res = participating_fixed_point(WIDE, s, cfg, order=order, rng=random.Random(1))
            assert res.participating == want, order
            assert_trajectory_matches_oracle(WIDE, s, res)
        start = restricted_start(WIDE, s, cfg)
        bd = oracles.naive_boundary(WIDE.adj, s)
        closure_s = set(s) | bd
        shell = oracles.naive_boundary(WIDE.adj, closure_s)
        mass = {u: sum(Fraction(1, len(WIDE.adj[v])) for v in WIDE.adj[u] if v in bd) for u in shell}
        assert start == closure_s | {u for u in shell if mass[u] >= 2 * eps_p}
        res = compute_participating_modified(WIDE, s, cfg)
        assert res.participating == oracles.naive_participating(WIDE.adj, s, eps_p, start=start)
        assert_trajectory_matches_oracle(WIDE, s, res)

    @pytest.mark.parametrize("s", SETS)
    def test_potential_matches_oracle(self, s):
        rand = random.Random(len(s))
        for _ in range(5):
            pool = {v for v in range(WIDE.n) if rand.random() < 0.6}
            phi1, phi2 = oracles.naive_potential(WIDE.adj, s, pool)
            assert potential(WIDE, s, pool) == (float(phi1), float(phi2), float(phi1 + phi2))


class TestExactBoundaryExpansion:
    def test_matches_float_version(self):
        g = erdos_renyi(25, 0.15, rng_seed=6)
        s = frozenset(range(4))
        exact = boundary_expansion_fraction(g, s)
        assert float(exact) == pytest.approx(
            boundary_expansion_exact(g, s), abs=1e-12
        )

    def test_hand_value(self):
        assert boundary_expansion_fraction(cycle(6), {0}) == Fraction(1, 2)

    @given(graph_and_proper_subset(max_nodes=10))
    def test_matches_oracle(self, gs):
        g, s = gs
        assert boundary_expansion_fraction(g, s) == oracles.naive_h(g.adj, s)

    def test_wide_denominator(self):
        """S = {0} joined to 40 hubs of degree 21, each joined to all 20
        shell nodes: h = (21^40 - 20^40) / (2 * 21^40), whose denominator
        has 177 bits, past any int64 or float shortcut."""
        hubs, shell = range(1, 41), range(41, 61)
        edges = [(0, u) for u in hubs] + [(u, v) for u in hubs for v in shell]
        g = Graph.from_edges(61, edges)
        h = boundary_expansion_fraction(g, {0})
        assert h == Fraction(21**40 - 20**40, 2 * 21**40)
        assert h.denominator.bit_length() == 177
        assert h == oracles.naive_h(g.adj, {0})


class TestGuaranteeAudit:
    def test_qualifying_instance(self):
        rep = active_fraction_check(cycle(6), {0}, ParticipatingConfig())
        assert not rep.skipped
        assert rep.h_value == pytest.approx(0.5)
        assert rep.boundary_size == 2
        assert rep.phi_start_ok and rep.monotone_ok and rep.active_drop_ok
        assert rep.fraction_ok
        assert rep.all_ok

    def test_skip_on_config_hypothesis(self):
        cfg = ParticipatingConfig(eps_p=Fraction(1, 4), eps_h=Fraction(1, 2))
        rep = active_fraction_check(cycle(6), {0}, cfg)
        assert rep.skipped and rep.reason
        assert not rep.all_ok

    def test_skip_on_large_boundary_expansion(self):
        cfg = ParticipatingConfig(eps_p=Fraction(1, 10), eps_h=Fraction(1, 10))
        rep = active_fraction_check(cycle(6), {0}, cfg)
        assert rep.skipped
        assert "expansion" in rep.reason

    def test_skipped_audit_builds_no_sampling_units(self, monkeypatch):
        # a skipped audit reads only the closure masks and the exact h
        calls = []
        units = part_mod._sampling_units
        monkeypatch.setattr(part_mod, "_sampling_units", lambda g: calls.append(g) or units(g))
        for eps_p, eps_h in ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 10), Fraction(1, 10))):
            cfg = ParticipatingConfig(eps_p=eps_p, eps_h=eps_h)
            assert active_fraction_check(cycle(6), {0}, cfg).skipped
        assert calls == []
        assert not active_fraction_check(cycle(6), {0}, ParticipatingConfig()).skipped
        assert len(calls) == 1

    def test_fraction_floor_formula(self):
        cfg = ParticipatingConfig()
        rep = active_fraction_check(cycle(6), {0}, cfg)
        eps_p, eps_h = float(cfg.eps_p), float(cfg.eps_h)
        want = 1 - eps_h / ((1 - eps_p) * (1 - 2 * eps_p))
        assert rep.fraction_floor == pytest.approx(want)
        assert rep.surviving_boundary / rep.boundary_size >= want - 1e-12

    def test_star_leaf_set(self):
        # a leaf's closure misses nothing qualifying; audit must not crash
        rep = active_fraction_check(star(6), {1}, ParticipatingConfig())
        assert rep.skipped or rep.all_ok

    @given(
        gs=graph_and_proper_subset(min_nodes=3, max_nodes=12),
        eps=st.sampled_from(
            [(Fraction(3, 20), Fraction(1, 2)), (Fraction(1, 20), Fraction(4, 5)),
             (Fraction(1, 4), Fraction(1, 5))]
        ),
        run_eps_p=EPS_P,
    )
    @example(gs=DROP_CASE, eps=(Fraction(1, 20), Fraction(4, 5)), run_eps_p=Fraction(3, 5))
    # a scale past 2**63: 28 steps, 26 of them active, and h = 0.476
    @example(
        gs=(WIDE, frozenset({9, 12, 42})), eps=(Fraction(1, 20), Fraction(4, 5)),
        run_eps_p=Fraction(3, 5),
    )
    def test_flags_match_fraction_arithmetic(self, gs, eps, run_eps_p):
        """The integer comparisons give the flags that Fraction arithmetic on
        the public trajectory gives. The restricted run is handed in, thinned
        at its own eps_p, so that active removals and failed drops occur,
        which the guarantee regime itself rarely produces on small graphs."""
        g, s = gs
        cfg = ParticipatingConfig(eps_p=eps[0], eps_h=eps[1])
        modified = compute_participating_modified(g, s, ParticipatingConfig(eps_p=run_eps_p))
        rep = active_fraction_check(g, s, cfg, modified=modified)
        if rep.skipped:
            assert g is not WIDE
            return
        phi = [modified.phi(i) for i in range(modified.steps + 1)]
        assert rep.phi_start == float(phi[0])
        assert rep.phi_start_ok == (phi[0] <= cfg.eps_h / (1 - cfg.eps_p) * rep.boundary_size)
        assert rep.monotone_ok == all(b <= a for a, b in zip(phi, phi[1:]))
        assert rep.active_drop_ok == all(
            phi[e.step - 1] - phi[e.step] >= 1 - 2 * cfg.eps_p
            for e in modified.removal_log
            if e.reason == "active"
        )

    def test_small_active_drop_fails(self):
        g, s = DROP_CASE
        modified = compute_participating_modified(g, s, ParticipatingConfig(eps_p=Fraction(3, 5)))
        assert [(e.step, e.node, e.reason) for e in modified.removal_log] == [(1, 4, "active")]
        assert modified.phi(0) - modified.phi(1) == Fraction(1, 12)
        cfg = ParticipatingConfig(eps_p=Fraction(1, 20), eps_h=Fraction(4, 5))
        rep = active_fraction_check(g, s, cfg, modified=modified)
        assert not rep.skipped
        assert rep.monotone_ok and not rep.active_drop_ok

    @given(gs=graph_and_proper_subset(min_nodes=3, max_nodes=12), eps_p=EPS_P)
    def test_reused_fixed_points_give_the_same_report(self, gs, eps_p):
        g, s = gs
        cfg = ParticipatingConfig(eps_p=eps_p / 4, eps_h=Fraction(3, 5))
        want = active_fraction_check(g, s, cfg)
        full = compute_participating(g, s, cfg)
        modified = compute_participating_modified(g, s, cfg)
        assert active_fraction_check(g, s, cfg, full=full) == want
        assert active_fraction_check(g, s, cfg, modified=modified) == want


class TestAuditReusedRuns:
    """A fixed point handed to the audit must be one of the audited set: a
    run of another set or start would give a report of another instance."""

    G = random_regular(64, 8, rng_seed=3)
    S = frozenset({0, 9, 17, 40})
    CFG = ParticipatingConfig()

    def test_reference_report(self):
        rep = active_fraction_check(self.G, self.S, self.CFG)
        assert (rep.phi_start, rep.all_ok, rep.surviving_boundary) == (1.875, True, 27)
        full = compute_participating(self.G, self.S, self.CFG, track_potential=False)
        modified = compute_participating_modified(self.G, self.S, self.CFG)
        assert active_fraction_check(self.G, self.S, self.CFG, full=full, modified=modified) == rep

    def test_full_start_run_as_modified(self):
        full = compute_participating(self.G, self.S, self.CFG)
        with pytest.raises(InputError, match="restricted start"):
            active_fraction_check(self.G, self.S, self.CFG, modified=full)

    def test_untracked_modified(self):
        untracked = compute_participating_modified(self.G, self.S, self.CFG, track_potential=False)
        with pytest.raises(InputError, match="tracked"):
            active_fraction_check(self.G, self.S, self.CFG, modified=untracked)

    def test_modified_of_another_set(self):
        other = compute_participating_modified(self.G, {1, 2, 3}, self.CFG)
        with pytest.raises(InputError, match="restricted start"):
            active_fraction_check(self.G, self.S, self.CFG, modified=other)

    def test_full_of_another_set(self):
        other = compute_participating(self.G, {1, 2, 3}, self.CFG)
        with pytest.raises(InputError, match="from every node"):
            active_fraction_check(self.G, self.S, self.CFG, full=other)

    def test_restricted_run_as_full(self):
        modified = compute_participating_modified(self.G, self.S, self.CFG)
        with pytest.raises(InputError, match="from every node"):
            active_fraction_check(self.G, self.S, self.CFG, full=modified)


class TestOneThinningState:
    """Each call validates its set and computes the closure and the sampling
    units once, whatever it runs on them."""

    G = TestAuditReusedRuns.G
    S = TestAuditReusedRuns.S

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"closure": 0, "units": 0}

        def counting(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)

            return wrapped

        closure_calls = counting("closure", graph_module._closure)
        monkeypatch.setattr(part_mod, "_closure", closure_calls)
        monkeypatch.setattr(expansion, "_closure", closure_calls)
        monkeypatch.setattr(part_mod, "_sampling_units", counting("units", part_mod._sampling_units))
        return counts

    @pytest.mark.parametrize("extra", [[], ["--restricted-start"]])
    def test_cli_check(self, counts, tmp_path, extra):
        path, out = str(tmp_path / "g.txt"), tmp_path / "out.json"
        save_edge_list(self.G, path)
        argv = ["participating", "--graph", path, "--set", "0,9,17,40", "--check", "--out", str(out)]
        assert main(argv + extra) == 0
        assert '"all_ok": true' in out.read_text()  # the audit ran both fixed points
        assert counts == {"closure": 2, "units": 2}

    def test_audit(self, counts):
        assert active_fraction_check(self.G, self.S, ParticipatingConfig()).all_ok
        assert counts == {"closure": 1, "units": 1}

    def test_modified(self, counts):
        compute_participating_modified(self.G, self.S, ParticipatingConfig())
        assert counts == {"closure": 1, "units": 1}

    def test_whole_node_set_is_no_proper_subset(self):
        every = range(self.G.n)
        with pytest.raises(InputError, match="set must be a nonempty proper subset"):
            potential(self.G, every, {0})
        with pytest.raises(InputError, match="set must be a nonempty proper subset"):
            restricted_start(self.G, every, ParticipatingConfig())


class TestResultShape:
    def test_field_names(self):
        """Digests of a result walk its dataclass fields in order."""
        assert [f.name for f in dataclasses.fields(ParticipatingResult)] == [
            "participating", "active", "passive", "start", "start_rule", "eps_p",
            "removal_log", "trajectory",
        ]


class TestRemovalLog:
    def test_csv_format(self, tmp_path):
        res = compute_participating(cycle(6), {0}, ParticipatingConfig())
        out = tmp_path / "log.csv"
        write_removal_log_csv(res, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,node,reason,phi1,phi2,phi"
        assert len(lines) == 2
        step, node, reason, *_ = lines[1].split(",")
        assert (step, node, reason) == ("1", "3", "passive")

    @pytest.mark.parametrize("start_kind", ["full", "custom"])
    @pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "untracked"])
    @pytest.mark.parametrize("order", ["lowest", "batch", "random"])
    def test_matches_rescanning_oracle(self, order, tracked, start_kind):
        """Every step removes what a full rescan of the pool picks, in the
        logged order, whichever order, start and tracking."""
        for i, instance in enumerate(ORDER_INSTANCES):
            g, s, eps_p, start = order_instance(i, start_kind)
            res = participating_fixed_point(
                g, s, ParticipatingConfig(eps_p=eps_p), start=start, order=order,
                rng=random.Random(i), track_potential=tracked,
            )
            got = [(e.step, e.node, e.reason) for e in res.removal_log]
            assert got == oracle_removal_steps(i, start_kind, order), instance

    def test_reasons_track_membership(self):
        g = erdos_renyi(25, 0.12, rng_seed=9)
        s = frozenset({0})
        res = compute_participating(g, s, ParticipatingConfig())
        sp = closure(g, s)
        for entry in res.removal_log:
            want = "active" if entry.node in sp else "passive"
            assert entry.reason == want
