"""Thinning fixed point, its potential accounting, and the guarantee audit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rumorspread.participating as part_mod
from conftest import graph_and_proper_subset
from rumorspread import (
    InputError,
    ParticipatingConfig,
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
    restricted_start,
    star,
    write_removal_log_csv,
)


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

    @given(graph_and_proper_subset(min_nodes=3))
    def test_matches_oracle(self, gs):
        g, s = gs
        cfg = ParticipatingConfig()
        res = compute_participating(g, s, cfg)
        want = oracles.naive_participating(g.adj, s, cfg.eps_p)
        assert res.participating == want

    @given(graph_and_proper_subset(min_nodes=3))
    def test_no_violators_at_fixed_point(self, gs):
        g, s = gs
        cfg = ParticipatingConfig()
        res = compute_participating(g, s, cfg)
        p = res.participating
        sp = closure(g, g.check_set(s))
        for u in range(g.n):
            in_score = (
                Fraction(sum(1 for v in g.adj[u] if v in p), len(g.adj[u]))
                if u in sp
                else sum(
                    (
                        Fraction(1, len(g.adj[v]))
                        for v in g.adj[u]
                        if v in p and v in sp
                    ),
                    Fraction(0),
                )
            )
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
        # replay the log: the pool after step i is the start minus every
        # node logged at a step <= i
        removed_at: dict[int, list[int]] = {}
        for entry in res.removal_log:
            removed_at.setdefault(entry.step, []).append(entry.node)
        assert sorted(removed_at) == list(range(1, res.steps + 1))
        pool = set(res.start)
        assert res.trajectory[0] == oracles.naive_potential(g.adj, s, pool)
        for i in range(1, res.steps + 1):
            pool -= set(removed_at[i])
            assert res.trajectory[i] == oracles.naive_potential(g.adj, s, pool), i
        assert pool == res.participating

    def test_disagreeing_forms_raise(self, monkeypatch):
        remove = part_mod._RunningPotential.remove

        def skewed(self, x):
            remove(self, x)
            self.phi2_recv += 1

        monkeypatch.setattr(part_mod._RunningPotential, "remove", skewed)
        with pytest.raises(AssertionError, match="dual forms disagree"):
            compute_participating(cycle(6), {0}, ParticipatingConfig())

    def test_drift_from_recompute_raises(self, monkeypatch):
        # both forms skewed alike pass the per-step comparison; the end-state
        # recompute still catches them
        remove = part_mod._RunningPotential.remove

        def skewed(self, x):
            remove(self, x)
            self.phi1_send += 1
            self.phi1_recv += 1

        monkeypatch.setattr(part_mod._RunningPotential, "remove", skewed)
        with pytest.raises(AssertionError, match="drifted"):
            compute_participating(cycle(6), {0}, ParticipatingConfig())


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

    def test_reasons_track_membership(self):
        g = erdos_renyi(25, 0.12, rng_seed=9)
        s = frozenset({0})
        res = compute_participating(g, s, ParticipatingConfig())
        sp = closure(g, s)
        for entry in res.removal_log:
            want = "active" if entry.node in sp else "passive"
            assert entry.reason == want
