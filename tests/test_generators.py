"""Graph families, the family registry, and the greedy dominating set."""

import random

import pytest
from hypothesis import given, settings

import oracles
from conftest import connected_graphs
from rumorspread import (
    ConstructionError,
    ExperimentConfig,
    FAMILY_NAMES,
    FamilySpec,
    InputError,
    clustered_regular,
    complete,
    cycle,
    dumbbell,
    erdos_renyi,
    greedy_dominating_set,
    hypercube,
    is_dominating,
    path,
    random_regular,
    run_experiment,
    star,
    two_cliques_shared_vertex,
)
import rumorspread.generators as gmod
from rumorspread.generators import _clustered_edge_sets
from rumorspread.graph import diameter


class TestDeterministicFamilies:
    def test_complete(self):
        g = complete(4)
        assert g.n == 4 and g.num_edges == 6 and g.is_regular

    def test_path_endpoints(self):
        g = path(4)
        assert g.degrees == (1, 2, 2, 1)

    def test_cycle(self):
        g = cycle(5)
        assert g.num_edges == 5 and g.is_regular and g.max_degree == 2
        with pytest.raises(InputError):
            cycle(2)

    def test_star_center(self):
        g = star(6)
        assert g.n == 7 and g.degrees[0] == 6
        assert set(g.adj[0]) == set(range(1, 7))

    def test_hypercube(self):
        g = hypercube(3)
        assert g.n == 8 and g.num_edges == 12 and g.is_regular
        for u in range(8):
            for v in g.adj[u]:
                assert bin(u ^ v).count("1") == 1

    def test_two_cliques_shared_vertex(self):
        g = two_cliques_shared_vertex(3)
        assert g.n == 5
        assert g.degrees[0] == 4
        assert set(g.adj[1]) >= {0, 2} and set(g.adj[3]) >= {0, 4}

    def test_dumbbell(self):
        g = dumbbell(3)
        assert g.n == 6
        assert sorted(g.degrees) == [2, 2, 2, 2, 3, 3]
        assert 3 in g.adj[2]
        assert diameter(dumbbell(4)) == 3


class TestRandomFamilies:
    def test_random_regular_properties(self):
        g = random_regular(12, 4, rng_seed=2)
        assert g.n == 12 and g.is_regular and g.max_degree == 4

    def test_random_regular_deterministic(self):
        a = random_regular(16, 3, rng_seed=9)
        b = random_regular(16, 3, rng_seed=9)
        assert a.adj == b.adj
        c = random_regular(16, 3, rng_seed=10)
        assert a.adj != c.adj

    def test_random_regular_validation(self):
        with pytest.raises(InputError):
            random_regular(5, 3, rng_seed=0)  # odd degree sum
        with pytest.raises(InputError):
            random_regular(4, 4, rng_seed=0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: random_regular(8, 3, rng_seed=0),
                "random_regular(n=8, degree=3) failed after 0 attempts",
            ),
            (
                lambda: erdos_renyi(6, 0.5, rng_seed=0),
                "erdos_renyi(n=6, p=0.5) failed to draw a connected sample after 0 attempts",
            ),
            (
                lambda: clustered_regular(2, 3, c=2, rng_seed=0),
                "clustered_regular(2, 3, c=2) stayed disconnected after 0 attempts",
            ),
        ],
        ids=["random_regular", "erdos_renyi", "clustered_regular"],
    )
    def test_budget_exhaustion(self, monkeypatch, build, message):
        # the budget is read when the builder runs, not when it is defined
        monkeypatch.setattr(gmod, "RETRY_BUDGET", 0)
        with pytest.raises(ConstructionError) as exc:
            build()
        assert str(exc.value) == message

    def test_erdos_renyi(self):
        g = erdos_renyi(20, 0.3, rng_seed=4)
        assert g.n == 20
        assert erdos_renyi(20, 0.3, rng_seed=4).adj == g.adj
        with pytest.raises(InputError):
            erdos_renyi(20, 0.0, rng_seed=4)
        with pytest.raises(InputError):
            erdos_renyi(20, 1.5, rng_seed=4)

    def test_clustered_block_structure(self):
        g = clustered_regular(2, 3, c=2, rng_seed=1)
        assert g.n == 12  # 2 components of size c*degree = 6
        # every node has its regular degree plus at most a few extra edges
        assert g.min_degree >= 3

    def test_clustered_pre_augmentation_regular(self):
        intra, extra = _clustered_edge_sets(2, 3, c=2, rng_seed=5)
        assert len(intra) == 2
        for k, comp in enumerate(intra):
            degs = {}
            for u, v in comp:
                degs[u] = degs.get(u, 0) + 1
                degs[v] = degs.get(v, 0) + 1
            assert set(degs) == set(range(k * 6, (k + 1) * 6))
            assert all(d == 3 for d in degs.values())
        # one candidate extra edge per node, minus dedup collisions
        assert 1 <= len(extra) <= 12
        assert len(set(extra)) == len(extra)

    def test_clustered_validation(self):
        with pytest.raises(InputError):
            clustered_regular(1, 3, c=2, rng_seed=0)
        with pytest.raises(InputError):
            clustered_regular(2, 3, c=1, rng_seed=0)


class TestGreedyDominating:
    def test_hand_values(self):
        assert greedy_dominating_set(cycle(6)) == {0, 3}
        assert greedy_dominating_set(star(5)) == {0}
        assert greedy_dominating_set(path(4)) == {1, 2}

    @given(connected_graphs(max_nodes=12))
    @settings(max_examples=80)
    def test_always_dominating(self, g):
        d = greedy_dominating_set(g)
        assert is_dominating(g, d)

    @given(connected_graphs(max_nodes=60))
    def test_matches_naive_scan(self, g):
        # the lazy heap picks what a full scan per pick picks
        assert greedy_dominating_set(g) == oracles.naive_greedy_dominating_set(g.adj)

    def test_small_on_random_regular(self):
        # greedy cover of an 8-regular graph needs roughly n/9 picks or more,
        # never anywhere near n
        g = random_regular(128, 8, rng_seed=3)
        d = greedy_dominating_set(g)
        assert is_dominating(g, d)
        assert len(d) <= 128 // 3


class TestFamilySpec:
    def test_registry_names(self):
        assert set(FAMILY_NAMES) == {
            "complete",
            "path",
            "cycle",
            "star",
            "hypercube",
            "two_cliques",
            "dumbbell",
            "random_regular",
            "erdos_renyi",
            "clustered_regular",
        }

    def test_build_dispatch(self):
        g = FamilySpec("hypercube", {"d": 3}).build()
        assert g.n == 8 and g.num_edges == 12

    @pytest.mark.parametrize(
        "family, builder, params",
        [
            ("hypercube", "hypercube", {"d": 2}),
            ("two_cliques", "two_cliques_shared_vertex", {"m": 3}),
            ("random_regular", "random_regular", {"n": 8, "degree": 3, "rng_seed": 5}),
        ],
        ids=["hypercube", "two_cliques", "random_regular"],
    )
    def test_build_calls_the_module_builder(self, monkeypatch, family, builder, params):
        # a spec and an experiment's sweep point call whatever the module
        # attribute is when they build, so a wrapper set on it sees the build
        real = getattr(gmod, builder)
        calls = []

        def spy(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(gmod, builder, spy)
        FamilySpec(family, params).build()
        run_experiment(ExperimentConfig(family=family, sweep=(params,), trials=2))
        assert calls == [params, params]

    def test_unknown_family(self):
        with pytest.raises(InputError):
            FamilySpec("torus", {"n": 4})

    def test_param_mismatch(self):
        with pytest.raises(InputError):
            FamilySpec("cycle", {})
        with pytest.raises(InputError):
            FamilySpec("cycle", {"n": 5, "extra": 1})

    def test_describe_stable(self):
        spec = FamilySpec("random_regular", {"n": 8, "degree": 3, "rng_seed": 1})
        assert spec.describe() == "family=random_regular degree=3 n=8 rng_seed=1"


def test_random_helper_reaches_varied_sizes():
    from helpers import random_connected

    rand = random.Random(7)
    sizes = {random_connected(rand, rand.randint(2, 10)).n for _ in range(30)}
    assert len(sizes) >= 4
