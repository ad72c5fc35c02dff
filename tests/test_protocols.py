"""Spreading dynamics: round semantics, traces, coupling, summaries, and the
growth/doubling diagnostics."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import connected_graphs
from helpers import child_peak_mb, random_connected
from rumorspread import (
    GrowthCheckReport,
    IncompleteSpreadError,
    InputError,
    MonteCarloSummary,
    ProtocolConfig,
    boundary,
    complete,
    cycle,
    default_max_rounds,
    doubling_times,
    dumbbell,
    first_arrival_times,
    greedy_dominating_set,
    harmonic_mass,
    hypercube,
    monte_carlo,
    path,
    pull_growth_check,
    run,
    run_restricted,
    single_round,
    star,
    write_summary_csv,
    write_trace_csv,
)
from rumorspread import expansion, protocols, rng
from rumorspread.rng import LANE_ORIGIN, LANE_ROUND, stream


class TestConfig:
    def test_variant_validation(self):
        with pytest.raises(InputError):
            ProtocolConfig(variant="flood")

    def test_empty_initial_rejected(self):
        with pytest.raises(InputError):
            ProtocolConfig(initial_informed=frozenset())

    def test_max_rounds_validation(self):
        with pytest.raises(InputError):
            ProtocolConfig(max_rounds=0)

    def test_default_cap(self):
        assert default_max_rounds(2) == 64
        assert default_max_rounds(1024) == 640


class TestSingleRuns:
    def test_pair_push(self):
        cfg = ProtocolConfig(variant="push", initial_informed=frozenset({0}))
        trace = run(complete(2), cfg)
        assert trace.informed == [1, 2]
        assert trace.t_all == 1 and trace.completed

    def test_pair_pull(self):
        cfg = ProtocolConfig(variant="pull", initial_informed=frozenset({0}))
        trace = run(complete(2), cfg)
        assert trace.t_all == 1

    def test_star_center_pull_one_round(self):
        # every leaf's only neighbor is the informed center
        cfg = ProtocolConfig(variant="pull", initial_informed=frozenset({0}))
        trace = run(star(50), cfg)
        assert trace.t_all == 1

    def test_star_center_push_needs_a_round_per_leaf(self):
        cfg = ProtocolConfig(variant="push", initial_informed=frozenset({0}), rng_seed=3)
        trace = run(star(3), cfg)
        assert trace.t_all >= 3

    def test_everything_informed_at_start(self):
        g = cycle(5)
        cfg = ProtocolConfig(initial_informed=g.node_set)
        trace = run(g, cfg)
        assert trace.t_all == 0 and trace.rounds == 0 and trace.completed

    def test_random_origin_varies_by_trial(self):
        g = cycle(32)
        cfg = ProtocolConfig(record_sets=True)
        origins = set()
        for trial in range(12):
            trace = run(g, cfg, trial)
            origins |= trace.sets[0]
        assert len(origins) >= 4

    def test_target_stopping(self):
        g = path(10)
        cfg = ProtocolConfig(initial_informed=frozenset({0}), rng_seed=1)
        trace = run(g, cfg, target={9}, stop_at_target=True)
        assert trace.t_target == trace.rounds
        assert trace.t_target >= 9  # one hop per round at most
        at_start = run(g, cfg, target={0}, stop_at_target=True)
        assert at_start.t_target == 0 and at_start.rounds == 0


class TestTraceInvariants:
    @given(connected_graphs(max_nodes=10), st.sampled_from(("push", "pull", "pushpull")), st.integers(0, 5))
    @settings(max_examples=60)
    def test_stats_match_recorded_sets(self, g, variant, seed):
        cfg = ProtocolConfig(variant=variant, rng_seed=seed, record_sets=True)
        trace = run(g, cfg)
        assert trace.sets is not None
        last = None
        for t, s in enumerate(trace.sets):
            b = boundary(g, s)
            assert trace.informed[t] == len(s)
            assert trace.boundary[t] == len(b)
            assert trace.closure[t] == len(s | b)
            assert trace.psi[t] == pytest.approx(len(s) + len(b) / 2)
            assert trace.harmonic_mass[t] == pytest.approx(
                harmonic_mass(g, s), abs=1e-9
            )
            if last is not None:
                assert last <= s  # informed only grows
                # growth happens along edges only
                for v in s - last:
                    assert any(u in last for u in g.adj[v])
            last = s
        assert trace.completed == (trace.informed[-1] == g.n)
        if trace.completed:
            assert trace.psi[-1] == g.n
            assert trace.t_all == trace.rounds

    @given(connected_graphs(max_nodes=10), st.integers(0, 5), st.sampled_from(protocols.VARIANTS))
    @settings(max_examples=60)
    @example(star(30), 3, "pull")  # psi stays 1.5 until the centre pulls from a leaf
    def test_psi_monotone_and_half_time(self, g, seed, variant):
        # doubling_times bisects both lists, which is sound only because
        # neither decreases; psi may stay put on a round that informs nobody
        cfg = ProtocolConfig(variant=variant, rng_seed=seed)
        trace = run(g, cfg)
        steps = zip(trace.psi, trace.psi[1:], trace.informed, trace.informed[1:])
        for psi_a, psi_b, inf_a, inf_b in steps:
            assert inf_a <= inf_b
            # each newly informed node leaves the boundary
            assert psi_b - psi_a >= (inf_b - inf_a) / 2
        half = g.n // 2 + 1
        if trace.t_half is not None:
            assert trace.informed[trace.t_half] >= half
            if trace.t_half > 0:
                assert trace.informed[trace.t_half - 1] < half

    def test_path_advances_one_hop_per_round(self):
        g = path(12)
        for variant in ("push", "pull", "pushpull"):
            for seed in range(4):
                cfg = ProtocolConfig(
                    variant=variant,
                    initial_informed=frozenset({0}),
                    rng_seed=seed,
                    record_sets=True,
                )
                trace = run(g, cfg)
                for t, s in enumerate(trace.sets):
                    assert max(s) <= t


class TestCoupling:
    @given(connected_graphs(max_nodes=10), st.integers(0, 9))
    @settings(max_examples=60)
    def test_pushpull_dominates_both(self, g, seed):
        traces = {}
        for variant in ("push", "pull", "pushpull"):
            cfg = ProtocolConfig(
                variant=variant,
                initial_informed=frozenset({0}),
                rng_seed=seed,
                record_sets=True,
            )
            traces[variant] = run(g, cfg)
        pp = traces["pushpull"].sets
        for variant in ("push", "pull"):
            solo = traces[variant].sets
            for t in range(len(solo)):
                combined = pp[t] if t < len(pp) else g.node_set
                assert solo[t] <= combined
            if traces["pushpull"].completed and traces[variant].completed:
                assert traces["pushpull"].t_all <= traces[variant].t_all

    def test_single_round_matches_oracle(self):
        rand = random.Random(3)
        from helpers import random_connected

        for case in range(30):
            g = random_connected(rand, rand.randint(2, 10))
            k = rand.randint(1, g.n - 1)
            informed = frozenset(rand.sample(range(g.n), k))
            variant = ("push", "pull", "pushpull")[case % 3]
            u = stream(1000 + case, 0).random(g.n)
            draws = {
                v: g.adj[v][min(int(u[v] * len(g.adj[v])), len(g.adj[v]) - 1)]
                for v in range(g.n)
            }
            want = oracles.naive_round(g.adj, informed, draws, variant)
            got = single_round(g, informed, variant, stream(1000 + case, 0))
            assert got == want


class TestDrawAndStep:
    def test_top_uniform_floors_below_every_degree(self):
        # numpy's random() tops out at 1 - 2**-53, whose product with an
        # integer d < 2**53 rounds below d: floor(u * d) <= d - 1, so _draw
        # needs no clamp
        top = np.nextafter(1.0, 0.0)
        assert top == 1.0 - 2.0**-53
        for lo in range(1, 2**22, 2**20):
            d = np.arange(lo, lo + 2**20, dtype=np.int64)
            assert ((top * d).astype(np.int64) == d - 1).all()
        edges = sorted({2**k + j for k in range(1, 53) for j in (-1, 0, 1)})
        d = np.array(edges, dtype=np.int64)
        assert d[-1] == 2**52 + 1
        assert ((top * d).astype(np.int64) == d - 1).all()

    @pytest.mark.parametrize(
        "g",
        [star(2**12), cycle(9), complete(6), random_connected(random.Random(2), 30)],
        ids=["star", "cycle", "complete", "random"],
    )
    def test_top_uniform_draws_the_last_neighbour(self, g):
        indptr, indices = g.csr
        u = np.full((3, g.n), np.nextafter(1.0, 0.0))
        drawn = protocols._draw(u, indptr, indices, np.diff(indptr).astype(np.float64))
        assert (drawn == indices[indptr[1:] - 1]).all()

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(1, 3),
        st.sampled_from(protocols.VARIANTS),
        st.booleans(),
    )
    def test_step_matches_oracle(self, seed, n, rows, variant, restricted):
        # rows of one batch laid out flat, each row's draws offset by its
        # position; when restricted, only active nodes whose draw
        # participates make contact
        rand = random.Random(seed)
        g = random_connected(rand, n)
        density = [rand.random() for _ in range(rows)]
        informed = np.array([rand.random() < p for p in density for _ in range(n)])
        draws = [rand.choice(g.adj[v]) for _ in range(rows) for v in range(n)]
        drawn = np.array(draws) + np.repeat(np.arange(rows) * n, n)
        drawers = None
        if restricted:
            part = frozenset(v for v in range(n) if rand.random() < 0.7)
            active = frozenset(v for v in part if rand.random() < 0.7)
            drawers = np.array([i % n in active and d in part for i, d in enumerate(draws)])
        given_arrays = informed.copy(), drawn.copy()
        add = protocols._step(informed, drawn, variant, drawers)
        assert (informed == given_arrays[0]).all() and (drawn == given_arrays[1]).all()
        assert add.dtype == bool and not (add & informed).any()
        for r in range(rows):
            row = slice(r * n, (r + 1) * n)
            start = set(np.flatnonzero(informed[row]).tolist())
            got = start | set(np.flatnonzero(add[row]).tolist())
            contacts = {
                v: d for v, d in enumerate(draws[row]) if drawers is None or drawers[row][v]
            }
            assert got == oracles.naive_round(g.adj, start, contacts, variant)
            if restricted and variant == "pushpull":
                want = oracles.naive_restricted_round(
                    g.adj, start, dict(enumerate(draws[row])), active, part
                )
                assert got == want


class TestRestrictedRuns:
    def test_unrestricted_equals_plain_pushpull(self):
        from helpers import random_connected

        g = random_connected(random.Random(5), 12)
        cfg = ProtocolConfig(rng_seed=7, record_sets=True)
        direct = run(
            g,
            ProtocolConfig(
                initial_informed=frozenset({2}), rng_seed=7, record_sets=True
            ),
        )
        restricted = run_restricted(
            g, {0}, 2, cfg, participating=g.node_set, active=g.node_set
        )
        assert restricted.informed == direct.informed
        assert restricted.boundary == direct.boundary

    def test_informed_stays_participating(self):
        from helpers import random_connected

        g = random_connected(random.Random(6), 14)
        part = frozenset(range(10))
        act = frozenset(range(6))
        cfg = ProtocolConfig(rng_seed=2, record_sets=True, max_rounds=40)
        trace = run_restricted(g, {9}, 0, cfg, participating=part, active=act)
        for s in trace.sets:
            assert s <= part

    def test_rounds_match_oracle(self):
        from helpers import random_connected

        rand = random.Random(8)
        passive_informed = 0
        for case in range(30):
            g = random_connected(rand, rand.randint(4, 14))
            part = frozenset(rand.sample(range(g.n), rand.randint(2, g.n)))
            act = frozenset(rand.sample(sorted(part), rand.randint(1, len(part))))
            origin = rand.choice(sorted(act))
            cfg = ProtocolConfig(rng_seed=case, record_sets=True, max_rounds=12)
            trace = run_restricted(
                g, {g.n - 1}, origin, cfg, participating=part, active=act
            )
            for t in range(1, len(trace.sets)):
                u = stream(case, LANE_ROUND, 0, t).random(g.n)
                draws = {
                    v: g.adj[v][min(int(u[v] * len(g.adj[v])), len(g.adj[v]) - 1)]
                    for v in range(g.n)
                }
                want = oracles.naive_restricted_round(
                    g.adj, trace.sets[t - 1], draws, act, part
                )
                assert trace.sets[t] == want
            passive_informed += len(trace.sets[-1] - act)
        assert passive_informed > 0

    def test_ignores_config_variant_and_start(self):
        # a restricted run is pushpull from its origin whatever the config
        # says: the kernel builds its start set from a copy of the config
        from helpers import random_connected

        g = random_connected(random.Random(3), 13)
        part = frozenset(range(1, 12))
        act = frozenset(range(1, 8))
        base = ProtocolConfig(rng_seed=5, record_sets=True, max_rounds=20)
        want = repr(run_restricted(g, {11}, 2, base, part, act))
        for variant in ("push", "pull"):
            cfg = dataclasses.replace(
                base, variant=variant, initial_informed=frozenset({0, 9})
            )
            assert repr(run_restricted(g, {11}, 2, cfg, part, act)) == want

    def test_validation(self):
        g = cycle(6)
        cfg = ProtocolConfig()
        with pytest.raises(InputError):
            run_restricted(g, {0}, 1, cfg, participating={1, 2}, active={1, 3})
        with pytest.raises(InputError):
            run_restricted(g, {0}, 5, cfg, participating={1, 2}, active={1})


class TestMonteCarlo:
    def test_summary_shapes_and_determinism(self):
        g = cycle(12)
        cfg = ProtocolConfig(rng_seed=4)
        a, _ = monte_carlo(g, cfg, 25)
        b, _ = monte_carlo(g, cfg, 25)
        assert a.t_all == b.t_all and a.t_half == b.t_half
        assert a.trials == 25 and a.completed_count == 25
        assert a.median_t_all >= 1

    def test_incomplete_runs_fold_into_quantiles(self):
        g = path(16)
        cfg = ProtocolConfig(
            variant="push", initial_informed=frozenset({0}), max_rounds=3, rng_seed=0
        )
        summary, _ = monte_carlo(g, cfg, 10)
        assert summary.completed_count == 0
        assert math.isinf(summary.quantile_t_all(0.5))
        assert all(t is None for t in summary.t_all)

    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 40)), min_size=1, max_size=300),
        st.one_of(st.floats(0, 1), st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])),
    )
    @settings(max_examples=300)
    @example([3, None, 1, None], 0.5)
    @example([None, None, 2], 0.9)
    @example(list(range(10)), 0.9)
    def test_quantile_is_numpys_inverted_cdf(self, t_all, q):
        summary = MonteCarloSummary(len(t_all), t_all, t_all, [t is not None for t in t_all])
        values = [math.inf if t is None else t for t in t_all]
        got = summary.quantile_t_all(q)
        assert type(got) is float
        assert got == float(np.quantile(values, q, method="inverted_cdf"))

    def test_trials_validation(self):
        with pytest.raises(InputError):
            monte_carlo(cycle(4), ProtocolConfig(), 0)

    def test_one_generator_per_lane(self, monkeypatch):
        # the round and origin sources each build one generator per call and
        # reset it per (trial, round) row, never one per round or per trial
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        cfg = ProtocolConfig(rng_seed=3)
        want, _ = monte_carlo(hypercube(4), cfg, 1000)
        monkeypatch.setattr(np.random, "Philox", counting)
        got, _ = monte_carlo(hypercube(4), cfg, 1000)
        assert len(built) <= 2
        assert got == want


def replay(g, cfg, trial):
    """(t_half, t_all, completed) of one trial, replayed round by round with
    the oracle round rule on draws read from the trial's own streams."""
    n = g.n
    if cfg.initial_informed is None:
        informed = {int(stream(cfg.rng_seed, LANE_ORIGIN, trial).integers(n))}
    else:
        informed = set(cfg.initial_informed)
    cap = cfg.max_rounds if cfg.max_rounds is not None else default_max_rounds(n)
    t_half = t_all = None
    t = 0
    while True:
        if t_half is None and len(informed) >= n // 2 + 1:
            t_half = t
        if len(informed) == n:
            t_all = t
            break
        if t == cap:
            break
        t += 1
        u = stream(cfg.rng_seed, LANE_ROUND, trial, t).random(n)
        draws = {
            v: g.adj[v][min(int(u[v] * len(g.adj[v])), len(g.adj[v]) - 1)]
            for v in range(n)
        }
        informed = oracles.naive_round(g.adj, informed, draws, cfg.variant)
    return t_half, t_all, t_all is not None


def kernel_configs():
    """Three variants from random, explicit and dominating starts on small
    graphs, with the default cap and with a cap that stops some trials."""
    from helpers import random_connected

    graphs = [cycle(12), dumbbell(4), star(9), hypercube(4), random_connected(random.Random(4), 11)]
    for k, g in enumerate(graphs):
        starts = (None, frozenset({0, g.n - 1}), greedy_dominating_set(g))
        for variant in ("push", "pull", "pushpull"):
            for start in starts:
                for cap in (None, 3):
                    cfg = ProtocolConfig(
                        variant=variant, initial_informed=start, max_rounds=cap, rng_seed=k
                    )
                    yield g, cfg


class TestRoundKernel:
    def test_summaries_match_replay(self):
        incomplete = 0
        for g, cfg in kernel_configs():
            summary, _ = monte_carlo(g, cfg, 6)
            for trial in range(6):
                want = replay(g, cfg, trial)
                assert (summary.t_half[trial], summary.t_all[trial], summary.completed[trial]) == want
            incomplete += summary.trials - summary.completed_count
        assert incomplete > 0  # the small cap does stop trials

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_block_size_changes_nothing(self, monkeypatch, rows):
        g = dumbbell(4)
        for start in (None, frozenset({3})):
            for variant in ("push", "pull", "pushpull"):
                cfg = ProtocolConfig(
                    variant=variant, initial_informed=start, rng_seed=2, record_sets=True
                )
                whole, whole_traces = monte_carlo(g, cfg, 11, keep_traces=True)
                with monkeypatch.context() as m:
                    m.setattr(expansion, "_BLOCK_ELEMENTS", rows * g.n)
                    blocked, blocked_traces = monte_carlo(g, cfg, 11, keep_traces=True)
                assert repr(blocked) == repr(whole)
                assert repr(blocked_traces) == repr(whole_traces)
        # the growth check's one sequential stream is cut into the same blocks
        whole_growth = pull_growth_check(g, {0, 1}, 23, rng_seed=6)
        monkeypatch.setattr(expansion, "_BLOCK_ELEMENTS", rows * g.n)
        assert repr(pull_growth_check(g, {0, 1}, 23, rng_seed=6)) == repr(whole_growth)

    def test_harmonic_mass_float_order(self):
        # each round adds one numpy sum over the trial's new nodes in
        # ascending order; with more than eight new nodes a sum over a masked
        # row of all n nodes rounds differently
        from helpers import random_connected

        for seed in range(3):
            g = random_connected(random.Random(seed), 120, extra=0.05)
            cfg = ProtocolConfig(rng_seed=seed, record_sets=True)
            _, traces = monte_carlo(g, cfg, 3, keep_traces=True)
            for trace in traces:
                running, want, prev = 0.0, [], frozenset()
                for s in trace.sets:
                    new = sorted(s - prev)
                    if new:
                        running += float(np.array([1.0 / len(g.adj[v]) for v in new]).sum())
                    want.append(running)
                    prev = s
                assert repr(trace.harmonic_mass) == repr(want)

    def test_kept_traces_equal_single_runs(self):
        for g, cfg in kernel_configs():
            cfg = dataclasses.replace(cfg, record_sets=True)
            summary, traces = monte_carlo(g, cfg, 4, keep_traces=True)
            assert len(traces) == 4
            for trial, got in enumerate(traces):
                want = run(g, cfg, trial)
                for field in (
                    "informed", "boundary", "closure", "sets",
                    "t_half", "t_all", "completed", "t_target",
                ):
                    assert getattr(got, field) == getattr(want, field), field
                assert repr(got.psi) == repr(want.psi)
                assert repr(got.harmonic_mass) == repr(want.harmonic_mass)
                assert (got.t_half, got.t_all, got.completed) == (
                    summary.t_half[trial], summary.t_all[trial], summary.completed[trial]
                )


class TestFirstArrival:
    def test_deterministic_and_plausible(self):
        g = cycle(20)
        a = first_arrival_times(g, {0}, {10}, "pushpull", 300, rng_seed=1)
        b = first_arrival_times(g, {0}, {10}, "pushpull", 300, rng_seed=1)
        assert np.array_equal(a, b)
        assert a.min() >= 10  # distance bound: one hop per round

    def test_zero_when_already_there(self):
        g = cycle(6)
        times = first_arrival_times(g, {0, 3}, {3}, "push", 5, rng_seed=0)
        assert np.array_equal(times, np.zeros(5, dtype=np.int64))

    def test_incomplete_raises(self):
        g = path(10)
        with pytest.raises(IncompleteSpreadError):
            first_arrival_times(
                g, {0}, {9}, "push", 8, rng_seed=0, max_rounds=3
            )

    def test_validation(self):
        g = cycle(6)
        with pytest.raises(InputError, match="known"):
            first_arrival_times(g, {0}, {1}, "flood", 5, rng_seed=0)
        with pytest.raises(InputError):
            first_arrival_times(g, set(), {1}, "push", 5, rng_seed=0)

    @staticmethod
    def outcome(fn, *args, **kwargs):
        """The array a call returns, or the type and text of what it raises."""
        try:
            return fn(*args, **kwargs).tolist()
        except (IncompleteSpreadError, InputError) as exc:
            return type(exc).__name__, str(exc)

    def assert_matches_naive_loop(self, *args, **kwargs):
        want = self.outcome(oracles.naive_first_arrival_times, *args, **kwargs)
        assert self.outcome(first_arrival_times, *args, **kwargs) == want
        return want

    @pytest.mark.parametrize("variant", ["push", "pull", "pushpull"])
    @pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 8193])
    def test_matches_naive_loop_across_batches(self, variant, trials):
        # batches of 4096 trials, the later ones starting where the earlier
        # ones' last round left the sampler stream
        self.assert_matches_naive_loop(dumbbell(3), {0}, {5}, variant, trials, rng_seed=9)
        self.assert_matches_naive_loop(
            cycle(9), {0, 1}, {4, 6}, variant, trials, rng_seed=-3
        )

    @pytest.mark.parametrize("variant", ["push", "pull", "pushpull"])
    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_sub_blocks_change_nothing(self, monkeypatch, variant, rows):
        # a batch runs as kernel blocks of _BLOCK_ELEMENTS // n rows, each
        # seeking its rows' uniforms in the batch's stream layout
        g = dumbbell(4)
        trials = 300 if rows == 1 else 4500
        monkeypatch.setattr(expansion, "_BLOCK_ELEMENTS", rows * g.n)
        self.assert_matches_naive_loop(g, {1}, {6, 7}, variant, trials, rng_seed=2)

    @pytest.mark.parametrize("variant", ["push", "pull", "pushpull"])
    def test_caps_match_naive_loop(self, variant):
        # caps at and just below each batch's last arrival: raising or not,
        # and the count of trials the message names, follow the naive loop
        g = path(8)
        args = (g, {0}, {7}, variant, 8192)
        times = np.array(oracles.naive_first_arrival_times(*args, rng_seed=5))
        caps = {int(times[:4096].max()), int(times[4096:].max())}
        caps |= {c - 1 for c in caps}
        raised = set()
        for cap in sorted(caps):
            got = self.assert_matches_naive_loop(*args, rng_seed=5, max_rounds=cap)
            raised.add(got[0] == "IncompleteSpreadError")
        assert raised == {True, False}

    def test_capped_batches_block_split(self, monkeypatch):
        g = path(8)
        monkeypatch.setattr(expansion, "_BLOCK_ELEMENTS", 100 * g.n)
        for cap in (7, 9, 12):
            self.assert_matches_naive_loop(g, {0}, {7}, "push", 500, rng_seed=1, max_rounds=cap)

    @pytest.mark.parametrize("cap", [0, -1, -2])
    @pytest.mark.parametrize("start", [{0}, {0, 3}], ids=["disjoint", "overlapping"])
    def test_non_positive_cap_is_an_input_error(self, cap, start):
        # checked by ProtocolConfig, as for every other run, also where the
        # start set already meets the watched set
        with pytest.raises(InputError, match=f"^max_rounds must be >= 1, got {cap}$"):
            first_arrival_times(cycle(6), start, {3, 4}, "push", 5000, rng_seed=0, max_rounds=cap)

    @pytest.mark.parametrize("cap", [None, 1])
    def test_zero_when_start_meets_watched_whatever_the_cap(self, cap):
        times = first_arrival_times(cycle(6), {0, 3}, {3, 4}, "pull", 5, rng_seed=0, max_rounds=cap)
        assert np.array_equal(times, np.zeros(5, dtype=np.int64))
        self.assert_matches_naive_loop(cycle(6), {0, 3}, {3, 4}, "pull", 5, rng_seed=0, max_rounds=cap)

    def test_seeks_past_finished_rows(self, monkeypatch):
        # dumbbell(6) push: most trials arrive within a few rounds, so the
        # later rounds' live rows fall into many runs, one seek each; seeking
        # past every gap or past none reads the same uniforms
        args = (dumbbell(6), {0}, {11}, "push", 9000)
        want = self.assert_matches_naive_loop(*args, rng_seed=5)
        seek, default = rng.Streams.seek, protocols._SEEK_DOUBLES
        seeks = {}
        for doubles in (1, default, 10**9):
            calls = []

            def counting(streams, position):
                calls.append(position)
                return seek(streams, position)

            monkeypatch.setattr(rng.Streams, "seek", counting)
            monkeypatch.setattr(protocols, "_SEEK_DOUBLES", doubles)
            assert self.outcome(first_arrival_times, *args, rng_seed=5) == want
            seeks[doubles] = len(calls)
        assert seeks[1] > seeks[default] > 2 * seeks[10**9]

    def test_peak_memory_bounded_by_block(self):
        # the (trials, n) arrays are stepped in kernel blocks of 2**20
        # elements rather than as one 4096-row batch (382 MB before), and
        # the draw reuses its uniforms and one int64 array (about 65 MB in
        # all; 198 MB with blocks of 2**22 and a draw that allocates).
        assert child_peak_mb(
            "rs.first_arrival_times(rs.hypercube(11), {0}, {1}, 'pushpull', 4096, 7)"
        ) < 120


class TestGrowthCheck:
    def test_cycle_instance(self):
        rep = pull_growth_check(cycle(6), {0}, trials=4000, rng_seed=2)
        assert isinstance(rep, GrowthCheckReport)
        assert rep.floor == pytest.approx(1.0)  # h = 1/2 times boundary 2
        assert rep.boundary_size == 2
        assert rep.passed
        assert rep.mean_growth >= rep.floor - 4 * rep.stderr

    def test_dominating_set_short_circuit(self):
        rep = pull_growth_check(star(8), {0}, trials=10, rng_seed=0)
        assert rep.mean_growth == 0.0 and rep.floor == 0.0 and rep.passed

    def test_deterministic(self):
        a = pull_growth_check(dumbbell(4), {0}, trials=500, rng_seed=3)
        b = pull_growth_check(dumbbell(4), {0}, trials=500, rng_seed=3)
        assert a.mean_growth == b.mean_growth and a.stderr == b.stderr

    def test_validation(self):
        with pytest.raises(InputError):
            pull_growth_check(cycle(6), {0}, trials=1, rng_seed=0)
        with pytest.raises(InputError):
            pull_growth_check(cycle(6), set(range(6)), trials=10, rng_seed=0)


class TestDoubling:
    def test_pair_frozen(self):
        cfg = ProtocolConfig(variant="push", initial_informed=frozenset({0}))
        trace = run(complete(2), cfg)
        assert doubling_times(trace) == [(0, 1)]

    def test_structure_on_larger_runs(self):
        cfg = ProtocolConfig(initial_informed=frozenset({0}), rng_seed=5)
        trace = run(cycle(32), cfg)
        checkpoints = doubling_times(trace)
        times = [t for t, _ in checkpoints]
        assert times[0] == 0
        assert times == sorted(set(times))
        for t, window in checkpoints:
            assert window >= 0
            assert t + window <= trace.rounds

    @given(
        connected_graphs(max_nodes=12),
        st.sampled_from(protocols.VARIANTS),
        st.integers(0, 50),
        st.one_of(st.none(), st.sets(st.integers(0, 11), min_size=1, max_size=3)),
    )
    @settings(max_examples=200)
    @example(star(30), "pull", 3, {1})  # psi 1.5, 1.5, 1.5, 1.5, 16.5, 31.0
    @example(path(12), "push", 0, {0})
    def test_matches_naive_scan(self, g, variant, seed, start):
        initial = None if start is None else frozenset(v % g.n for v in start)
        cfg = ProtocolConfig(variant=variant, initial_informed=initial, rng_seed=seed)
        trace = run(g, cfg)
        assert trace.completed
        expected = oracles.naive_doubling_times(trace.psi, trace.informed)
        assert doubling_times(trace) == expected

    def test_requires_completed(self):
        cfg = ProtocolConfig(
            variant="push", initial_informed=frozenset({0}), max_rounds=2
        )
        trace = run(path(16), cfg)
        assert not trace.completed
        with pytest.raises(InputError):
            doubling_times(trace)


class TestCsvOutput:
    def test_trace_csv(self, tmp_path):
        g = cycle(8)
        cfg = ProtocolConfig(rng_seed=1)
        summary, traces = monte_carlo(g, cfg, 3, keep_traces=True)
        out = tmp_path / "trace.csv"
        write_trace_csv(traces, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,round,informed,boundary,closure,psi,harmonic_mass"
        assert len(lines) == 1 + sum(len(tr.informed) for tr in traces)
        assert lines[1].startswith("0,0,1,2,3,2,")

    def test_summary_csv_blanks_for_incomplete(self, tmp_path):
        g = path(16)
        cfg = ProtocolConfig(
            variant="push", initial_informed=frozenset({0}), max_rounds=2
        )
        summary, _ = monte_carlo(g, cfg, 2)
        out = tmp_path / "summary.csv"
        write_summary_csv(summary, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,t_half,t_all,completed"
        assert lines[1] == "0,,,0"

    def test_byte_identical_reruns(self, tmp_path):
        g = dumbbell(3)
        cfg = ProtocolConfig(rng_seed=9)
        for name in ("a", "b"):
            summary, traces = monte_carlo(g, cfg, 5, keep_traces=True)
            write_trace_csv(traces, str(tmp_path / f"{name}_trace.csv"))
            write_summary_csv(summary, str(tmp_path / f"{name}_summary.csv"))
        assert (tmp_path / "a_trace.csv").read_bytes() == (
            tmp_path / "b_trace.csv"
        ).read_bytes()
        assert (tmp_path / "a_summary.csv").read_bytes() == (
            tmp_path / "b_summary.csv"
        ).read_bytes()
