"""Counter-based random streams: determinism and separation."""

import numpy as np
import pytest

from rumorspread import derive_seed, stream
from rumorspread.rng import (
    LANE_GROWTH,
    LANE_ORIGIN,
    LANE_ROUND,
    LANE_SAMPLER,
    fill_streams,
    streams,
)


def test_stream_deterministic():
    a = stream(5, LANE_ROUND, trial=2, round_index=7).random(8)
    b = stream(5, LANE_ROUND, trial=2, round_index=7).random(8)
    assert np.array_equal(a, b)


def test_streams_separate_by_every_coordinate():
    base = stream(5, LANE_ROUND, trial=2, round_index=7).random(8)
    for other in (
        stream(6, LANE_ROUND, trial=2, round_index=7),
        stream(5, LANE_ORIGIN, trial=2, round_index=7),
        stream(5, LANE_ROUND, trial=3, round_index=7),
        stream(5, LANE_ROUND, trial=2, round_index=8),
    ):
        assert not np.array_equal(base, other.random(8))


def test_lanes_distinct_constants():
    assert len({LANE_ROUND, LANE_ORIGIN, LANE_SAMPLER, LANE_GROWTH}) == 4


def test_derive_seed_frozen_values():
    # pinned so cross-version drift in the underlying hash would be caught
    assert derive_seed(0, 0) == 8668861027912758289
    assert derive_seed(0, 1) == 4881901421217228719
    assert derive_seed(7, 3, 0) == 4775507545189199834
    assert derive_seed(7, 3, 1) == 5432562961112088440


def test_derive_seed_range_and_spread():
    seeds = {derive_seed(1, i) for i in range(200)}
    assert len(seeds) == 200
    assert all(0 <= s < 2**63 for s in seeds)


def test_stream_values_frozen():
    got = stream(42, LANE_ROUND, trial=1, round_index=2).random(3)
    want = np.array(
        [0.32412879649152826, 0.28827475557576876, 0.4019783721225292]
    )
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 42, -1, 2**63 + 5, 2**70])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 33, 4096])
def test_fill_streams_rows_equal_streams(seed, n):
    # 2**64 + 3 wraps to trial 3 under the 64-bit counter mask
    trials = [0, 7, 2**64 + 3]
    for lane, round_index in ((LANE_ROUND, 5), (LANE_SAMPLER, 0), (LANE_ROUND, 2**64 + 1)):
        want = np.array([stream(seed, lane, t, round_index).random(n) for t in trials])
        got = fill_streams(np.empty((3, n)), seed, lane, trials, round_index)
        assert np.array_equal(got, want)
        assert np.array_equal(got[2], stream(seed, lane, 3, round_index).random(n))
        # rows filled out of order and over stale contents give the same
        # values: nothing buffered carries from one row into the next
        order = [2, 0, 1]
        shuffled = fill_streams(
            np.full((3, n), np.nan), seed, lane, [trials[i] for i in order], round_index
        )
        assert np.array_equal(shuffled, want[order])


@pytest.mark.parametrize("seed", [0, 1, -1, 2**63 + 5, 2**70])
def test_streams_draw_what_fresh_streams_draw(seed):
    trials = [0, 1, 7, 2**64 + 3, 5]
    for high in (2, 3, 17, 64, 4096, 2**33):
        want = [int(stream(seed, LANE_ORIGIN, t).integers(high)) for t in trials]
        got = [int(gen.integers(high)) for gen in streams(seed, LANE_ORIGIN, trials)]
        assert got == want
