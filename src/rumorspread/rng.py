"""Counter-based random streams for replayable simulation.

Every stream is a Philox generator keyed by the master seed with the counter
words set to (block=0, round, trial, lane). Streams for distinct
(lane, trial, round) triples never overlap because drawing only advances the
low counter word, and each triple starts from its own counter. This makes
every draw a pure function of (seed, lane, trial, round, position), so traces
can be replayed and protocol variants can be coupled on identical draws.

``Streams`` is the one place that builds a Philox generator. It puts that
generator at any address of one lane by assigning a state dict of plain
Python ints through the public ``state`` setter, which costs one to two
microseconds against about twenty for building a generator. ``at`` and
``fill`` reset it to the start of a (trial, round) stream, one trial or one
row at a time; ``stream`` is a fresh generator at one such address.

A sequential stream ``stream(seed, lane)`` can be read from any position as
well: Philox makes four doubles per counter step, so ``Streams.seek`` sets
the counter and drops the remainder instead of drawing every double before
the one it needs (the counter-based addressing of Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1

# Lane assignments; keep these stable, they define what a seed reproduces.
LANE_ROUND = 0  # per-round neighbor draws inside protocol runs
LANE_ORIGIN = 1  # per-trial random start node selection
LANE_SAMPLER = 2  # boundary-expansion Monte-Carlo sampling
LANE_GROWTH = 3  # one-round growth estimation


class Streams:
    """One generator that can be put at any address of lane ``lane``.

    ``at`` and ``seek`` return the same ``Generator`` every time, with its
    counter words and output buffer reset: draw from it before moving it
    again.
    """

    def __init__(self, seed: int, lane: int) -> None:
        self._bitgen = np.random.Philox(key=int(seed) & _MASK64)
        self._gen = np.random.Generator(self._bitgen)
        # plain ints: the state setter takes them faster than numpy arrays,
        # and exactly at any 64-bit value
        self._counter = [0, 0, 0, int(lane) & _MASK64]
        state = self._bitgen.state  # a fresh generator's, with an empty buffer
        state["state"] = {"counter": self._counter, "key": state["state"]["key"].tolist()}
        state["buffer"] = state["buffer"].tolist()
        self._state = state

    def at(self, trial: int, round_index: int = 0) -> np.random.Generator:
        """The generator in the state ``stream(seed, lane, trial,
        round_index)`` starts in."""
        c = self._counter
        c[0], c[1], c[2] = 0, int(round_index) & _MASK64, int(trial) & _MASK64
        self._bitgen.state = self._state
        return self._gen

    def fill(self, out: np.ndarray, trials: Iterable[int], round_index: int) -> np.ndarray:
        """Fill row i of the C-contiguous float64 array ``out`` with
        ``stream(seed, lane, trials[i], round_index).random(out.shape[1])``."""
        c, bitgen, gen, state = self._counter, self._bitgen, self._gen, self._state
        c[0], c[1] = 0, int(round_index) & _MASK64
        for row, trial in zip(out, trials):
            c[2] = trial & _MASK64
            bitgen.state = state
            gen.random(out=row)
        return out

    def seek(self, position: int) -> np.random.Generator:
        """The generator at double ``position`` (below 2**194) of
        ``stream(seed, lane).random()``, without generating the ones before:
        counter words 0-2 count blocks of four doubles, and the first
        ``position % 4`` doubles of the block are dropped."""
        step, drop = divmod(position, 4)
        c = self._counter
        c[0], c[1], c[2] = step & _MASK64, (step >> 64) & _MASK64, step >> 128
        self._bitgen.state = self._state
        if drop:
            self._bitgen.random_raw(drop)
        return self._gen


def stream(seed: int, lane: int, trial: int = 0, round_index: int = 0) -> np.random.Generator:
    """A fresh generator for the given (seed, lane, trial, round) address."""
    return Streams(seed, lane).at(trial, round_index)


def derive_seed(seed: int, *path: int) -> int:
    """A well-mixed 63-bit seed derived from a root seed and an index path.

    Used to hand independent master seeds to sub-experiments (sweep points,
    component generators) deterministically.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(2, dtype=np.uint64)[0] & (2**63 - 1))
