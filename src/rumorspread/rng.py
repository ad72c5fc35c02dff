"""Counter-based random streams for replayable simulation.

Every stream is a Philox generator keyed by the master seed with the counter
words set to (block=0, round, trial, lane). Streams for distinct
(lane, trial, round) triples never overlap because drawing only advances the
low counter word, and each triple starts from its own counter: ``stream``
builds a fresh generator, ``streams`` resets one generator to that same
state for each trial of a batch, and ``fill_streams`` fills one row per
trial from it. This makes every draw a pure function of
(seed, lane, trial, round, position), so traces can be replayed and protocol
variants can be coupled on identical draws.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# Lane assignments; keep these stable, they define what a seed reproduces.
LANE_ROUND = 0  # per-round neighbor draws inside protocol runs
LANE_ORIGIN = 1  # per-trial random start node selection
LANE_SAMPLER = 2  # boundary-expansion Monte-Carlo sampling
LANE_GROWTH = 3  # one-round growth estimation


def stream(seed: int, lane: int, trial: int = 0, round_index: int = 0) -> np.random.Generator:
    """A fresh generator for the given (seed, lane, trial, round) address."""
    counter = [0, round_index & _MASK64, trial & _MASK64, lane & _MASK64]
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64, counter=counter))


def streams(
    seed: int, lane: int, trials: Iterable[int], round_index: int = 0
) -> Iterator[np.random.Generator]:
    """For each trial in turn, one generator in the state that
    ``stream(seed, lane, trial, round_index)`` starts in.

    It is the same generator every time: its counter words and output
    buffer are reset through the public ``state`` setter, which costs a
    fraction of building a generator per trial. Draw from it before asking
    for the next trial.
    """
    bitgen = np.random.Philox(key=int(seed) & _MASK64)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    counter[:] = [0, round_index & _MASK64, 0, lane & _MASK64]
    for trial in trials:
        counter[2] = trial & _MASK64
        bitgen.state = state
        yield gen


def fill_streams(
    out: np.ndarray, seed: int, lane: int, trials: Iterable[int], round_index: int = 0
) -> np.ndarray:
    """Fill row i of the C-contiguous float64 array ``out`` with
    ``stream(seed, lane, trials[i], round_index).random(out.shape[1])``."""
    for row, gen in zip(out, streams(seed, lane, trials, round_index)):
        gen.random(out=row)
    return out


def derive_seed(seed: int, *path: int) -> int:
    """A well-mixed 63-bit seed derived from a root seed and an index path.

    Used to hand independent master seeds to sub-experiments (sweep points,
    component generators) deterministically.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(2, dtype=np.uint64)[0] & (2**63 - 1))
