"""Synchronous randomized rumor spreading engines.

All variants share one round structure: at the start of a round every node
draws one uniform random neighbor, then

* ``push``: informed nodes send the rumor along their draw,
* ``pull``: uninformed nodes request the rumor along their draw,
* ``pushpull``: informed nodes push along their draw and uninformed nodes
  pull along theirs.

A request succeeds only if the drawn neighbor was informed at the start of
the round, so information never travels two hops in one round. Draws are a
pure function of (rng_seed, trial, round, node id), which makes traces
byte-replayable and lets different variants run coupled on identical draws.

One round kernel, ``_spread``, runs a range of trials on a (trials x nodes)
informed mask, builds their start sets from the config, and takes each
round's uniforms from a source it is given; ``run`` and ``run_restricted``
are ranges of one trial. Boundary, harmonic mass and informed sets are
tracked only when traces are returned.

One budget, ``expansion._BLOCK_ELEMENTS`` (2^20 elements), bounds the
largest array of every block on the spread path: the kernel steps its trials
in blocks of (rows x n), ``pull_growth_check`` draws its trials in blocks of
(trials x n), and ``expansion.boundary_expansion_mc`` its samples in blocks
of (samples x max(|boundary|, |second shell| + 1)), the hit count's product
having at most one column per second-shell node plus one. Every draw is
addressed by its trial and round, or by its position in a sequential stream,
so no block size ever changes a result.

Each source builds one ``rng.Streams`` generator per kernel call, and
``_starts`` one per block; they reset it per (trial, round) row.

``first_arrival_times`` and ``pull_growth_check`` instead read one sequential
stream, so their results are fixed by their arguments and seed; the batch
size of ``first_arrival_times`` is part of what its seed reproduces. It
still steps through ``_spread``, one batch of ``_ARRIVAL_BATCH`` trials per
call: its source seeks each round's uniforms by their position in the
sampler stream, once per run of live rows, so finished trials are neither
stepped nor, past a short gap, drawn.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Collection, Sequence

import numpy as np

from . import rng
from .errors import IncompleteSpreadError, InputError
from .expansion import _block_rows, _BoundaryHits, boundary_expansion_exact
from .graph import Graph, NodeSet, _closure, _mask, _neighbour_lists, _proper_subset

VARIANTS = ("push", "pull", "pushpull")
# Trials per first_arrival_times batch; the batch size decides which sampler
# draws each trial gets, so changing it changes the results.
_ARRIVAL_BATCH = 4096
# A first_arrival_times round seeks past a gap of finished rows wider than
# this many doubles and generates the doubles of a narrower one: a run's seek
# and fill call cost about as much as generating 400 doubles. Seeking never
# changes a result.
_SEEK_DOUBLES = 384

# Fills out[:len(trials)] with round t's uniforms of the trial ids ``trials``
# (ascending) and returns that slice; it may use the rest of ``out`` as
# scratch.
_UniformSource = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


def default_max_rounds(n: int) -> int:
    """Round cap used when the config leaves it unset: 64 * ceil(log2 n)."""
    return 64 * max(1, math.ceil(math.log2(n)))


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}; known: {VARIANTS}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters for a spreading simulation.

    ``initial_informed=None`` means each trial starts from a single uniformly
    random node (chosen deterministically from the trial's stream).
    """

    variant: str = "pushpull"
    initial_informed: NodeSet | None = None
    max_rounds: int | None = None
    rng_seed: int = 0
    record_sets: bool = False

    def __post_init__(self) -> None:
        _check_variant(self.variant)
        if self.initial_informed is not None and len(self.initial_informed) == 0:
            raise InputError("initial_informed must be nonempty when given")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise InputError(f"max_rounds must be >= 1, got {self.max_rounds}")


@dataclass
class SpreadTrace:
    """Per-round history of one run.

    Index t holds the state after t rounds; index 0 is the initial state.
    ``psi`` is the informed count plus half the boundary count, a progress
    potential that reaches n exactly at completion. It never decreases: a
    newly informed node leaves the boundary, so psi rises by at least 1/2
    per node informed, and it stays put on a round that informs nobody.
    """

    informed: list[int]
    boundary: list[int]
    closure: list[int]
    psi: list[float]
    harmonic_mass: list[float]
    sets: list[NodeSet] | None
    t_half: int | None
    t_all: int | None
    completed: bool
    t_target: int | None = None

    @property
    def rounds(self) -> int:
        return len(self.informed) - 1


@dataclass
class MonteCarloSummary:
    """Per-trial completion times plus aggregate statistics.

    ``t_all`` entries are None for trials that hit the round cap; quantiles
    treat those as +inf, so a reported quantile is finite only when enough
    trials completed.
    """

    trials: int
    t_half: list[int | None]
    t_all: list[int | None]
    completed: list[bool]

    @property
    def completed_count(self) -> int:
        return sum(self.completed)

    def _t_all_array(self) -> np.ndarray:
        return np.array(
            [math.inf if t is None else float(t) for t in self.t_all], dtype=float
        )

    def quantile_t_all(self, q: float) -> float:
        # the order statistic of rank ceil(k q), as numpy's "inverted_cdf"
        # gives it: the midpoint interpolation of two infinities would yield nan
        k = len(self.t_all)
        ranked = sorted(math.inf if t is None else t for t in self.t_all)
        return float(ranked[min(k - 1, max(0, math.ceil(k * q) - 1))])

    @property
    def median_t_all(self) -> float:
        return self.quantile_t_all(0.5)

    @property
    def mean_t_all(self) -> float:
        return float(self._t_all_array().mean())


def _draw(
    u: np.ndarray, indptr: np.ndarray, indices: np.ndarray, degs: np.ndarray
) -> np.ndarray:
    """Drawn neighbor of every node, from uniforms ``u`` in [0, 1) laid out
    node by node along the last axis: slot floor(u * deg) of its CSR row,
    ``degs`` holding the degrees as float64.

    Overwrites ``u`` with u * deg, and turns one int64 array of its shape
    into the slots, their CSR positions and the drawn nodes in turn. No slot
    needs clamping to deg - 1: the largest uniform is 1 - 2^-53, and
    (1 - 2^-53) * d rounds to a float below d for every integer d < 2^53, so
    its floor is at most d - 1. Every position thus lies in its node's row,
    so mode "clip" never clips; unlike "raise", it lets ``take`` write over
    its own index array without a buffer of the same size.
    """
    u *= degs
    slots = u.astype(np.int64)
    slots += indptr[:-1]
    return np.take(indices, slots, out=slots, mode="clip")


def _step(
    informed: np.ndarray,
    drawn: np.ndarray,
    variant: str,
    drawers: np.ndarray | None = None,
) -> np.ndarray:
    """Mask of the nodes one round informs, under round-start semantics.

    Arrays are flat: position i holds one node of one trial and ``drawn[i]``
    the position of its draw, so a batch of trials is laid out row after row
    with each row's offset added to ``drawn``. Only positions set in
    ``drawers`` (default: all) make contact: an informed drawer pushes, an
    uninformed drawer pulls.

    The pull gather (is each drawer's draw informed?) is the mask the pushes
    are scattered into, and the nodes informed already are cleared from it in
    place, so a round makes one gather, one scatter and one compare.
    """
    if variant == "push":
        add = np.zeros_like(informed)
    else:
        add = informed[drawn]
        if drawers is not None:
            add &= drawers
    if variant != "pull":
        add[drawn[informed if drawers is None else informed & drawers]] = True
    return np.greater(add, informed, out=add)


def _starts(g: Graph, cfg: ProtocolConfig, trials: range) -> np.ndarray:
    """(len(trials), n) start masks: ``cfg.initial_informed`` on every row, or
    one origin per trial drawn from that trial's origin stream."""
    if cfg.initial_informed is not None:
        mask = _mask(g.n, g.check_set(cfg.initial_informed))
        return np.tile(mask, (len(trials), 1))
    starts = np.zeros((len(trials), g.n), dtype=bool)
    origins = rng.Streams(cfg.rng_seed, rng.LANE_ORIGIN)
    for row, trial in zip(starts, trials):
        row[int(origins.at(trial).integers(g.n))] = True
    return starts


def _neighbour_positions(g: Graph, nz: np.ndarray) -> np.ndarray:
    """Flat positions of the neighbors of the flat positions ``nz`` of a
    (rows, n) array, each neighbor in the row of the node it neighbors."""
    nodes = nz % g.n
    nbrs, owner = _neighbour_lists(g, nodes)
    return nbrs + (nz - nodes)[owner]


def _round_streams(seed: int) -> _UniformSource:
    """The kernel's own uniforms: trial i draws from stream
    (seed, LANE_ROUND, i, t) in round t, so what a trial does depends neither
    on the block it runs in nor on its position there."""
    streams = rng.Streams(seed, rng.LANE_ROUND)

    def fill(out: np.ndarray, trials: np.ndarray, t: int) -> np.ndarray:
        return streams.fill(out[: len(trials)], trials.tolist(), t)

    return fill


def _spread(
    g: Graph,
    cfg: ProtocolConfig,
    trials: range,
    source: _UniformSource,
    *,
    restricted: tuple[np.ndarray, np.ndarray] | None = None,
    target: NodeSet | None = None,
    stop_at_target: bool = False,
    traces: bool = False,
) -> tuple[list[int | None], list[int | None], list[int | None], list[SpreadTrace]]:
    """The round kernel: one trial per id in ``trials``, started from
    ``_starts`` and advanced one round at a time on a (live trials, n)
    informed mask, trial i taking its round-t uniforms from ``source``.

    Trials run in blocks of ``_block_rows(n)`` rows, so memory stays
    bounded for every caller; a source addresses each draw by trial id and
    round, so the block size never changes a result. A trial leaves the
    live rows once it completes, or once ``target`` is hit when
    ``stop_at_target``, or at the round cap. ``restricted`` = (active,
    participating) masks turns every round into the restricted pushpull
    round. Returns per-trial t_half, t_all and t_target (None while
    unreached or without a target), and with ``traces`` one SpreadTrace per
    trial; boundary, harmonic mass and sets are computed only then.
    """
    n = g.n
    indptr, indices = g.csr
    degs = np.diff(indptr).astype(np.float64)
    cap = cfg.max_rounds if cfg.max_rounds is not None else default_max_rounds(n)
    half = n // 2 + 1
    nt = len(trials)
    t_half = np.full(nt, -1, dtype=np.int64)
    t_all = np.full(nt, -1, dtype=np.int64)
    t_target = np.full(nt, -1, dtype=np.int64)
    tgt = None
    if target is not None:
        tgt = np.fromiter(sorted(target), dtype=np.int64, count=len(target))
    out: list[SpreadTrace] = []
    if traces:
        inv_deg = 1.0 / degs
        harmonic = [0.0] * nt
        out = [
            SpreadTrace([], [], [], [], [], [] if cfg.record_sets else None, None, None, False)
            for _ in range(nt)
        ]
    rows = _block_rows(n)
    for first in range(0, nt, rows):
        live = np.arange(first, min(nt, first + rows))  # trial offset of each live row
        ids = live.tolist()
        b = len(live)
        informed = np.zeros((b, n), dtype=bool)
        counts = np.zeros(b, dtype=np.int64)
        if traces:
            reached = np.zeros((b, n), dtype=bool)  # has an informed neighbor
        uniforms = np.empty((b, n))
        offsets = np.arange(b)[:, None] * n
        new = _starts(g, cfg, trials[first : first + b])
        t = 0
        while True:
            informed |= new
            counts += np.count_nonzero(new, axis=1)
            if traces:
                nz = np.flatnonzero(new)
                reached.ravel()[_neighbour_positions(g, nz)] = True
                # one sum per trial over its new nodes in ascending order, added
                # to a running float: the float order the trace files pin
                nodes = nz % n
                bounds = np.searchsorted(nz, np.arange(len(ids) + 1) * n).tolist()
                for i, lo, hi in zip(ids, bounds, bounds[1:]):
                    if hi > lo:
                        harmonic[i] += float(inv_deg[nodes[lo:hi]].sum())
                bnd = np.count_nonzero(reached & ~informed, axis=1).tolist()
                for row, (i, c, bd) in enumerate(zip(ids, counts.tolist(), bnd)):
                    tr = out[i]
                    tr.informed.append(c)
                    tr.boundary.append(bd)
                    tr.closure.append(c + bd)
                    tr.psi.append(c + bd / 2.0)
                    tr.harmonic_mass.append(harmonic[i])
                    if tr.sets is not None:
                        tr.sets.append(frozenset(np.flatnonzero(informed[row]).tolist()))
            t_half[live[(counts >= half) & (t_half[live] < 0)]] = t
            keep = counts < n
            t_all[live[~keep]] = t
            if tgt is not None:
                hit = informed[:, tgt].any(axis=1)
                t_target[live[hit & (t_target[live] < 0)]] = t
                if stop_at_target:
                    keep &= ~hit
            if t == cap or not keep.any():
                break
            if not keep.all():
                live, informed, counts = live[keep], informed[keep], counts[keep]
                ids = live.tolist()
                if traces:
                    reached = reached[keep]
            t += 1
            k = len(live)
            drawn = _draw(source(uniforms, trials.start + live, t), indptr, indices, degs)
            if restricted is None:
                variant, drawers = cfg.variant, None
            else:
                active, participating = restricted
                variant, drawers = "pushpull", (active & participating[drawn]).ravel()
            drawn += offsets[:k]
            new = _step(informed.ravel(), drawn.ravel(), variant, drawers).reshape(k, n)

    def opt(x: int) -> int | None:
        return None if x < 0 else int(x)

    th, ta, tt = ([opt(x) for x in a] for a in (t_half, t_all, t_target))
    for i, tr in enumerate(out):
        tr.t_half, tr.t_all, tr.completed = th[i], ta[i], ta[i] is not None
        tr.t_target = tt[i]
    return th, ta, tt, out


def run(
    g: Graph,
    cfg: ProtocolConfig,
    trial: int = 0,
    *,
    target: Collection[int] | None = None,
    stop_at_target: bool = False,
) -> SpreadTrace:
    """Simulate one trial and return its trace.

    ``target``, when given, makes the trace record the first round at which
    some target node is informed; with ``stop_at_target`` the run ends there.
    """
    tgt = g.check_set(target) if target is not None else None
    *_, traces = _spread(
        g,
        cfg,
        range(trial, trial + 1),
        _round_streams(cfg.rng_seed),
        target=tgt,
        stop_at_target=stop_at_target,
        traces=True,
    )
    return traces[0]


def single_round(
    g: Graph, informed: Collection[int], variant: str, generator: np.random.Generator
) -> NodeSet:
    """One round from an explicit informed set using a caller-supplied RNG."""
    _check_variant(variant)
    fs = g.check_set(informed)
    if not fs:
        raise InputError("informed set must be nonempty")
    indptr, indices = g.csr
    mask = _mask(g.n, fs)
    drawn = _draw(generator.random(g.n), indptr, indices, np.diff(indptr).astype(np.float64))
    return frozenset(int(v) for v in np.flatnonzero(mask | _step(mask, drawn, variant)))


def run_restricted(
    g: Graph,
    s: Collection[int],
    origin: int,
    cfg: ProtocolConfig,
    participating: Collection[int],
    active: Collection[int],
    *,
    stop_at_target: bool = False,
) -> SpreadTrace:
    """Restricted spreading toward a watched set.

    Only active nodes draw (uniformly over their full neighbor list); a
    contact takes effect only if the drawn node participates. Passive
    participating nodes communicate solely with active nodes that chose them.
    Starts from ``origin`` and records in ``t_target`` the first round some
    node of ``s`` is informed.
    """
    s_set = g.check_set(s)
    part = g.check_set(participating)
    act = g.check_set(active)
    if not act <= part:
        raise InputError("active nodes must all be participating")
    g.check_node(origin)
    if origin not in part:
        raise InputError(f"origin {origin} is not participating")
    *_, traces = _spread(
        g,
        replace(cfg, initial_informed=frozenset({origin})),
        range(1),
        _round_streams(cfg.rng_seed),
        restricted=(_mask(g.n, act), _mask(g.n, part)),
        target=s_set,
        stop_at_target=stop_at_target,
        traces=True,
    )
    return traces[0]


def monte_carlo(
    g: Graph, cfg: ProtocolConfig, trials: int, *, keep_traces: bool = False
) -> tuple[MonteCarloSummary, list[SpreadTrace]]:
    """Run independent trials and summarize completion times.

    Trials run through the round kernel, which bounds their memory.
    Deterministic given (cfg.rng_seed, trials): trial i draws from streams
    keyed by i, so results depend neither on the kernel's block size nor on
    execution order.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    t_half, t_all, _, traces = _spread(
        g, cfg, range(trials), _round_streams(cfg.rng_seed), traces=keep_traces
    )
    completed = [t is not None for t in t_all]
    return MonteCarloSummary(trials, t_half, t_all, completed), traces


def _sampler_rows(seed: int, n: int, position: int, batch: int) -> _UniformSource:
    """Uniforms of the rows of a first_arrival_times batch of ``batch`` rows,
    trial i of the batch being row i, whose round 1 starts at double
    ``position`` of the sequential sampler stream: round t draws the whole
    (batch, n) array after round t - 1, row after row.

    Each round splits its live rows into runs wherever finished rows leave a
    gap of more than ``_SEEK_DOUBLES`` doubles, and seeks once per run; only
    the finished rows inside a run are drawn and dropped.
    """
    streams = rng.Streams(seed, rng.LANE_SAMPLER)

    def fill(out: np.ndarray, rows: np.ndarray, t: int) -> np.ndarray:
        at = position + (t - 1) * batch * n
        cuts = np.flatnonzero((np.diff(rows) - 1) * n > _SEEK_DOUBLES) + 1
        bounds = [0, *cuts.tolist(), len(rows)]
        k = 0  # live rows filled so far
        for lo, hi in zip(bounds, bounds[1:]):
            first, span = int(rows[lo]), int(rows[hi - 1] - rows[lo]) + 1
            streams.seek(at + first * n).random(out=out[k : k + span])
            if span > hi - lo:
                out[k : k + hi - lo] = out[k + rows[lo:hi] - first]
            k += hi - lo
        return out[:k]

    return fill


def first_arrival_times(
    g: Graph,
    start: Collection[int],
    watched: Collection[int],
    variant: str,
    trials: int,
    rng_seed: int,
    max_rounds: int | None = None,
) -> np.ndarray:
    """First round at which the watched set hears the rumor, per trial.

    Trials run in batches of ``_ARRIVAL_BATCH`` on one sequential sampler
    stream, each round drawing a whole batch's (trials, n) uniforms after
    the last round's, so the result is fixed by the arguments. Each batch
    steps through the round kernel, which bounds its memory and stops
    stepping finished trials. Raises IncompleteSpreadError if a trial of a
    batch exhausts the round cap first.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    start_set = g.check_set(start)
    watched_set = g.check_set(watched)
    if not start_set or not watched_set:
        raise InputError("start and watched sets must be nonempty")
    cap = default_max_rounds(g.n) if max_rounds is None else max_rounds
    cfg = ProtocolConfig(
        variant=variant, initial_informed=start_set, max_rounds=cap, rng_seed=rng_seed
    )
    if not start_set.isdisjoint(watched_set):
        return np.zeros(trials, dtype=np.int64)
    n = g.n
    out = np.empty(trials, dtype=np.int64)
    position = 0  # first sampler double of the current batch
    for done in range(0, trials, _ARRIVAL_BATCH):
        b = min(_ARRIVAL_BATCH, trials - done)
        source = _sampler_rows(rng_seed, n, position, b)
        _, _, times, _ = _spread(g, cfg, range(b), source, target=watched_set, stop_at_target=True)
        if None in times:
            raise IncompleteSpreadError(
                f"{times.count(None)} trial(s) did not reach the watched set within {cap} rounds"
            )
        out[done : done + b] = times
        position += b * n * max(times)
    return out


@dataclass
class GrowthCheckReport:
    """One-round closure-growth statistics against the expansion floor."""

    trials: int
    mean_growth: float
    stderr: float
    floor: float
    boundary_size: int
    passed: bool


def pull_growth_check(
    g: Graph,
    s: Collection[int],
    trials: int,
    rng_seed: int,
) -> GrowthCheckReport:
    """Estimate mean one-round closure growth from ``s`` under pushpull.

    Repeatedly simulates a single round starting at informed set ``s`` and
    measures how much the informed closure grows, comparing the sample mean
    against the analytic floor: boundary expansion times boundary size. The
    check passes when the mean is no more than four standard errors below
    the floor.
    """
    s_set = _proper_subset(g, s)
    if trials < 2:
        raise InputError("need at least 2 trials for a standard error")
    hits = _BoundaryHits(g, *_closure(g, s_set))
    h = boundary_expansion_exact(g, s_set)
    floor = h * hits.boundary.size

    if not hits.shell.size:
        # Closure already covers the graph; growth is identically zero.
        return GrowthCheckReport(
            trials, 0.0, 0.0, floor, hits.boundary.size, passed=floor <= 0
        )

    indptr, indices = g.csr
    degs = np.diff(indptr).astype(np.float64)
    n = g.n
    s_mask = _mask(n, s_set)
    gen = rng.stream(rng_seed, rng.LANE_GROWTH)
    growth = np.empty(trials, dtype=np.int64)
    rows = _block_rows(n)  # the (rows, n) draws outsize the second shell's hits
    for done in range(0, trials, rows):
        b = min(rows, trials - done)
        drawn = _draw(gen.random((b, n)), indptr, indices, degs)
        drawn += np.arange(b)[:, None] * n
        new_mask = _step(np.tile(s_mask, b), drawn.ravel(), "pushpull").reshape(b, n)
        growth[done : done + b] = hits.count(new_mask[:, hits.boundary])
    mean = float(growth.mean())
    stderr = float(growth.std(ddof=1) / math.sqrt(trials))
    passed = mean >= floor - 4.0 * stderr
    return GrowthCheckReport(trials, mean, stderr, floor, hits.boundary.size, passed)


def doubling_times(trace: SpreadTrace) -> list[tuple[int, int]]:
    """Doubling windows of the progress potential along a completed trace.

    Checkpoints are the first rounds where psi crosses successive powers of
    two times its initial value. Each window is the number of extra rounds
    until psi doubles again or the informed set exceeds half the graph.
    Neither psi nor the informed count decreases along a run, so each of
    these rounds is a bisection.
    """
    if not trace.completed:
        raise InputError("doubling_times needs a completed trace")
    psi, informed = trace.psi, trace.informed
    # the first round past half the graph: a completed trace informs all n
    past_half = bisect_right(informed, informed[-1] / 2)
    out: list[tuple[int, int]] = []
    level = psi[0]
    while (tc := bisect_left(psi, level)) < len(psi):
        if not out or out[-1][0] != tc:
            end = min(bisect_left(psi, 2 * psi[tc]), max(tc, past_half))
            out.append((tc, end - tc))
        level *= 2
    return out


# -- CSV output ------------------------------------------------------------


def write_trace_csv(traces: Sequence[SpreadTrace], path: str) -> None:
    """Write per-round trace rows for one or more trials."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,round,informed,boundary,closure,psi,harmonic_mass\n")
        for trial, trace in enumerate(traces):
            for t in range(len(trace.informed)):
                fh.write(
                    f"{trial},{t},{trace.informed[t]},{trace.boundary[t]},"
                    f"{trace.closure[t]},{trace.psi[t]:.15g},"
                    f"{trace.harmonic_mass[t]:.15g}\n"
                )


def write_summary_csv(summary: MonteCarloSummary, path: str) -> None:
    """Write one row per trial: completion times and a completed flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,t_half,t_all,completed\n")
        for i in range(summary.trials):
            th = "" if summary.t_half[i] is None else summary.t_half[i]
            ta = "" if summary.t_all[i] is None else summary.t_all[i]
            fh.write(f"{i},{th},{ta},{int(summary.completed[i])}\n")
