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

One round kernel, ``_spread``, advances a block of trials together on a
(trials x nodes) informed mask; ``run`` and ``run_restricted`` are blocks of
one trial. ``monte_carlo`` runs its trials in blocks of at most
``_BLOCK_ELEMENTS // n`` rows to bound memory; since every draw is addressed
by its trial and round, the block size never changes a result. Boundary,
harmonic mass and informed sets are tracked only when traces are returned.
``first_arrival_times`` and ``pull_growth_check`` instead read one sequential
sampler stream, so their block sizes are part of what their seeds reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from . import rng
from .errors import IncompleteSpreadError, InputError
from .graph import Graph, NodeSet

VARIANTS = ("push", "pull", "pushpull")
# Trials per first_arrival_times block; the block size decides which sampler
# draws each trial gets, so changing it changes the results.
_ARRIVAL_BATCH = 4096
# Elements (trials x nodes) per round-kernel block. Every kernel draw is
# addressed by (seed, lane, trial, round), so this bounds memory only and
# never changes results.
_BLOCK_ELEMENTS = 1 << 22


def default_max_rounds(n: int) -> int:
    """Round cap used when the config leaves it unset: 64 * ceil(log2 n)."""
    return 64 * max(1, math.ceil(math.log2(n)))


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
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}; known: {VARIANTS}")
        if self.initial_informed is not None and len(self.initial_informed) == 0:
            raise InputError("initial_informed must be nonempty when given")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise InputError(f"max_rounds must be >= 1, got {self.max_rounds}")


@dataclass
class SpreadTrace:
    """Per-round history of one run.

    Index t holds the state after t rounds; index 0 is the initial state.
    ``psi`` is the informed count plus half the boundary count, a strictly
    increasing progress potential that reaches n exactly at completion.
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
        # the midpoint interpolation of two infinities would yield nan, so
        # take the lower order statistic instead of interpolating
        return float(
            np.quantile(self._t_all_array(), q, method="inverted_cdf")
        )

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
    node by node along the last axis: slot floor(u * deg) of its CSR row."""
    slots = np.minimum((u * degs).astype(np.int64), degs - 1)
    return indices[indptr[:-1] + slots]


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
    """
    senders = informed if drawers is None else informed & drawers
    add = np.zeros_like(informed)
    if variant in ("push", "pushpull"):
        add[drawn[senders]] = True
    if variant in ("pull", "pushpull"):
        add |= informed[drawn] if drawers is None else informed[drawn] & drawers
    return add & ~informed


def _mask(n: int, nodes: Collection[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = True
    return mask


def _starts(g: Graph, cfg: ProtocolConfig, trials: range) -> np.ndarray:
    """(len(trials), n) start masks: ``cfg.initial_informed`` on every row, or
    one origin per trial drawn from that trial's origin stream."""
    if cfg.initial_informed is not None:
        mask = _mask(g.n, g.check_set(cfg.initial_informed))
        return np.tile(mask, (len(trials), 1))
    starts = np.zeros((len(trials), g.n), dtype=bool)
    for row, gen in zip(starts, rng.streams(cfg.rng_seed, rng.LANE_ORIGIN, trials)):
        row[int(gen.integers(g.n))] = True
    return starts


def _neighbour_positions(
    nz: np.ndarray, n: int, indptr: np.ndarray, indices: np.ndarray, degs: np.ndarray
) -> np.ndarray:
    """Flat positions of the neighbors of the flat positions ``nz`` of a
    (rows, n) array, each neighbor in the row of the node it neighbors."""
    nodes = nz % n
    d = degs[nodes]
    owner = np.repeat(np.arange(nz.size), d)
    within = np.arange(owner.size) - np.repeat(np.cumsum(d) - d, d)
    return indices[indptr[nodes][owner] + within] + (nz - nodes)[owner]


def _spread(
    g: Graph,
    cfg: ProtocolConfig,
    first_trial: int,
    starts: np.ndarray,
    *,
    restricted: tuple[np.ndarray, np.ndarray] | None = None,
    target: NodeSet | None = None,
    stop_at_target: bool = False,
    traces: bool = False,
) -> tuple[list[int | None], list[int | None], list[SpreadTrace]]:
    """The round kernel: trials ``first_trial + i`` from the start masks
    ``starts[i]``, all advanced one round at a time on a (live rows, n)
    informed mask.

    Row i draws from stream (seed, LANE_ROUND, first_trial + i, t) in round
    t, so what a trial does depends neither on the block it runs in nor on
    its position there. A trial leaves the live rows once it completes, or
    once ``target`` is hit when ``stop_at_target``, or at the round cap.
    ``restricted`` = (active, participating) masks turns every round into the
    restricted pushpull round. Returns per-trial t_half and t_all, and with
    ``traces`` one SpreadTrace per trial; boundary, harmonic mass, sets and
    t_target are computed only then.
    """
    n = g.n
    indptr, indices = g.csr
    degs = np.diff(indptr)
    cap = cfg.max_rounds if cfg.max_rounds is not None else default_max_rounds(n)
    half = n // 2 + 1
    b = len(starts)
    live = np.arange(b)  # trial offset of each live row
    ids = live.tolist()
    informed = np.zeros((b, n), dtype=bool)
    counts = np.zeros(b, dtype=np.int64)
    t_half = np.full(b, -1, dtype=np.int64)
    t_all = np.full(b, -1, dtype=np.int64)
    t_target = np.full(b, -1, dtype=np.int64)
    tgt = None
    if target is not None:
        tgt = np.fromiter(sorted(target), dtype=np.int64, count=len(target))
    out: list[SpreadTrace] = []
    if traces:
        inv_deg = 1.0 / degs
        reached = np.zeros((b, n), dtype=bool)  # has an informed neighbor
        harmonic = [0.0] * b
        out = [
            SpreadTrace([], [], [], [], [], [] if cfg.record_sets else None, None, None, False)
            for _ in range(b)
        ]
    uniforms = np.empty((b, n))
    offsets = np.arange(b)[:, None] * n
    new = starts
    t = 0
    while True:
        informed |= new
        counts += np.count_nonzero(new, axis=1)
        if traces:
            nz = np.flatnonzero(new)
            reached.ravel()[_neighbour_positions(nz, n, indptr, indices, degs)] = True
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
        u = rng.fill_streams(
            uniforms[:k], cfg.rng_seed, rng.LANE_ROUND,
            (first_trial + i for i in ids), t,
        )
        drawn = _draw(u, indptr, indices, degs)
        if restricted is None:
            variant, drawers = cfg.variant, None
        else:
            active, participating = restricted
            variant, drawers = "pushpull", (active & participating[drawn]).ravel()
        drawn += offsets[:k]
        new = _step(informed.ravel(), drawn.ravel(), variant, drawers).reshape(k, n)

    def opt(x: int) -> int | None:
        return None if x < 0 else int(x)

    th, ta = [opt(x) for x in t_half], [opt(x) for x in t_all]
    for i, tr in enumerate(out):
        tr.t_half, tr.t_all, tr.completed = th[i], ta[i], ta[i] is not None
        tr.t_target = opt(t_target[i])
    return th, ta, out


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
    starts = _starts(g, cfg, range(trial, trial + 1))
    tgt = g.check_set(target) if target is not None else None
    _, _, traces = _spread(
        g, cfg, trial, starts, target=tgt, stop_at_target=stop_at_target, traces=True
    )
    return traces[0]


def single_round(
    g: Graph, informed: Collection[int], variant: str, generator: np.random.Generator
) -> NodeSet:
    """One round from an explicit informed set using a caller-supplied RNG."""
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}; known: {VARIANTS}")
    fs = g.check_set(informed)
    if not fs:
        raise InputError("informed set must be nonempty")
    indptr, indices = g.csr
    mask = _mask(g.n, fs)
    drawn = _draw(generator.random(g.n), indptr, indices, np.diff(indptr))
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
    _, _, traces = _spread(
        g,
        cfg,
        0,
        _mask(g.n, [origin])[None],
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

    Trials run through the round kernel in blocks of at most 2**22 // n
    trials, so memory stays bounded. Deterministic
    given (cfg.rng_seed, trials): trial i draws from streams keyed by i, so
    results depend neither on the block size nor on execution order.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    block = max(1, _BLOCK_ELEMENTS // g.n)
    t_half: list[int | None] = []
    t_all: list[int | None] = []
    traces: list[SpreadTrace] = []
    for first in range(0, trials, block):
        block_trials = range(first, min(trials, first + block))
        th, ta, tr = _spread(
            g, cfg, first, _starts(g, cfg, block_trials), traces=keep_traces
        )
        t_half += th
        t_all += ta
        traces += tr
    completed = [t is not None for t in t_all]
    return MonteCarloSummary(trials, t_half, t_all, completed), traces


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

    Trials run in fixed-size batches on one sequential sampler stream, so
    large trial counts stay cheap and the result is fixed by the arguments.
    Raises IncompleteSpreadError if any trial exhausts the round cap first.
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}")
    if trials < 1:
        raise InputError("trials must be >= 1")
    start_set = g.check_set(start)
    watched_set = g.check_set(watched)
    if not start_set or not watched_set:
        raise InputError("start and watched sets must be nonempty")
    cap = default_max_rounds(g.n) if max_rounds is None else max_rounds
    indptr, indices = g.csr
    degs = np.diff(indptr)
    n = g.n
    start_mask = _mask(n, start_set)
    watched_arr = np.fromiter(sorted(watched_set), dtype=np.int64)
    gen = rng.stream(rng_seed, rng.LANE_SAMPLER)
    out = np.empty(trials, dtype=np.int64)
    for done in range(0, trials, _ARRIVAL_BATCH):
        b = min(_ARRIVAL_BATCH, trials - done)
        informed = np.tile(start_mask, (b, 1))
        row_offsets = np.arange(b)[:, None] * n
        times = np.zeros(b, dtype=np.int64)
        pending = ~informed[:, watched_arr].any(axis=1)
        for t in range(1, cap + 1):
            if not pending.any():
                break
            drawn = _draw(gen.random((b, n)), indptr, indices, degs)
            drawn += row_offsets
            informed |= _step(informed.ravel(), drawn.ravel(), variant).reshape(b, n)
            hit = pending & informed[:, watched_arr].any(axis=1)
            times[hit] = t
            pending &= ~hit
        if pending.any():
            raise IncompleteSpreadError(
                f"{int(pending.sum())} trial(s) did not reach the watched set "
                f"within {cap} rounds"
            )
        out[done : done + b] = times
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
    *,
    slack_sigmas: float = 4.0,
) -> GrowthCheckReport:
    """Estimate mean one-round closure growth from ``s`` under pushpull.

    Repeatedly simulates a single round starting at informed set ``s`` and
    measures how much the informed closure grows, comparing the sample mean
    against the analytic floor: boundary expansion times boundary size. The
    check passes when the mean is no more than ``slack_sigmas`` standard
    errors below the floor.
    """
    from .expansion import _boundary_contacts, boundary_expansion_exact

    s_set = g.check_set(s)
    if not s_set or len(s_set) == g.n:
        raise InputError("need a nonempty proper subset to measure growth")
    if trials < 2:
        raise InputError("need at least 2 trials for a standard error")
    bd, bd2, contact = _boundary_contacts(g, s_set)
    h = boundary_expansion_exact(g, s_set)
    floor = h * len(bd)

    if not bd2:
        # Closure already covers the graph; growth is identically zero.
        return GrowthCheckReport(trials, 0.0, 0.0, floor, len(bd), passed=floor <= 0)

    indptr, indices = g.csr
    degs = np.array(g.degrees, dtype=np.int64)
    n = g.n
    s_mask = _mask(n, s_set)
    gen = rng.stream(rng_seed, rng.LANE_GROWTH)
    growth = np.empty(trials, dtype=np.int64)
    batch = max(1, min(trials, (1 << 22) // n))
    for done in range(0, trials, batch):
        b = min(batch, trials - done)
        drawn = _draw(gen.random((b, n)), indptr, indices, degs)
        drawn += np.arange(b)[:, None] * n
        new_mask = _step(np.tile(s_mask, b), drawn.ravel(), "pushpull").reshape(b, n)
        hits = new_mask[:, bd].astype(np.float32) @ contact.T
        growth[done : done + b] = (hits > 0).sum(axis=1)
    mean = float(growth.mean())
    stderr = float(growth.std(ddof=1) / math.sqrt(trials))
    passed = mean >= floor - slack_sigmas * stderr
    return GrowthCheckReport(trials, mean, stderr, floor, len(bd), passed)


def doubling_times(trace: SpreadTrace) -> list[tuple[int, int]]:
    """Doubling windows of the progress potential along a completed trace.

    Checkpoints are the first rounds where psi crosses successive powers of
    two times its initial value. Each window is the number of extra rounds
    until psi doubles again or the informed set exceeds half the graph.
    """
    if not trace.completed:
        raise InputError("doubling_times needs a completed trace")
    psi = trace.psi
    informed = trace.informed
    n_rounds = len(psi) - 1
    # Recover n from the completed end state.
    n = informed[-1]
    checkpoints: list[int] = []
    level = psi[0]
    t = 0
    while True:
        while t <= n_rounds and psi[t] < level:
            t += 1
        if t > n_rounds:
            break
        if not checkpoints or checkpoints[-1] != t:
            checkpoints.append(t)
        level *= 2
    out: list[tuple[int, int]] = []
    for tc in checkpoints:
        window = None
        for i in range(0, n_rounds - tc + 1):
            if psi[tc + i] >= 2 * psi[tc] or informed[tc + i] > n / 2:
                window = i
                break
        if window is None:
            # Complete traces end with everything informed, so the half-graph
            # condition must trigger by the final round.
            raise AssertionError("unresolved doubling window on a completed trace")
        out.append((tc, window))
    return out


# -- CSV output ------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".15g")


def write_trace_csv(traces: Sequence[SpreadTrace], path: str) -> None:
    """Write per-round trace rows for one or more trials."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,round,informed,boundary,closure,psi,harmonic_mass\n")
        for trial, trace in enumerate(traces):
            for t in range(len(trace.informed)):
                fh.write(
                    f"{trial},{t},{trace.informed[t]},{trace.boundary[t]},"
                    f"{trace.closure[t]},{_fmt(trace.psi[t])},"
                    f"{_fmt(trace.harmonic_mass[t])}\n"
                )


def write_summary_csv(summary: MonteCarloSummary, path: str) -> None:
    """Write one row per trial: completion times and a completed flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,t_half,t_all,completed\n")
        for i in range(summary.trials):
            th = "" if summary.t_half[i] is None else summary.t_half[i]
            ta = "" if summary.t_all[i] is None else summary.t_all[i]
            fh.write(f"{i},{th},{ta},{int(summary.completed[i])}\n")
