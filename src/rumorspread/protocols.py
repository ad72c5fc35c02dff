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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

from . import rng
from .errors import IncompleteSpreadError, InputError
from .graph import Graph, NodeSet

VARIANTS = ("push", "pull", "pushpull")
# Trials per first_arrival_times block; the block size decides which sampler
# draws each trial gets, so changing it changes the results.
_ARRIVAL_BATCH = 4096


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


class _Engine:
    """Vectorized single-run state: informed mask plus incremental boundary.

    The boundary is maintained through a per-node count of informed neighbors,
    updated only for the nodes that just became informed, so a whole run costs
    O(sum of degrees) for the incremental part.
    """

    def __init__(self, g: Graph, initial: Iterable[int]):
        self.g = g
        self.indptr, self.indices = g.csr
        self.degs = np.array(g.degrees, dtype=np.int64)
        self.inv_deg = 1.0 / self.degs
        self.informed = np.zeros(g.n, dtype=bool)
        self.informed_nbrs = np.zeros(g.n, dtype=np.int64)
        self.harmonic = 0.0
        init = np.array(sorted(initial), dtype=np.int64)
        self._absorb(init)

    def _absorb(self, new_nodes: np.ndarray) -> None:
        if new_nodes.size == 0:
            return
        self.informed[new_nodes] = True
        self.harmonic += float(self.inv_deg[new_nodes].sum())
        touched = np.concatenate(
            [self.indices[self.indptr[v] : self.indptr[v + 1]] for v in new_nodes]
        )
        np.add.at(self.informed_nbrs, touched, 1)

    def draws(self, seed: int, trial: int, round_index: int) -> np.ndarray:
        """One uniform neighbor per node, in ascending node-id order."""
        u = rng.stream(seed, rng.LANE_ROUND, trial, round_index).random(self.g.n)
        return _draw(u, self.indptr, self.indices, self.degs)

    def apply_draws(
        self, drawn: np.ndarray, variant: str, drawers: np.ndarray | None = None
    ) -> None:
        """Absorb the nodes one round informs, under round-start semantics."""
        self._absorb(np.flatnonzero(_step(self.informed, drawn, variant, drawers)))

    def stats(self) -> tuple[int, int, int, float, float]:
        informed_count = int(self.informed.sum())
        b = int(np.count_nonzero((self.informed_nbrs > 0) & ~self.informed))
        return (
            informed_count,
            b,
            informed_count + b,
            informed_count + b / 2.0,
            self.harmonic,
        )

    def informed_set(self) -> NodeSet:
        return frozenset(int(v) for v in np.flatnonzero(self.informed))


def _resolve_initial(g: Graph, cfg: ProtocolConfig, trial: int) -> NodeSet:
    if cfg.initial_informed is not None:
        return g.check_set(cfg.initial_informed)
    origin = int(rng.stream(cfg.rng_seed, rng.LANE_ORIGIN, trial).integers(g.n))
    return frozenset([origin])


def _simulate(
    g: Graph,
    cfg: ProtocolConfig,
    trial: int,
    initial: NodeSet,
    target: NodeSet | None,
    stop_at_target: bool,
    restricted: tuple[np.ndarray, np.ndarray] | None,
) -> SpreadTrace:
    engine = _Engine(g, initial)
    max_rounds = cfg.max_rounds if cfg.max_rounds is not None else default_max_rounds(g.n)
    half = g.n // 2 + 1

    trace = SpreadTrace(
        informed=[],
        boundary=[],
        closure=[],
        psi=[],
        harmonic_mass=[],
        sets=[] if cfg.record_sets else None,
        t_half=None,
        t_all=None,
        completed=False,
    )
    target_arr = None
    if target is not None:
        target_arr = np.fromiter(sorted(target), dtype=np.int64, count=len(target))

    def record(t: int) -> None:
        informed_count, b, clo, psi, harm = engine.stats()
        trace.informed.append(informed_count)
        trace.boundary.append(b)
        trace.closure.append(clo)
        trace.psi.append(psi)
        trace.harmonic_mass.append(harm)
        if trace.sets is not None:
            trace.sets.append(engine.informed_set())
        if trace.t_half is None and informed_count >= half:
            trace.t_half = t
        if trace.t_all is None and informed_count == g.n:
            trace.t_all = t
            trace.completed = True
        if (
            trace.t_target is None
            and target_arr is not None
            and bool(engine.informed[target_arr].any())
        ):
            trace.t_target = t

    record(0)
    t = 0
    while trace.t_all is None and t < max_rounds:
        if stop_at_target and trace.t_target is not None:
            break
        t += 1
        drawn = engine.draws(cfg.rng_seed, trial, t)
        if restricted is None:
            engine.apply_draws(drawn, cfg.variant)
        else:
            active, participating = restricted
            engine.apply_draws(drawn, "pushpull", active & participating[drawn])
        record(t)
    return trace


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
    initial = _resolve_initial(g, cfg, trial)
    tgt = g.check_set(target) if target is not None else None
    return _simulate(g, cfg, trial, initial, tgt, stop_at_target, restricted=None)


def single_round(
    g: Graph, informed: Collection[int], variant: str, generator: np.random.Generator
) -> NodeSet:
    """One round from an explicit informed set using a caller-supplied RNG."""
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}; known: {VARIANTS}")
    fs = g.check_set(informed)
    if not fs:
        raise InputError("informed set must be nonempty")
    engine = _Engine(g, fs)
    u = generator.random(g.n)
    engine.apply_draws(_draw(u, engine.indptr, engine.indices, engine.degs), variant)
    return engine.informed_set()


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
    return _simulate(
        g,
        cfg,
        trial=0,
        initial=frozenset([origin]),
        target=s_set,
        stop_at_target=stop_at_target,
        restricted=(_mask(g.n, act), _mask(g.n, part)),
    )


def monte_carlo(
    g: Graph, cfg: ProtocolConfig, trials: int, *, keep_traces: bool = False
) -> tuple[MonteCarloSummary, list[SpreadTrace]]:
    """Run independent trials and summarize completion times.

    Deterministic given (cfg.rng_seed, trials): trial i draws from streams
    keyed by i, so results do not depend on execution order.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    t_half: list[int | None] = []
    t_all: list[int | None] = []
    completed: list[bool] = []
    traces: list[SpreadTrace] = []
    for trial in range(trials):
        trace = run(g, cfg, trial)
        t_half.append(trace.t_half)
        t_all.append(trace.t_all)
        completed.append(trace.completed)
        if keep_traces:
            traces.append(trace)
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
