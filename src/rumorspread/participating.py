"""Participating-set construction around an informed set's closure.

Given a set with closure C, a candidate pool is thinned by repeatedly
removing nodes that fail a participation threshold until none do:

* an *active* node (pool member inside C) needs its fraction of pooled
  neighbors plus the sampling mass of its active neighbors to reach eps_p,
* a *passive* node (pool member outside C) needs the sampling mass of its
  active neighbors alone to reach eps_p,

where the sampling mass of a node is one over its degree. The conditions are
monotone in the pool, so the surviving set is the unique largest fixed point
regardless of removal order.

The thinning runs as a worklist (the peeling scheme of Batagelj and
Zaversnik's O(m) cores decomposition): a node that violates keeps violating as
the pool shrinks, and a removal changes the state of its own neighbours only,
so each removal walks its neighbours once, updating and re-testing each, and
the whole run costs O(n + m) besides the queue. With ``track_potential`` the
potential (phi1, phi2) is audited at every step: both components are kept
twice, from the sender side by one more walk over the removed node's
neighbours and from the receiver side by the counts the worklist keeps for
it, and the two forms must agree exactly after each step.
A full recompute checks the start state and must reproduce the end state.

Each call validates its set and derives one state from it, once: the closure
masks and the sampling masses (``_thinning_state``), which the potential, the
restricted start, the fixed points and the guarantee audit (with its
``expansion._BoundaryHits``) all read. The start state and the potential
recomputes run on the CSR arrays with numpy; the worklist then walks
neighbour slices of ``Graph.csr_lists``.

Every exact value is an integer numerator end to end: sampling masses and
the potential over the lcm of the degrees, the exact boundary expansion over
the lcm of its terms' denominators, and thresholds compared as integers
(lhs / scale < eps_p as lhs < ceil(eps_p * scale)). The numpy arrays hold
int64 when every sum they take fits, else Python ints. ``Fraction``s are
built only where the public API returns them. A float eps is interpreted by
its decimal literal (0.15 means 3/20).
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection

import numpy as np

from .errors import InputError
from .expansion import _BoundaryHits
from .graph import Graph, NodeSet, _closure, _mask, _neighbour_sums, _proper_subset

_ORDERS = ("lowest", "batch", "random")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputError(f"threshold must be finite, got {x!r}")
        return Fraction(str(x))
    raise InputError(f"cannot interpret threshold {x!r} as a rational")


@dataclass(frozen=True)
class ParticipatingConfig:
    """Thresholds for the construction and its guarantees.

    ``eps_p`` is the participation threshold; ``eps_h`` the assumed ceiling
    on the boundary expansion that the guarantee checks are stated under.
    The guarantees additionally need eps_p < (1 - eps_h)/3; construction
    itself is meaningful without that, so it is validated only where needed
    (see ``hypothesis_ok``).
    """

    eps_p: Fraction = Fraction(3, 20)
    eps_h: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_p", _as_fraction(self.eps_p))
        object.__setattr__(self, "eps_h", _as_fraction(self.eps_h))
        if not (0 < self.eps_p < 1):
            raise InputError(f"eps_p must be in (0,1), got {self.eps_p}")
        if not (0 <= self.eps_h < 1):
            raise InputError(f"eps_h must be in [0,1), got {self.eps_h}")

    @property
    def hypothesis_ok(self) -> bool:
        return self.eps_p < (1 - self.eps_h) / 3


@dataclass
class RemovalStep:
    step: int
    node: int
    reason: str  # "active" or "passive"
    phi1: float
    phi2: float
    phi: float


@dataclass
class ParticipatingResult:
    """Fixed point of the thinning procedure plus its audit trail.

    ``trajectory`` holds the exact potential (phi1, phi2) after each step,
    index 0 being the start pool; removal_log rows carry the same values as
    floats. Batch steps log one row per removed node, all with the post-batch
    potential.
    """

    participating: NodeSet
    active: NodeSet
    passive: NodeSet
    start: NodeSet
    start_rule: str
    eps_p: Fraction
    removal_log: list[RemovalStep] = field(default_factory=list)
    trajectory: list[tuple[Fraction, Fraction]] | None = None

    def phi(self, i: int) -> Fraction:
        assert self.trajectory is not None
        a, b = self.trajectory[i]
        return a + b

    @property
    def steps(self) -> int:
        return len(self.trajectory) - 1 if self.trajectory is not None else 0


def _sampling_units(g: Graph) -> tuple[np.ndarray, int]:
    """Sampling masses as integer numerators over one common denominator:
    1/deg(v) == unit[v] / scale, scale being the lcm of all degrees.

    Every sum of masses this module takes, over the edges at a node or over
    all arcs, is at most (2m + 1) * scale. When that fits in int64 ``unit``
    is an int64 array, else an object array of Python ints, so numpy sums it
    exactly either way."""
    degree = np.diff(g.indptr)
    scale = math.lcm(*np.flatnonzero(np.bincount(degree)).tolist())
    if scale * (g.indices.size + 1) > np.iinfo(np.int64).max:
        degree = degree.astype(object)
    return scale // degree, scale


def _thinning_state(g: Graph, s: Collection[int]) -> tuple:
    """What a call derives from (g, s): ``s``'s boundary and closure masks
    (``graph._closure``), then the sampling units and their scale."""
    return (*_closure(g, _proper_subset(g, s)), *_sampling_units(g))


def _potential_parts(
    g: Graph, in_closure: np.ndarray, in_pool: np.ndarray, unit: np.ndarray
) -> tuple[int, int]:
    """Both potential components as numerators over the scale of ``unit``
    (see ``_sampling_units``), for the closure and pool given as boolean
    masks, each computed two ways and cross-checked.

    phi1 charges edges from active nodes to removed nodes; phi2 charges edges
    from removed closure nodes back into the pool. Each is summed once from
    the sender side, a node's unit times its count of charged edges, and
    once from the receiver side, the units a node receives summed over its
    own neighbour list; the two forms must agree exactly, which guards the
    bookkeeping here and in any caller.
    """
    active = in_closure & in_pool
    removed = in_closure & ~in_pool
    into_pool = _neighbour_sums(g, in_pool)
    phi1_send = (unit * (np.diff(g.indptr) - into_pool))[active].sum()
    phi2_send = (unit * into_pool)[removed].sum()
    phi1_recv = _neighbour_sums(g, np.where(active, unit, 0))[~in_pool].sum()
    phi2_recv = _neighbour_sums(g, np.where(removed, unit, 0))[in_pool].sum()
    if phi1_send != phi1_recv or phi2_send != phi2_recv:
        raise AssertionError("potential dual forms disagree; internal bug")
    return int(phi1_send), int(phi2_send)


def potential(g: Graph, s: Collection[int], pool: Collection[int]) -> tuple[float, float, float]:
    """Potential of a candidate pool against the closure of ``s``.

    Returns (phi1, phi2, phi1 + phi2) as floats; the exact dual-form
    cross-check runs internally.
    """
    _, in_closure, unit, scale = _thinning_state(g, s)
    p1, p2 = _potential_parts(g, in_closure, _mask(g.n, g.check_set(pool)), unit)
    # int true division rounds correctly, as float(Fraction) does
    return p1 / scale, p2 / scale, (p1 + p2) / scale


def _restricted_mask(g: Graph, state: tuple, eps_p: Fraction) -> np.ndarray:
    """The restricted start pool of a thinning state, as a boolean mask."""
    in_bd, in_closure, unit, scale = state
    mass = _neighbour_sums(g, np.where(in_bd, unit, 0))
    # mass / scale >= 2 eps_p, for an integer mass, is mass >= ceil(2 eps_p scale)
    return in_closure | (mass >= -(-2 * eps_p.numerator * scale // eps_p.denominator))


def restricted_start(g: Graph, s: Collection[int], cfg: ParticipatingConfig) -> NodeSet:
    """Start pool for the modified construction: the closure plus those
    second-shell nodes whose boundary-neighbor sampling mass reaches
    2*eps_p."""
    in_start = _restricted_mask(g, _thinning_state(g, s), cfg.eps_p)
    return frozenset(np.flatnonzero(in_start).tolist())


class _RunningPotential:
    """phi1 and phi2 of a shrinking pool, each kept twice, as exact
    numerators over ``scale`` (see ``_sampling_units``) from the (phi1, phi2)
    numerators ``start``.

    ``remove(x, active_mass, pool_nbrs)`` takes ``x`` out of the pool and
    must run while ``x`` is still pooled, with the worklist's counts for x:
    its active neighbours' sampling mass and its pooled neighbours. The
    sender path walks x's neighbours once: it charges the one changed edge of
    each closure neighbour and counts x's pooled neighbours afresh to charge
    x's own edges. The receiver path is O(1) from the counts: x, now a
    hole, receives ``active_mass`` and no longer receives the rest of its
    closure neighbours' mass ``closure_mass[x]``; a closure x stops sending
    to its holes and starts sending to its pooled neighbours. ``parts()``
    compares the forms, so it fails when the counts disagree with the graph,
    and returns the (phi1, phi2) numerators.
    """

    def __init__(self, g: Graph, unit, in_closure, in_pool, closure_mass, start) -> None:
        self.ptr, self.flat = g.csr_lists
        self.unit, self.closure_mass = unit, closure_mass
        self.in_closure, self.in_pool = in_closure, in_pool
        self.phi1_send = self.phi1_recv = start[0]
        self.phi2_send = self.phi2_recv = start[1]

    def remove(self, x: int, active_mass: int, pool_nbrs: int) -> None:
        unit, in_closure, in_pool = self.unit, self.in_closure, self.in_pool
        nbrs = self.flat[self.ptr[x] : self.ptr[x + 1]]
        # sender side, in one walk: each closure neighbour gains a hole (if
        # pooled) or loses a pooled target; an active x stops sending into
        # its holes and becomes a removed closure node sending into the pool
        pooled = 0
        for w in nbrs:
            if in_pool[w]:
                pooled += 1
                if in_closure[w]:
                    self.phi1_send += unit[w]
            elif in_closure[w]:
                self.phi2_send -= unit[w]
        if in_closure[x]:
            self.phi1_send -= unit[x] * (len(nbrs) - pooled)
            self.phi2_send += unit[x] * pooled
        # receiver side, from the worklist's counts
        self.phi1_recv += active_mass
        self.phi2_recv -= self.closure_mass[x] - active_mass
        if in_closure[x]:
            self.phi1_recv -= unit[x] * (len(nbrs) - pool_nbrs)
            self.phi2_recv += unit[x] * pool_nbrs

    def parts(self) -> tuple[int, int]:
        if self.phi1_send != self.phi1_recv or self.phi2_send != self.phi2_recv:
            raise AssertionError("potential dual forms disagree; internal bug")
        return self.phi1_send, self.phi2_send


def _fraction_pairs(pairs: list[tuple[int, int]], scale: int) -> list[tuple[Fraction, Fraction]]:
    """Numerator pairs over ``scale`` as ``Fraction`` pairs: a trajectory has
    few distinct numerators, so each (immutable) ``Fraction`` is built once
    and shared."""
    made = {a: Fraction(a, scale) for a in {a for pair in pairs for a in pair}}
    return [(made[a], made[b]) for a, b in pairs]


def participating_fixed_point(
    g: Graph,
    s: Collection[int],
    cfg: ParticipatingConfig,
    *,
    start: Collection[int] | None = None,
    order: str = "lowest",
    rng: random.Random | None = None,
    track_potential: bool = True,
) -> ParticipatingResult:
    """Run the thinning procedure from a start pool to its fixed point.

    The pool starts as ``start``, or as every node when ``start`` is None;
    the result's ``start_rule`` is "custom" or "full" accordingly.
    ``order`` selects which violator goes next: "lowest" removes the lowest
    id (the canonical log order), "batch" removes all current violators at
    once, "random" draws one using ``rng``. The fixed point itself does not
    depend on this choice.
    """
    state = _thinning_state(g, s)
    if start is None:
        pool, start_rule = np.ones(g.n, dtype=bool), "full"
    else:
        pool, start_rule = _mask(g.n, g.check_set(start)), "custom"
    return _fixed_point(g, state, cfg, pool, start_rule, order, rng, track_potential)


def _fixed_point(
    g: Graph, state: tuple, cfg: ParticipatingConfig, pool_mask: np.ndarray, start_rule: str,
    order: str = "lowest", rng: random.Random | None = None, track_potential: bool = True,
) -> ParticipatingResult:
    """``participating_fixed_point`` on a thinning state from (and consuming) ``pool_mask``."""
    if order not in _ORDERS:
        raise InputError(f"unknown removal order {order!r}; known: {_ORDERS}")
    if order == "random" and rng is None:
        raise InputError("random removal order needs an rng")
    _, closure_mask, units, scale = state
    pool_start = frozenset(np.flatnonzero(pool_mask).tolist())
    # The start state, in numpy: per node, its pooled-neighbour count and the
    # sampling mass of its active (pooled closure) neighbours, as a numerator
    # over scale.
    pool_nbrs = _neighbour_sums(g, pool_mask)
    active_mass = _neighbour_sums(g, np.where(closure_mask & pool_mask, units, 0))
    # a node violates when lhs_num / scale < eps_p, that is, for an integer
    # lhs_num, when lhs_num < ceil(eps_p * scale)
    least = -(-cfg.eps_p.numerator * scale // cfg.eps_p.denominator)
    violators = pool_mask & (active_mass + np.where(closure_mask, pool_nbrs * units, 0) < least)

    # the worklist runs on Python lists
    ptr, flat = g.csr_lists
    in_pool, in_closure, unit = pool_mask.tolist(), closure_mask.tolist(), units.tolist()
    pool_nbrs, active_mass = pool_nbrs.tolist(), active_mass.tolist()

    # the potential after each step, as numerators over scale, and its audit,
    # which also reads the sampling mass of each node's closure neighbours
    pairs: list[tuple[int, int]] = []
    running = None
    if track_potential:
        pairs.append(_potential_parts(g, closure_mask, pool_mask, units))
        closure_mass = _neighbour_sums(g, np.where(closure_mask, units, 0)).tolist()
        running = _RunningPotential(g, unit, in_closure, in_pool, closure_mass, pairs[0])

    # The queue holds exactly the pooled violators: violation is monotone in
    # the pool, so a queued node stays a violator, and a removal can only
    # turn its own neighbours into violators. "random" keeps a sorted list
    # (indexed like the ascending violator list), "lowest" and "batch" a
    # min-heap, which "batch" sorts when it takes it.
    queued = violators.tolist()
    queue = np.flatnonzero(violators).tolist()
    push = bisect.insort if order == "random" else heapq.heappush

    def remove(u: int) -> None:
        # one walk over u's neighbours: each one's counts lose u, and it is
        # queued if that makes it violate (it occurs once in u's row, and its
        # test reads only its own counts)
        if running is not None:
            running.remove(u, active_mass[u], pool_nbrs[u])
        in_pool[u] = False
        mass = unit[u] if in_closure[u] else 0  # u's share of active_mass
        for w in flat[ptr[u] : ptr[u + 1]]:
            pool_nbrs[w] -= 1
            if mass:
                active_mass[w] -= mass
            if in_pool[w] and not queued[w] and (
                active_mass[w] + (pool_nbrs[w] * unit[w] if in_closure[w] else 0) < least
            ):
                queued[w] = True
                push(queue, w)

    log: list[RemovalStep] = []
    step = 0
    while queue:
        step += 1
        if order == "lowest":
            batch = [heapq.heappop(queue)]
        elif order == "random":
            batch = [queue.pop(rng.randrange(len(queue)))]
        else:
            batch, queue = sorted(queue), []
        for u in batch:
            remove(u)
        if running is not None:
            p1, p2 = running.parts()
            pairs.append((p1, p2))
            # int true division rounds correctly, as float(Fraction) does
            f1, f2, ftot = p1 / scale, p2 / scale, (p1 + p2) / scale
        else:
            f1 = f2 = ftot = float("nan")
        for u in batch:
            reason = "active" if in_closure[u] else "passive"
            log.append(RemovalStep(step, u, reason, f1, f2, ftot))

    pool_mask[[entry.node for entry in log]] = False
    trajectory = None
    if running is not None:
        if _potential_parts(g, closure_mask, pool_mask, units) != pairs[-1]:
            raise AssertionError("running potential drifted from its recompute; internal bug")
        trajectory = _fraction_pairs(pairs, scale)
    pool = frozenset(np.flatnonzero(pool_mask).tolist())
    act = frozenset(np.flatnonzero(pool_mask & closure_mask).tolist())
    return ParticipatingResult(
        participating=pool,
        active=act,
        passive=pool - act,
        start=pool_start,
        start_rule=start_rule,
        eps_p=cfg.eps_p,
        removal_log=log,
        trajectory=trajectory,
    )


def compute_participating(
    g: Graph, s: Collection[int], cfg: ParticipatingConfig, **kwargs
) -> ParticipatingResult:
    """Fixed point from the full node set (the canonical construction)."""
    return participating_fixed_point(g, s, cfg, start=None, **kwargs)


def compute_participating_modified(
    g: Graph, s: Collection[int], cfg: ParticipatingConfig, **kwargs
) -> ParticipatingResult:
    """Fixed point from the restricted start pool.

    Always a subset of the canonical fixed point, and the variant whose
    potential trajectory the guarantee checks are stated for.
    """
    state = _thinning_state(g, s)
    start = _restricted_mask(g, state, cfg.eps_p)
    return _fixed_point(g, state, cfg, start, "restricted", **kwargs)


def boundary_expansion_fraction(g: Graph, s: Collection[int]) -> Fraction:
    """Boundary expansion as an exact rational (see ``_BoundaryHits.exact``)."""
    return _BoundaryHits(g, *_closure(g, _proper_subset(g, s))).exact()


@dataclass
class ActiveFractionReport:
    """Guarantee audit for one instance.

    When the instance qualifies (config hypothesis holds and the boundary
    expansion is within eps_h) the report carries: the start potential and
    its analytic ceiling, monotonicity and per-active-step drop flags for the
    restricted run, and the surviving-boundary fraction against its floor.
    """

    skipped: bool
    reason: str | None = None
    h_value: float | None = None
    boundary_size: int | None = None
    surviving_boundary: int | None = None
    fraction_floor: float | None = None
    fraction_ok: bool | None = None
    phi_start: float | None = None
    phi_start_ceiling: float | None = None
    phi_start_ok: bool | None = None
    monotone_ok: bool | None = None
    active_drop_ok: bool | None = None

    @property
    def all_ok(self) -> bool:
        return not self.skipped and bool(
            self.fraction_ok and self.phi_start_ok and self.monotone_ok and self.active_drop_ok
        )


def active_fraction_check(
    g: Graph,
    s: Collection[int],
    cfg: ParticipatingConfig,
    *,
    full: ParticipatingResult | None = None,
    modified: ParticipatingResult | None = None,
) -> ActiveFractionReport:
    """Audit the construction's guarantees on one instance.

    Skips (without failing) when the config violates eps_p < (1-eps_h)/3 or
    the instance's boundary expansion exceeds eps_h; both are hypothesis
    violations, not defects.

    A caller that already has a fixed point of the instance can pass it:
    ``full`` from ``compute_participating`` (only its sets are read) and
    ``modified`` from ``compute_participating_modified``, tracked, in the
    default order. Either one not given is computed here. A given run that
    the audit reads and that is not of this set (``full`` not started from
    every node, or with an active set other than its pool within the closure
    of ``s``; ``modified`` untracked, or not started from the restricted
    start of ``s`` at its own eps_p) raises ``InputError``.
    """
    in_bd, in_closure = _closure(g, _proper_subset(g, s))
    if not cfg.hypothesis_ok:
        return ActiveFractionReport(
            skipped=True,
            reason=f"config outside guarantee regime: eps_p={cfg.eps_p} "
            f">= (1-eps_h)/3={(1 - cfg.eps_h) / 3}",
        )
    hits = _BoundaryHits(g, in_bd, in_closure)
    h = hits.exact()
    if h > cfg.eps_h:
        return ActiveFractionReport(
            skipped=True,
            reason=f"boundary expansion {float(h):.6g} exceeds eps_h={float(cfg.eps_h):.6g}",
            h_value=float(h),
        )
    b = hits.boundary.size
    unit, scale = _sampling_units(g)
    state = (in_bd, in_closure, unit, scale)

    if modified is None:
        modified = _fixed_point(g, state, cfg, _restricted_mask(g, state, cfg.eps_p), "restricted")
    elif modified.trajectory is None or modified.start != set(
        np.flatnonzero(_restricted_mask(g, state, modified.eps_p)).tolist()
    ):
        raise InputError("modified is not a tracked run of this set from its restricted start")
    # phi[i] / scale is the potential after step i, every trajectory denominator
    # dividing the sampling scale; every comparison below is cross-multiplied
    phi = [
        p1.numerator * (scale // p1.denominator) + p2.numerator * (scale // p2.denominator)
        for p1, p2 in modified.trajectory
    ]
    phi0_ceiling = cfg.eps_h / (1 - cfg.eps_p) * b
    phi0_ok = phi[0] * phi0_ceiling.denominator <= phi0_ceiling.numerator * scale

    monotone_ok = all(after <= before for before, after in zip(phi, phi[1:]))
    min_drop = 1 - 2 * cfg.eps_p
    bound = min_drop.numerator * scale
    active_drop_ok = all(
        (phi[entry.step - 1] - phi[entry.step]) * min_drop.denominator >= bound
        for entry in modified.removal_log
        if entry.reason == "active"
    )

    if full is None:
        full = _fixed_point(g, state, cfg, np.ones(g.n, bool), "full", track_potential=False)
    elif full.start != g.node_set or full.active != set(
        np.flatnonzero(_mask(g.n, full.participating) & in_closure).tolist()
    ):
        raise InputError("full is not a fixed point of this set from every node")
    surviving = int(np.count_nonzero(_mask(g.n, full.participating) & in_bd))
    floor = 1 - cfg.eps_h / ((1 - cfg.eps_p) * (1 - 2 * cfg.eps_p))
    fraction_ok = Fraction(surviving, b) >= floor

    return ActiveFractionReport(
        skipped=False,
        h_value=float(h),
        boundary_size=b,
        surviving_boundary=surviving,
        fraction_floor=float(floor),
        fraction_ok=fraction_ok,
        phi_start=phi[0] / scale,
        phi_start_ceiling=float(phi0_ceiling),
        phi_start_ok=phi0_ok,
        monotone_ok=monotone_ok,
        active_drop_ok=active_drop_ok,
    )


def write_removal_log_csv(result: ParticipatingResult, path: str) -> None:
    """Write the removal events: step, node, reason, and post-step potential."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,node,reason,phi1,phi2,phi\n")
        for e in result.removal_log:
            fh.write(
                f"{e.step},{e.node},{e.reason},{e.phi1:.15g},{e.phi2:.15g},{e.phi:.15g}\n"
            )
