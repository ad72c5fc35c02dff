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
so each removal costs O(deg) and the whole run O(n + m) besides the queue.
With ``track_potential`` the potential (phi1, phi2) is audited at every step:
both components are kept twice, summed from the sender side and from the
receiver side, each updated by O(deg) deltas of the removed node, and the two
forms must agree exactly after each step. A full recompute checks the start
state and must reproduce the end state.

All threshold comparisons are exact: sampling masses are integer numerators
over the lcm of the degrees, cross-multiplied against eps_p. A float eps is
interpreted by its decimal literal (0.15 means 3/20).
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Sequence

from .errors import InputError
from .expansion import _boundary_expansion
from .graph import Graph, NodeSet, boundary, closure

_ORDERS = ("lowest", "batch", "random")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
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


def _inv_degrees(g: Graph) -> list[Fraction]:
    return [Fraction(1, len(g.adj[v])) for v in range(g.n)]


def _potential_parts(
    g: Graph, s_plus: NodeSet, pool: Collection[int], inv: Sequence[Fraction]
) -> tuple[Fraction, Fraction]:
    """Both potential components, each computed two ways and cross-checked.

    phi1 charges edges from active nodes to removed nodes; phi2 charges edges
    from removed closure nodes back into the pool. Each is summed once from
    the sender side and once from the receiver side; the two forms must agree
    exactly, which guards the bookkeeping here and in any caller.
    """
    p = frozenset(pool)
    a = p & s_plus
    phi1_send = Fraction(0)
    phi1_recv = Fraction(0)
    phi2_send = Fraction(0)
    phi2_recv = Fraction(0)
    for u in a:
        phi1_send += sum((inv[u] for v in g.adj[u] if v not in p), Fraction(0))
    for u in range(g.n):
        if u not in p:
            phi1_recv += sum((inv[v] for v in g.adj[u] if v in a), Fraction(0))
    removed_closure = s_plus - a
    for u in removed_closure:
        phi2_send += sum((inv[u] for v in g.adj[u] if v in p), Fraction(0))
    for u in p:
        phi2_recv += sum(
            (inv[v] for v in g.adj[u] if v in removed_closure), Fraction(0)
        )
    if phi1_send != phi1_recv or phi2_send != phi2_recv:
        raise AssertionError("potential dual forms disagree; internal bug")
    return phi1_send, phi2_send


def potential(g: Graph, s: Collection[int], pool: Collection[int]) -> tuple[float, float, float]:
    """Potential of a candidate pool against the closure of ``s``.

    Returns (phi1, phi2, phi1 + phi2) as floats; the exact dual-form
    cross-check runs internally.
    """
    fs = g.check_set(s)
    if not fs:
        raise InputError("set must be nonempty")
    s_plus = closure(g, fs)
    p1, p2 = _potential_parts(g, s_plus, g.check_set(pool), _inv_degrees(g))
    return float(p1), float(p2), float(p1 + p2)


def restricted_start(g: Graph, s: Collection[int], cfg: ParticipatingConfig) -> NodeSet:
    """Start pool for the modified construction: the closure plus those
    second-shell nodes whose boundary-neighbor sampling mass reaches
    2*eps_p."""
    fs = g.check_set(s)
    if not fs:
        raise InputError("set must be nonempty")
    bd = boundary(g, fs)
    s_plus = fs | bd
    bd2 = boundary(g, s_plus)
    inv = _inv_degrees(g)
    threshold = 2 * cfg.eps_p
    extra = {
        u
        for u in bd2
        if sum((inv[v] for v in g.adj[u] if v in bd), Fraction(0)) >= threshold
    }
    return s_plus | extra


def _sampling_units(g: Graph) -> tuple[list[int], int]:
    """Sampling masses as integer numerators over one common denominator:
    1/deg(v) == unit[v] / scale, scale being the lcm of all degrees."""
    scale = math.lcm(*(len(nbrs) for nbrs in g.adj))
    return [scale // len(nbrs) for nbrs in g.adj], scale


class _RunningPotential:
    """phi1 and phi2 of a shrinking pool, each kept twice: summed from the
    sender side and from the receiver side, as in ``_potential_parts``.

    The four sums are exact numerators over ``scale`` (see
    ``_sampling_units``). ``remove(x)`` applies the O(deg x) change of taking
    ``x`` out of the pool and must run while ``x`` is still pooled. The
    sender path charges x's own edges by count, then the one changed edge of
    each closure neighbour; the receiver path charges what x starts or stops
    receiving, then what each neighbour receives from x. ``parts()`` compares
    the two forms and returns (phi1, phi2).
    """

    def __init__(self, g: Graph, unit, scale, in_closure, in_pool, start) -> None:
        self.adj, self.unit, self.scale = g.adj, unit, scale
        self.in_closure, self.in_pool = in_closure, in_pool
        self.phi1_send = self.phi1_recv = int(start[0] * scale)
        self.phi2_send = self.phi2_recv = int(start[1] * scale)

    def remove(self, x: int) -> None:
        unit, in_closure, in_pool = self.unit, self.in_closure, self.in_pool
        nbrs = self.adj[x]
        # sender side: an active x stops sending into its holes and becomes
        # a removed closure node sending into the pool; each closure
        # neighbour gains a hole (if pooled) or loses a pooled target
        if in_closure[x]:
            pooled = sum(1 for w in nbrs if in_pool[w])
            self.phi1_send -= unit[x] * (len(nbrs) - pooled)
            self.phi2_send += unit[x] * pooled
        for w in nbrs:
            if in_closure[w]:
                if in_pool[w]:
                    self.phi1_send += unit[w]
                else:
                    self.phi2_send -= unit[w]
        # receiver side: x, now a hole, receives from its active neighbours
        # and, out of the pool, no longer receives from removed closure
        # neighbours; a closure x changes what every neighbour receives
        x_closure = in_closure[x]
        for v in nbrs:
            if in_closure[v]:
                if in_pool[v]:
                    self.phi1_recv += unit[v]
                else:
                    self.phi2_recv -= unit[v]
            if x_closure:
                if in_pool[v]:
                    self.phi2_recv += unit[x]
                else:
                    self.phi1_recv -= unit[x]

    def parts(self) -> tuple[Fraction, Fraction]:
        if self.phi1_send != self.phi1_recv or self.phi2_send != self.phi2_recv:
            raise AssertionError("potential dual forms disagree; internal bug")
        return Fraction(self.phi1_send, self.scale), Fraction(self.phi2_send, self.scale)


def participating_fixed_point(
    g: Graph,
    s: Collection[int],
    cfg: ParticipatingConfig,
    *,
    start: Collection[int] | None = None,
    order: str = "lowest",
    rng: random.Random | None = None,
    track_potential: bool = True,
    start_rule: str = "custom",
) -> ParticipatingResult:
    """Run the thinning procedure from a start pool to its fixed point.

    ``order`` selects which violator goes next: "lowest" removes the lowest
    id (the canonical log order), "batch" removes all current violators at
    once, "random" draws one using ``rng``. The fixed point itself does not
    depend on this choice.
    """
    if order not in _ORDERS:
        raise InputError(f"unknown removal order {order!r}; known: {_ORDERS}")
    if order == "random" and rng is None:
        raise InputError("random removal order needs an rng")
    fs = g.check_set(s)
    if not fs or len(fs) == g.n:
        raise InputError("set must be a nonempty proper subset")
    s_plus = closure(g, fs)
    pool_start = g.check_set(start) if start is not None else g.node_set
    adj = g.adj
    unit, scale = _sampling_units(g)

    in_pool = [False] * g.n
    for v in pool_start:
        in_pool[v] = True
    in_closure = [v in s_plus for v in range(g.n)]
    # Incremental per-node state: pooled-neighbor count and the sampling mass
    # of active (pooled closure) neighbors, as a numerator over scale.
    pool_nbrs = [0] * g.n
    active_mass = [0] * g.n
    for v in pool_start:
        for w in adj[v]:
            pool_nbrs[w] += 1
            if in_closure[v]:
                active_mass[w] += unit[v]
    # lhs < eps_p, with lhs = lhs_num / scale, cross-multiplied
    eps_num, eps_den = cfg.eps_p.numerator, cfg.eps_p.denominator
    bound = eps_num * scale

    def violates(u: int) -> bool:
        lhs_num = active_mass[u]
        if in_closure[u]:
            lhs_num += pool_nbrs[u] * unit[u]
        return lhs_num * eps_den < bound

    # The queue holds exactly the pooled violators: violation is monotone in
    # the pool, so a queued node stays a violator, and a removal can only
    # turn its own neighbours into violators. "lowest" keeps a min-heap,
    # "random" a sorted list (indexed like the ascending violator list),
    # "batch" the violators found since the last batch.
    queued = [False] * g.n
    queue = [u for u in range(g.n) if in_pool[u] and violates(u)]
    for u in queue:
        queued[u] = True

    running: _RunningPotential | None = None
    trajectory: list[tuple[Fraction, Fraction]] | None = None
    if track_potential:
        inv = _inv_degrees(g)
        trajectory = [_potential_parts(g, s_plus, pool_start, inv)]
        running = _RunningPotential(g, unit, scale, in_closure, in_pool, trajectory[0])

    def remove(u: int) -> None:
        if running is not None:
            running.remove(u)
        in_pool[u] = False
        for w in adj[u]:
            pool_nbrs[w] -= 1
            if in_closure[u]:
                active_mass[w] -= unit[u]
        for w in adj[u]:
            if in_pool[w] and not queued[w] and violates(w):
                queued[w] = True
                if order == "lowest":
                    heapq.heappush(queue, w)
                elif order == "random":
                    bisect.insort(queue, w)
                else:
                    queue.append(w)

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
            trajectory.append((p1, p2))
            f1, f2, ftot = float(p1), float(p2), float(p1 + p2)
        else:
            f1 = f2 = ftot = float("nan")
        for u in batch:
            reason = "active" if in_closure[u] else "passive"
            log.append(RemovalStep(step, u, reason, f1, f2, ftot))

    pool = frozenset(v for v in range(g.n) if in_pool[v])
    if trajectory is not None and _potential_parts(g, s_plus, pool, inv) != trajectory[-1]:
        raise AssertionError("running potential drifted from its recompute; internal bug")
    act = pool & s_plus
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
    return participating_fixed_point(g, s, cfg, start=None, start_rule="full", **kwargs)


def compute_participating_modified(
    g: Graph, s: Collection[int], cfg: ParticipatingConfig, **kwargs
) -> ParticipatingResult:
    """Fixed point from the restricted start pool.

    Always a subset of the canonical fixed point, and the variant whose
    potential trajectory the guarantee checks are stated for.
    """
    start = restricted_start(g, s, cfg)
    return participating_fixed_point(
        g, s, cfg, start=start, start_rule="restricted", **kwargs
    )


def boundary_expansion_fraction(g: Graph, s: Collection[int]) -> Fraction:
    """Boundary expansion as an exact rational (small graphs only)."""
    fs = g.check_set(s)
    if not fs or len(fs) == g.n:
        raise InputError("set must be a nonempty proper subset")
    bd = boundary(g, fs)
    return _boundary_expansion(g, fs, bd, bd, Fraction(1))


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
    g: Graph, s: Collection[int], cfg: ParticipatingConfig
) -> ActiveFractionReport:
    """Audit the construction's guarantees on one instance.

    Skips (without failing) when the config violates eps_p < (1-eps_h)/3 or
    the instance's boundary expansion exceeds eps_h; both are hypothesis
    violations, not defects.
    """
    fs = g.check_set(s)
    if not fs or len(fs) == g.n:
        raise InputError("set must be a nonempty proper subset")
    if not cfg.hypothesis_ok:
        return ActiveFractionReport(
            skipped=True,
            reason=f"config outside guarantee regime: eps_p={cfg.eps_p} "
            f">= (1-eps_h)/3={(1 - cfg.eps_h) / 3}",
        )
    h = boundary_expansion_fraction(g, fs)
    if h > cfg.eps_h:
        return ActiveFractionReport(
            skipped=True,
            reason=f"boundary expansion {float(h):.6g} exceeds eps_h={float(cfg.eps_h):.6g}",
            h_value=float(h),
        )
    bd = boundary(g, fs)
    b = len(bd)

    modified = compute_participating_modified(g, s, cfg)
    assert modified.trajectory is not None
    phi0 = modified.phi(0)
    phi0_ceiling = cfg.eps_h / (1 - cfg.eps_p) * b
    phi0_ok = phi0 <= phi0_ceiling

    monotone_ok = all(
        modified.phi(i + 1) <= modified.phi(i) for i in range(modified.steps)
    )
    min_drop = 1 - 2 * cfg.eps_p
    active_drop_ok = True
    for entry in modified.removal_log:
        if entry.reason == "active":
            drop = modified.phi(entry.step - 1) - modified.phi(entry.step)
            if drop < min_drop:
                active_drop_ok = False
                break

    full = compute_participating(g, s, cfg, track_potential=False)
    surviving = len(bd & full.participating)
    floor = 1 - cfg.eps_h / ((1 - cfg.eps_p) * (1 - 2 * cfg.eps_p))
    fraction_ok = Fraction(surviving, b) >= floor

    return ActiveFractionReport(
        skipped=False,
        h_value=float(h),
        boundary_size=b,
        surviving_boundary=surviving,
        fraction_floor=float(floor),
        fraction_ok=fraction_ok,
        phi_start=float(phi0),
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
                f"{e.step},{e.node},{e.reason},{format(e.phi1, '.15g')},"
                f"{format(e.phi2, '.15g')},{format(e.phi, '.15g')}\n"
            )
