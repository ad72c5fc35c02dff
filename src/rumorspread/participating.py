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

All threshold comparisons use exact rational arithmetic; a float eps is
interpreted by its decimal literal (0.15 means 3/20).
"""

from __future__ import annotations

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
    inv = _inv_degrees(g)

    in_pool = [False] * g.n
    for v in pool_start:
        in_pool[v] = True
    in_closure = [v in s_plus for v in range(g.n)]
    # Incremental per-node state: pooled-neighbor count and the sampling mass
    # of active (pooled closure) neighbors.
    pool_nbrs = [0] * g.n
    active_mass = [Fraction(0)] * g.n
    for v in pool_start:
        for w in g.adj[v]:
            pool_nbrs[w] += 1
            if in_closure[v]:
                active_mass[w] = active_mass[w] + inv[v]

    def violates(u: int) -> bool:
        if in_closure[u]:
            lhs = Fraction(pool_nbrs[u], len(g.adj[u])) + active_mass[u]
        else:
            lhs = active_mass[u]
        return lhs < cfg.eps_p

    def remove(u: int) -> None:
        in_pool[u] = False
        for w in g.adj[u]:
            pool_nbrs[w] -= 1
            if in_closure[u]:
                active_mass[w] = active_mass[w] - inv[u]

    log: list[RemovalStep] = []
    trajectory: list[tuple[Fraction, Fraction]] | None = None

    def snapshot() -> tuple[Fraction, Fraction]:
        pool = [v for v in range(g.n) if in_pool[v]]
        return _potential_parts(g, s_plus, pool, inv)

    if track_potential:
        trajectory = [snapshot()]

    step = 0
    while True:
        violators = [u for u in range(g.n) if in_pool[u] and violates(u)]
        if not violators:
            break
        step += 1
        if order == "lowest":
            batch = [violators[0]]
        elif order == "batch":
            batch = violators
        else:
            batch = [violators[rng.randrange(len(violators))]]
        reasons = {u: "active" if in_closure[u] else "passive" for u in batch}
        for u in batch:
            remove(u)
        if track_potential:
            p1, p2 = snapshot()
            trajectory.append((p1, p2))
            f1, f2, ftot = float(p1), float(p2), float(p1 + p2)
        else:
            f1 = f2 = ftot = float("nan")
        for u in batch:
            log.append(RemovalStep(step, u, reasons[u], f1, f2, ftot))

    pool = frozenset(v for v in range(g.n) if in_pool[v])
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
