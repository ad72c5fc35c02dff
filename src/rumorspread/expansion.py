"""Expansion measures for node sets and graphs.

Set-level measures evaluate a formula on one set. Graph-level measures
minimize over subsets by exhaustive enumeration in Gray-code order (one node
toggled per step, with boundary, cut and volume maintained incrementally) and
are therefore limited to small graphs; they raise CapabilityError beyond the
limit and direct the caller to per-set evaluation.

Measures:

* vertex expansion: boundary size over set size,
* conductance: cut size over volume,
* boundary expansion: expected fraction of the closure's boundary reached
  when each boundary node is sampled with probability one over its degree,
* combined expansion: vertex expansion times the conductance of the boundary,
* augmented combined expansion: same with the boundary conductance offset by
  1/log2(max degree).

Exact values are tracked as rationals during enumeration so ties are broken
deterministically (lexicographically smallest witness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterator

import numpy as np

from . import rng
from .errors import CapabilityError, InputError
from .graph import Graph, NodeSet, boundary, closure, cut_size, edges_between, volume

DEFAULT_ENUMERATION_LIMIT = 20


@dataclass
class ExpansionReport:
    """A measure evaluation with provenance.

    ``witness`` is the minimizing set for enumerated graph-level measures,
    ``samples``/``stderr`` are set for Monte-Carlo estimates. ``exact`` keeps
    the rational value of enumerated measures for exact comparisons; it is
    not part of the serialized form.
    """

    measure: str
    value: float
    witness: tuple[int, ...] | None
    method: str
    samples: int | None = None
    stderr: float | None = None
    exact: Fraction | None = None

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure,
            "value": self.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "method": self.method,
            "samples": self.samples,
            "stderr": self.stderr,
        }


def _check_proper_subset(g: Graph, s: Collection[int]) -> NodeSet:
    fs = g.check_set(s)
    if not fs:
        raise InputError("set must be nonempty")
    if len(fs) == g.n:
        raise InputError("set must be a proper subset")
    return fs


def _check_enumerable(g: Graph, max_nodes: int | None, what: str) -> None:
    limit = DEFAULT_ENUMERATION_LIMIT if max_nodes is None else max_nodes
    if g.n > limit:
        raise CapabilityError(
            f"{what} enumerates all subsets and is capped at {limit} nodes "
            f"(got n={g.n}); evaluate the set-level measure instead"
        )


# -- set-level measures ----------------------------------------------------


def vertex_expansion_set(g: Graph, s: Collection[int]) -> float:
    """Boundary size over set size, for a nonempty proper subset."""
    fs = _check_proper_subset(g, s)
    return len(boundary(g, fs)) / len(fs)


def conductance_set(g: Graph, s: Collection[int]) -> float:
    """Cut size over volume, for a nonempty set."""
    fs = g.check_set(s)
    if not fs:
        raise InputError("set must be nonempty")
    return cut_size(g, fs) / volume(g, fs)


def _boundary_expansion(g: Graph, fs: NodeSet, bd: NodeSet, sampled: NodeSet, one):
    """Boundary-expansion formula with only ``sampled`` (part of the boundary
    ``bd`` of ``fs``) sampled, in the arithmetic of ``one``: 1.0 for floats,
    Fraction(1) for exact rationals."""
    assert bd, "proper nonempty subset of a connected graph has a boundary"
    total = one - one
    for v in boundary(g, fs | bd):
        miss = one
        for u in g.adj[v]:
            if u in sampled:
                miss *= one - one / len(g.adj[u])
        total += one - miss
    return total / len(bd)


def _boundary_contacts(g: Graph, fs: NodeSet) -> tuple[list, list, np.ndarray]:
    """Sorted boundary, sorted boundary of the closure (second shell), and the
    float32 0/1 matrix whose entry (i, j) marks an edge between the i-th
    second-shell node and the j-th boundary node."""
    bd = sorted(boundary(g, fs))
    bd2 = sorted(boundary(g, fs | frozenset(bd)))
    bd_index = {u: j for j, u in enumerate(bd)}
    contact = np.zeros((len(bd2), len(bd)), dtype=np.float32)
    for i, v in enumerate(bd2):
        for u in g.adj[v]:
            j = bd_index.get(u)
            if j is not None:
                contact[i, j] = 1.0
    return bd, bd2, contact


def boundary_expansion_exact(g: Graph, s: Collection[int]) -> float:
    """Expected fraction of the closure's boundary hit by a degree-weighted
    random sample of the boundary.

    Each boundary node u enters the sample independently with probability
    1/deg(u); a node of the closure's boundary is hit if any neighbor is
    sampled. The value is the expected hit count divided by the boundary
    size. Zero exactly when the closure already covers the graph.
    """
    fs = _check_proper_subset(g, s)
    bd = boundary(g, fs)
    return _boundary_expansion(g, fs, bd, bd, 1.0)


def boundary_expansion_due_to(g: Graph, s: Collection[int], t: Collection[int]) -> float:
    """Contribution of a boundary subset ``t`` to the boundary expansion.

    Same formula as the exact measure but only nodes of ``t`` are sampled;
    the denominator stays the full boundary size. Monotone in ``t``.
    """
    fs = _check_proper_subset(g, s)
    bd = boundary(g, fs)
    ts = g.check_set(t)
    if not ts <= bd:
        raise InputError("t must be a subset of the boundary")
    return _boundary_expansion(g, fs, bd, ts, 1.0)


def boundary_expansion_mc(
    g: Graph, s: Collection[int], samples: int, rng_seed: int
) -> ExpansionReport:
    """Monte-Carlo estimate of the boundary expansion with standard error."""
    fs = _check_proper_subset(g, s)
    if samples < 2:
        raise InputError("need at least 2 samples")
    bd, bd2, contact = _boundary_contacts(g, fs)
    mean = stderr = 0.0  # without a second shell there is nothing to hit
    if bd2:
        m = len(bd)
        p = np.array([1.0 / len(g.adj[u]) for u in bd])
        gen = rng.stream(rng_seed, rng.LANE_SAMPLER)
        values = np.empty(samples, dtype=np.float64)
        batch = max(1, min(samples, (1 << 22) // m))
        for done in range(0, samples, batch):
            b = min(batch, samples - done)
            sampled = (gen.random((b, m)) < p).astype(np.float32)
            hits = sampled @ contact.T
            values[done : done + b] = (hits > 0).sum(axis=1) / m
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(samples))
    return ExpansionReport(
        measure="boundary-expansion",
        value=mean,
        witness=None,
        method="monte-carlo",
        samples=samples,
        stderr=stderr,
    )


def combined_expansion_set(g: Graph, s: Collection[int]) -> float:
    """Vertex expansion of the set times the conductance of its boundary."""
    fs = _check_proper_subset(g, s)
    bd = boundary(g, fs)
    return vertex_expansion_set(g, fs) * conductance_set(g, bd)


def augmented_combined_expansion_set(g: Graph, s: Collection[int]) -> float:
    """Combined expansion with the boundary conductance offset by
    1/log2(max degree). Needs max degree >= 2."""
    fs = _check_proper_subset(g, s)
    if g.max_degree < 2:
        raise InputError("augmented combined expansion needs max degree >= 2")
    bd = boundary(g, fs)
    offset = 1.0 / math.log2(g.max_degree)
    return vertex_expansion_set(g, fs) * (conductance_set(g, bd) + offset)


# -- exhaustive graph-level measures ---------------------------------------


class _SubsetWalk:
    """Gray-code walk over all nonempty subsets with incremental state.

    After each step the public fields describe the current subset: membership
    flags, size, volume, cut size, and the boundary as a set. One node is
    toggled per step, so each update costs O(degree of the toggled node).
    """

    def __init__(self, g: Graph):
        self.g = g
        self.in_s = [False] * g.n
        self.size = 0
        self.vol = 0
        self.cut = 0
        self.nbr_in_s = [0] * g.n
        self.boundary: set[int] = set()

    def _toggle(self, v: int) -> None:
        adj = self.g.adj[v]
        if not self.in_s[v]:
            self.boundary.discard(v)
            self.in_s[v] = True
            self.size += 1
            self.vol += len(adj)
            for u in adj:
                if self.in_s[u]:
                    self.cut -= 1
                else:
                    self.cut += 1
                self.nbr_in_s[u] += 1
                if not self.in_s[u] and self.nbr_in_s[u] == 1:
                    self.boundary.add(u)
        else:
            self.in_s[v] = False
            self.size -= 1
            self.vol -= len(adj)
            for u in adj:
                if self.in_s[u]:
                    self.cut += 1
                else:
                    self.cut -= 1
                self.nbr_in_s[u] -= 1
                if not self.in_s[u] and self.nbr_in_s[u] == 0:
                    self.boundary.discard(u)
            if self.nbr_in_s[v] > 0:
                self.boundary.add(v)

    def members(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.g.n) if self.in_s[v])

    def walk(self) -> Iterator[None]:
        """Visit every nonempty subset exactly once."""
        for i in range(1, 1 << self.g.n):
            self._toggle((i & -i).bit_length() - 1)
            yield None


def _minimize(
    g: Graph, candidate_value
) -> tuple[Fraction, tuple[int, ...]]:
    """Run a subset walk keeping the minimum over admissible subsets.

    ``candidate_value(state)`` returns a Fraction or None if the subset is
    out of the measure's domain. Ties prefer the lexicographically smallest
    member tuple.
    """
    walkst = _SubsetWalk(g)
    best: Fraction | None = None
    best_witness: tuple[int, ...] | None = None
    for _ in walkst.walk():
        value = candidate_value(walkst)
        if value is None:
            continue
        if best is None or value < best:
            best = value
            best_witness = walkst.members()
        elif value == best:
            w = walkst.members()
            if w < best_witness:
                best_witness = w
    assert best is not None and best_witness is not None
    return best, best_witness


def vertex_expansion_graph(g: Graph, max_nodes: int | None = None) -> ExpansionReport:
    """Minimum vertex expansion over subsets of at most half the nodes."""
    _check_enumerable(g, max_nodes, "vertex expansion")
    half = Fraction(g.n, 2)

    def value(st: _SubsetWalk) -> Fraction | None:
        if 0 < st.size <= half:
            return Fraction(len(st.boundary), st.size)
        return None

    best, witness = _minimize(g, value)
    return ExpansionReport(
        measure="vertex-expansion",
        value=float(best),
        witness=witness,
        method="exact-enumeration",
        exact=best,
    )


def conductance_graph(g: Graph, max_nodes: int | None = None) -> ExpansionReport:
    """Minimum conductance over subsets of at most half the total volume."""
    _check_enumerable(g, max_nodes, "conductance")
    half_vol = g.num_edges  # volume of the whole graph is twice the edges

    def value(st: _SubsetWalk) -> Fraction | None:
        if 0 < st.vol <= half_vol:
            return Fraction(st.cut, st.vol)
        return None

    best, witness = _minimize(g, value)
    return ExpansionReport(
        measure="conductance",
        value=float(best),
        witness=witness,
        method="exact-enumeration",
        exact=best,
    )


def combined_expansion_graph(g: Graph, max_nodes: int | None = None) -> ExpansionReport:
    """Minimum combined expansion over subsets of at most half the nodes."""
    _check_enumerable(g, max_nodes, "combined expansion")
    half = Fraction(g.n, 2)
    adj = g.adj

    def value(st: _SubsetWalk) -> Fraction | None:
        if not (0 < st.size <= half):
            return None
        bd = st.boundary
        vol_b = 0
        cut_b = 0
        for u in bd:
            for w in adj[u]:
                vol_b += 1
                if w not in bd:
                    cut_b += 1
        return Fraction(len(bd), st.size) * Fraction(cut_b, vol_b)

    best, witness = _minimize(g, value)
    return ExpansionReport(
        measure="combined-expansion",
        value=float(best),
        witness=witness,
        method="exact-enumeration",
        exact=best,
    )


def sandwich_alpha_phi(g: Graph, max_nodes: int | None = None) -> bool:
    """Check the degree-ratio sandwich between conductance and vertex
    expansion: (min_deg/max_deg) * conductance <= vertex expansion
    <= max_deg * conductance, both graph-level."""
    alpha = vertex_expansion_graph(g, max_nodes).exact
    phi = conductance_graph(g, max_nodes).exact
    lo = Fraction(g.min_degree, g.max_degree) * phi
    hi = Fraction(g.max_degree) * phi
    return lo <= alpha <= hi


# -- regular-graph relations ------------------------------------------------


def _require_regular(g: Graph, what: str) -> int:
    if not g.is_regular:
        raise InputError(f"{what} is defined for regular graphs only")
    return g.max_degree


def regular_h_sandwich(g: Graph, s: Collection[int]) -> tuple[float, float, float]:
    """On a regular graph, bracket the boundary expansion by the edge count
    between the boundary and the closure's boundary.

    Returns (lower, value, upper) where lower = E/(2*deg*|B|) and
    upper = E/(deg*|B|), E being that edge count and B the boundary.
    """
    deg = _require_regular(g, "the boundary-edge sandwich")
    fs = _check_proper_subset(g, s)
    bd = boundary(g, fs)
    bd2 = boundary(g, fs | bd)
    e = edges_between(g, bd, bd2) if bd2 else 0
    h = boundary_expansion_exact(g, fs)
    lower = e / (2 * deg * len(bd))
    upper = e / (deg * len(bd))
    if not (lower <= h + 1e-12 and h <= upper + 1e-12):
        raise AssertionError("boundary-edge sandwich violated; internal bug")
    return lower, h, upper


def regular_s_factor(g: Graph, s: Collection[int]) -> float:
    """Position of the boundary conductance between its two expansion-based
    expressions on a regular graph.

    The boundary's cut splits into edges toward the set and edges toward the
    closure's boundary; the latter part equals s * boundary_expansion for
    some s in [1, 2]. Undefined (raises) when the boundary expansion is 0.
    """
    deg = _require_regular(g, "the s-factor")
    fs = _check_proper_subset(g, s)
    h = boundary_expansion_exact(g, fs)
    if h == 0.0:
        raise InputError("s-factor undefined: boundary expansion is zero")
    bd = boundary(g, fs)
    phi_b = conductance_set(g, bd)
    inner = edges_between(g, bd, fs) / (deg * len(bd))
    return (phi_b - inner) / h


# -- degree-class decomposition --------------------------------------------


@dataclass(frozen=True)
class DegreeClassDecomposition:
    """Partition of a set's boundary into degree classes.

    ``low`` holds boundary nodes of degree at most c*|boundary|, ``mid``
    those with degree up to the set size, ``high`` the rest, where
    c = (split_threshold/3)^2 / 8. ``contributions`` are the per-class
    boundary-expansion contributions; they sum to at least the full value,
    so whenever that value is >= the threshold some class certifies at least
    a third of it. Small boundaries can make c*|boundary| < 1, which empties
    the low class; the partition is reported as-is in that regime.

    ``mid_heaviest_degree`` (densest dyadic degree scale in ``mid``),
    ``mid_scale_count`` (number of dyadic scales the mid range spans) and
    ``high_degree_floor`` (bound every high degree exceeds) are diagnostics.
    """

    split_threshold: float
    c: float
    low: NodeSet
    mid: NodeSet
    high: NodeSet
    contributions: tuple[float, float, float]
    certifying_classes: tuple[str, ...]
    mid_heaviest_degree: int | None
    mid_scale_count: float
    high_degree_floor: float


def degree_class_decomposition(
    g: Graph, s: Collection[int], split_threshold: float
) -> DegreeClassDecomposition:
    """Split the boundary by degree and attribute the boundary expansion.

    ``split_threshold`` is the level the full boundary expansion is compared
    against; the class thresholds depend on it through c.
    """
    if not (0 < split_threshold < 1):
        raise InputError(f"split threshold must be in (0,1), got {split_threshold}")
    fs = _check_proper_subset(g, s)
    bd = boundary(g, fs)
    c = (split_threshold / 3.0) ** 2 / 8.0
    low_cap = c * len(bd)
    size_cap = len(fs)
    high_floor = max(float(size_cap), low_cap)
    low, mid, high = set(), set(), set()
    for u in bd:
        d = len(g.adj[u])
        if d <= low_cap:
            low.add(u)
        elif d <= size_cap:
            mid.add(u)
        else:
            high.add(u)
    contribs = tuple(
        boundary_expansion_due_to(g, fs, cls) for cls in (low, mid, high)
    )
    third = split_threshold / 3.0
    names = ("low", "mid", "high")
    certifying = tuple(
        name for name, contrib in zip(names, contribs) if contrib >= third
    )
    if mid:
        mid_degs = sorted(len(g.adj[u]) for u in mid)
        best_k, best_count = None, -1
        for k in mid_degs:
            count = sum(1 for d in mid_degs if k <= d <= 2 * k)
            if count > best_count:
                best_k, best_count = k, count
    else:
        best_k = None
    lo_scale = max(low_cap, float(g.min_degree))
    hi_scale = 2.0 * min(float(size_cap), float(g.max_degree))
    scale_count = math.log2(hi_scale / lo_scale) if hi_scale > lo_scale > 0 else 0.0
    return DegreeClassDecomposition(
        split_threshold=split_threshold,
        c=c,
        low=frozenset(low),
        mid=frozenset(mid),
        high=frozenset(high),
        contributions=contribs,
        certifying_classes=certifying,
        mid_heaviest_degree=best_k,
        mid_scale_count=scale_count,
        high_degree_floor=high_floor,
    )
