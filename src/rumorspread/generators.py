"""Graph family constructors.

Every function returns a validated :class:`~rumorspread.graph.Graph`.
Randomized families are deterministic given their seed, reject degenerate
parameters with :class:`InputError`, and redraw through ``_redraw`` until the
sample is connected, raising :class:`ConstructionError` when ``RETRY_BUDGET``
runs out. ``_FAMILIES`` names each family's builder, which :class:`FamilySpec`
looks up in this module when it builds.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import ConstructionError, InputError
from .graph import Graph, NodeSet

RETRY_BUDGET = 1000


def complete(n: int) -> Graph:
    """Clique on n nodes (n >= 2)."""
    if n < 2:
        raise InputError(f"complete graph needs n >= 2, got {n}")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    """Path on n nodes (n >= 2)."""
    if n < 2:
        raise InputError(f"path needs n >= 2, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle on n nodes (n >= 3)."""
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return Graph.from_edges(n, edges)


def star(leaves: int) -> Graph:
    """Star with center node 0 and the given number of leaves (>= 1)."""
    if leaves < 1:
        raise InputError(f"star needs at least 1 leaf, got {leaves}")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube: ids 0..2^d-1 adjacent iff Hamming distance 1."""
    if not 1 <= d <= 62:  # 2**d nodes, an int64
        raise InputError(f"hypercube needs 1 <= d <= 62, got {d}")
    n = 1 << d
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)]
    return Graph.from_edges(n, edges)


def two_cliques_shared_vertex(m: int) -> Graph:
    """Two m-cliques sharing node 0; 2m-1 nodes, diameter 2 for m >= 3.

    Clique one is {0} + {1..m-1}, clique two is {0} + {m..2m-2}.
    """
    if m < 2:
        raise InputError(f"two_cliques_shared_vertex needs m >= 2, got {m}")
    left = [0] + list(range(1, m))
    right = [0] + list(range(m, 2 * m - 1))
    edges = set()
    for block in (left, right):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(2 * m - 1, sorted(edges))


def dumbbell(m: int) -> Graph:
    """Two disjoint m-cliques joined by a single bridge edge; 2m nodes.

    The bridge runs between node m-1 (first clique) and node m (second).
    """
    if m < 2:
        raise InputError(f"dumbbell needs m >= 2, got {m}")
    edges = []
    for base in (0, m):
        block = range(base, base + m)
        edges.extend((u, v) for u in block for v in block if u < v)
    edges.append((m - 1, m))
    return Graph.from_edges(2 * m, edges)


def _redraw(n: int, draw: Callable[[], list[tuple[int, int]] | None], failure: str) -> Graph:
    """The first sample of ``draw`` that ``Graph.from_edges(n, ...)`` accepts (a
    draw of None is a stalled attempt); after ``RETRY_BUDGET`` attempts, raises
    :class:`ConstructionError` with ``failure``."""
    for _ in range(RETRY_BUDGET):
        edges = draw()
        if edges is None:
            continue
        try:
            return Graph.from_edges(n, edges)
        except InputError:
            continue
    raise ConstructionError(f"{failure} after {RETRY_BUDGET} attempts")


def _pair_stubs(n: int, degree: int, rng: random.Random) -> list[tuple[int, int]] | None:
    """One pairing-model attempt; returns edges or None if it got stuck."""
    edges: set[tuple[int, int]] = set()
    # Each node appears `degree` times in the stub pool.
    stubs = [v for v in range(n) for _ in range(degree)]
    while stubs:
        rng.shuffle(stubs)
        retry: list[int] = []
        progress = False
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            key = (u, v) if u < v else (v, u)
            if u == v or key in edges:
                retry.extend((u, v))
            else:
                edges.add(key)
                progress = True
        if not progress:
            return None
        stubs = retry
    return sorted(edges)


def random_regular(n: int, degree: int, rng_seed: int) -> Graph:
    """Random degree-regular simple connected graph via stub pairing.

    Clashing stub pairs are re-queued and re-shuffled; an attempt that stalls
    or produces a disconnected graph is discarded. Gives up with
    :class:`ConstructionError` after the retry budget.
    """
    if n < 2 or degree < 1 or degree >= n:
        raise InputError(f"random_regular needs 2 <= degree+1 <= n, got n={n} degree={degree}")
    if n * degree % 2 != 0:
        raise InputError(f"n*degree must be even, got n={n} degree={degree}")
    rng = random.Random(rng_seed)
    return _redraw(
        n, lambda: _pair_stubs(n, degree, rng), f"random_regular(n={n}, degree={degree}) failed"
    )


def erdos_renyi(n: int, p: float, rng_seed: int) -> Graph:
    """G(n, p) conditioned on being connected, by rejection."""
    if n < 2:
        raise InputError(f"erdos_renyi needs n >= 2, got {n}")
    if not (0 < p <= 1):
        raise InputError(f"edge probability must be in (0, 1], got {p}")
    rng = random.Random(rng_seed)
    return _redraw(
        n,
        lambda: [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
        f"erdos_renyi(n={n}, p={p}) failed to draw a connected sample",
    )


def _clustered_edge_sets(
    num_components: int, degree: int, c: int, rng_seed: int
) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int]]]:
    """Component-wise regular edges plus deduplicated random extra edges.

    Returns (intra, extra) where intra[k] holds component k's regular edges on
    its own id block, already shifted to global ids. Exposed separately so the
    pre-augmentation structure can be inspected.
    """
    block = c * degree
    n = num_components * block
    rng = random.Random(rng_seed)
    intra: list[list[tuple[int, int]]] = []
    for k in range(num_components):
        sub = random_regular(block, degree, rng.randrange(2**63))
        base = k * block
        intra.append([(u + base, v + base) for u, v in sub.edges()])
    # One uniform target per node over all other nodes; duplicates (against
    # component edges or each other) are dropped rather than redrawn.
    existing = {e for comp in intra for e in comp}
    extra: list[tuple[int, int]] = []
    for u in range(n):
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        key = (u, v) if u < v else (v, u)
        if key not in existing:
            existing.add(key)
            extra.append(key)
    return intra, extra


def _clustered_order(num_components: int, degree: int, c: int) -> int:
    """The node count of ``clustered_regular`` with these parameters, once
    they are checked, without drawing the graph."""
    if num_components < 2:
        raise InputError(f"need at least 2 components, got {num_components}")
    if c < 2:
        raise InputError(f"need c >= 2, got {c}")
    block = c * degree
    if degree < 1 or degree >= block:
        raise InputError(f"degree {degree} infeasible for component size {block}")
    if block * degree % 2 != 0:
        raise InputError(
            f"component size {block} with degree {degree} has odd degree sum"
        )
    return num_components * block


def clustered_regular(num_components: int, degree: int, c: int, rng_seed: int) -> Graph:
    """Disjoint random regular components wired up by per-node random edges.

    Builds ``num_components`` random degree-regular graphs, each on
    ``c * degree`` nodes, then lets every node draw one uniform target among
    all other nodes and adds the deduplicated edges. Redraws until connected.
    """
    n = _clustered_order(num_components, degree, c)
    rng = random.Random(rng_seed)

    def draw() -> list[tuple[int, int]]:
        intra, extra = _clustered_edge_sets(num_components, degree, c, rng.randrange(2**63))
        return [e for comp in intra for e in comp] + extra

    failure = f"clustered_regular({num_components}, {degree}, c={c}) stayed disconnected"
    return _redraw(n, draw, failure)


def greedy_dominating_set(g: Graph) -> NodeSet:
    """Greedy max-coverage dominating set; ties broken by lowest node id.

    Repeatedly picks the node whose closed neighborhood covers the most
    still-uncovered nodes until everything is covered. Gains only fall, so a
    heap of (-gain, node) entries is refreshed lazily: a stale top entry goes
    back with its node's current gain, and a current one is the pick.
    """
    ptr, flat = g.csr_lists
    gain = [d + 1 for d in g.degrees]
    heap = [(-c, v) for v, c in enumerate(gain)]
    heapq.heapify(heap)
    uncovered = [True] * g.n
    left = g.n
    chosen: list[int] = []
    while left:
        neg, best = heap[0]
        if -neg != gain[best]:
            heapq.heapreplace(heap, (-gain[best], best))
            continue
        heapq.heappop(heap)
        chosen.append(best)
        for w in (best, *flat[ptr[best] : ptr[best + 1]]):
            if uncovered[w]:
                uncovered[w] = False
                left -= 1
                gain[w] -= 1
                for x in flat[ptr[w] : ptr[w + 1]]:
                    gain[x] -= 1
    return frozenset(chosen)


# -- declarative construction ----------------------------------------------

# name -> (its builder's name in this module, looked up when a spec builds so
# that a wrapper set on the module sees it; the parameters and their types).
# The order is that of the CLI choices; ``gen``'s flags follow first use.
_FAMILIES = {
    "complete": ("complete", {"n": int}),
    "path": ("path", {"n": int}),
    "cycle": ("cycle", {"n": int}),
    "star": ("star", {"leaves": int}),
    "hypercube": ("hypercube", {"d": int}),
    "two_cliques": ("two_cliques_shared_vertex", {"m": int}),
    "dumbbell": ("dumbbell", {"m": int}),
    "random_regular": ("random_regular", {"n": int, "degree": int, "rng_seed": int}),
    "erdos_renyi": ("erdos_renyi", {"n": int, "p": float, "rng_seed": int}),
    "clustered_regular": (
        "clustered_regular",
        {"num_components": int, "degree": int, "c": int, "rng_seed": int},
    ),
}

FAMILY_NAMES = tuple(_FAMILIES)
# every family parameter with its type
_PARAM_TYPES = {k: t for _, types in _FAMILIES.values() for k, t in types.items()}


def _family_types(family: str) -> dict[str, type]:
    """The parameter types of a family name, which must be known."""
    if family not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    return _FAMILIES[family][1]


@dataclass(frozen=True)
class FamilySpec:
    """A graph family name plus its size/seed parameters.

    ``params`` must supply exactly the keys the family requires, e.g.
    ``FamilySpec("hypercube", {"d": 3})`` or
    ``FamilySpec("random_regular", {"n": 64, "degree": 8, "rng_seed": 1})``.
    """

    family: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        required = set(_family_types(self.family))
        got = set(self.params)
        if got != required:
            raise InputError(
                f"family {self.family!r} needs params {sorted(required)}, "
                f"got {sorted(got)}"
            )

    def build(self) -> Graph:
        return globals()[_FAMILIES[self.family][0]](**self.params)

    def describe(self) -> str:
        """Stable one-line description used in file provenance headers."""
        inner = " ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"family={self.family} {inner}".strip()
