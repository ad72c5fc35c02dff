"""Immutable simple undirected graphs plus node-set operations.

Graphs are stored as sorted adjacency tuples over node ids 0..n-1 and are
validated at construction time: no self-loops, no parallel edges, connected,
at least two nodes. All set-valued operations take and return ``frozenset``
of node ids.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable

import numpy as np

from .errors import InputError

NodeSet = frozenset[int]

EMPTY: NodeSet = frozenset()


@dataclass(frozen=True)
class Graph:
    """A connected simple undirected graph on nodes 0..n-1."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build and validate a graph from an edge collection.

        Args:
            n: number of nodes; ids must lie in 0..n-1.
            edges: iterable of (u, v) pairs, order-insensitive.

        Raises:
            InputError: on self-loops, duplicate edges, out-of-range ids,
                fewer than two nodes, or a disconnected result.
        """
        if n < 2:
            raise InputError(f"graph needs at least 2 nodes, got n={n}")
        seen: set[tuple[int, int]] = set()
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            nbrs[u].add(v)
            nbrs[v].add(u)
        g = Graph(n, tuple(tuple(sorted(s)) for s in nbrs))
        if not g._is_connected():
            raise InputError("graph is not connected")
        return g

    def _is_connected(self) -> bool:
        if any(len(a) == 0 for a in self.adj):
            return False
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == self.n

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_node(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self.check_node(v)
        return len(self.adj[v])

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    @cached_property
    def num_edges(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees)

    @cached_property
    def min_degree(self) -> int:
        return min(self.degrees)

    @cached_property
    def is_regular(self) -> bool:
        return self.min_degree == self.max_degree

    def nodes(self) -> range:
        return range(self.n)

    @cached_property
    def node_set(self) -> NodeSet:
        return frozenset(range(self.n))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened adjacency (indptr, indices) for vectorized simulation."""
        degs = np.array(self.degrees, dtype=np.int64)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = np.fromiter(
            (v for a in self.adj for v in a), dtype=np.int64, count=int(indptr[-1])
        )
        return indptr, indices

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def check_node(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"node id {v} out of range for n={self.n}")

    def check_set(self, s: Collection[int]) -> NodeSet:
        """Normalize a node collection to a frozenset, validating ids."""
        fs = frozenset(s)
        for v in fs:
            if not isinstance(v, (int, np.integer)) or not (0 <= v < self.n):
                raise InputError(f"node id {v!r} out of range for n={self.n}")
        return frozenset(int(v) for v in fs)


# -- set operations --------------------------------------------------------


def boundary(g: Graph, s: Collection[int]) -> NodeSet:
    """Nodes outside ``s`` with at least one neighbor inside it."""
    fs = g.check_set(s)
    out: set[int] = set()
    for u in fs:
        for v in g.adj[u]:
            if v not in fs:
                out.add(v)
    return frozenset(out)


def closure(g: Graph, s: Collection[int]) -> NodeSet:
    """The set together with its boundary."""
    fs = g.check_set(s)
    return fs | boundary(g, fs)


def cut_size(g: Graph, s: Collection[int]) -> int:
    """Number of edges with exactly one endpoint in ``s``."""
    fs = g.check_set(s)
    return sum(1 for u in fs for v in g.adj[u] if v not in fs)


def volume(g: Graph, s: Collection[int]) -> int:
    """Sum of degrees over the set."""
    fs = g.check_set(s)
    return sum(len(g.adj[u]) for u in fs)


def edges_between(g: Graph, a: Collection[int], b: Collection[int]) -> int:
    """Number of edges with one endpoint in ``a`` and the other in ``b``.

    The two sets must be disjoint.
    """
    fa, fb = g.check_set(a), g.check_set(b)
    if fa & fb:
        raise InputError("edges_between expects disjoint sets")
    if len(fa) > len(fb):
        fa, fb = fb, fa
    return sum(1 for u in fa for v in g.adj[u] if v in fb)


def is_dominating(g: Graph, s: Collection[int]) -> bool:
    """True iff every node is in ``s`` or adjacent to it."""
    fs = g.check_set(s)
    return len(closure(g, fs)) == g.n


def harmonic_mass(g: Graph, s: Collection[int]) -> float:
    """Sum of inverse degrees over the set (empty set gives 0)."""
    fs = g.check_set(s)
    return sum(1.0 / len(g.adj[u]) for u in fs)


def bfs_distances(g: Graph, source: int) -> list[int]:
    g.check_node(source)
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist

def diameter(g: Graph) -> int:
    """Largest shortest-path distance over all node pairs."""
    best = 0
    for u in range(g.n):
        best = max(best, max(bfs_distances(g, u)))
    return best


# -- file formats ----------------------------------------------------------


def load_edge_list(path: str) -> tuple[Graph, dict[str, int]]:
    """Read a whitespace-separated edge list file.

    Node labels may be arbitrary tokens; they are relabeled to 0..n-1 and the
    label -> id mapping is returned alongside the graph. Labels that all parse
    as integers are ordered numerically (``01`` before ``1``, by the string),
    otherwise lexicographically. Lines starting with ``#`` are ignored.
    Self-loops and repeated edges are dropped with a warning; a disconnected
    result is rejected.
    """
    raw_edges: list[tuple[str, str]] = []
    labels: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise InputError(
                    f"{path}:{lineno}: expected two tokens, got {len(parts)}"
                )
            raw_edges.append((parts[0], parts[1]))
            labels.update(parts)
    if not labels:
        raise InputError(f"{path}: no edges found")
    try:
        # ties such as 1/01 go by the label string, not by hash-seeded set order
        ordered = sorted(labels, key=lambda t: (int(t), t))
    except ValueError:
        ordered = sorted(labels)
    mapping = {lab: i for i, lab in enumerate(ordered)}
    n = len(ordered)

    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    dropped_loops = 0
    dropped_dups = 0
    for a, b in raw_edges:
        u, v = mapping[a], mapping[b]
        if u == v:
            dropped_loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            dropped_dups += 1
            continue
        seen.add(key)
        edges.append(key)
    if dropped_loops:
        warnings.warn(f"{path}: dropped {dropped_loops} self-loop(s)", stacklevel=2)
    if dropped_dups:
        warnings.warn(f"{path}: dropped {dropped_dups} duplicate edge(s)", stacklevel=2)
    try:
        g = Graph.from_edges(n, edges)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return g, mapping


def save_edge_list(g: Graph, path: str, header: Iterable[str] = ()) -> None:
    """Write the graph as an edge list, optionally with ``#`` header lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def load_node_set(path: str) -> NodeSet:
    """Read a node-set file: one id per line, ``#`` comments allowed."""
    out: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                out.add(int(stripped))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: not a node id: {stripped!r}") from exc
    return frozenset(out)


def save_node_set(s: Collection[int], path: str, header: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for v in sorted(s):
            fh.write(f"{v}\n")
