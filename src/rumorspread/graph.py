"""Immutable simple undirected graphs plus node-set operations.

A graph on node ids 0..n-1 is stored in compressed sparse row (CSR) form: two
read-only int64 arrays, ``indptr`` (n + 1 offsets) and ``indices`` (every
node's neighbors in ascending order, 2m entries). The adjacency tuples
``adj``, the ``degrees`` and ``edges()`` are derived from them on first use.
Graphs are validated at construction time: no self-loops, no parallel edges,
connected, at least two nodes. All set-valued operations take and return
``frozenset`` of node ids.
"""

from __future__ import annotations

import re
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Collection, Iterable

import numpy as np

from .errors import InputError

NodeSet = frozenset[int]

EMPTY: NodeSet = frozenset()


@dataclass(frozen=True, eq=False)
class Graph:
    """A connected simple undirected graph on nodes 0..n-1.

    The neighbors of ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, in
    ascending order; ``csr`` is the pair ``(indptr, indices)``. The
    constructor keeps arrays that are already read-only int64 and stores
    read-only int64 copies of anything else. It validates nothing: build
    graphs with :meth:`from_edges`. Two graphs are equal when their n and
    CSR arrays are.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    csr: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "indptr", _read_only(self.indptr))
        object.__setattr__(self, "indices", _read_only(self.indices))
        object.__setattr__(self, "csr", (self.indptr, self.indices))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        # int tuples hash the same under every PYTHONHASHSEED; bytes do not
        return hash((self.n, tuple(self.indptr.tolist()), tuple(self.indices.tolist())))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build and validate a graph from an edge collection.

        Args:
            n: number of nodes; ids must lie in 0..n-1.
            edges: iterable of (u, v) pairs, order-insensitive, or an (m, 2)
                integer array.

        Raises:
            InputError: on self-loops, duplicate edges, out-of-range ids,
                fewer than two nodes, or a disconnected result. The first
                offending edge in input order is the one named.
        """
        if n < 2:
            raise InputError(f"graph needs at least 2 nodes, got n={n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
            if len(edges) < _NUMPY_MIN_EDGES:
                return _python_graph(n, edges)
        try:
            pairs = np.asarray(edges)
        except ValueError:  # ragged
            return _python_graph(n, edges)
        if pairs.dtype.kind not in "iu" or pairs.shape != (len(edges), 2):
            # floats, bools, ids beyond int64 (object) or a wrong shape: the
            # edge-by-edge build treats them as it does below the threshold
            return _python_graph(n, edges)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            return _python_graph(n, pairs.tolist())  # raises, naming the first bad edge
        u, v = pairs.astype(np.int64, copy=False).T
        keys = np.concatenate((u * n + v, v * n + u))  # every edge both ways
        keys.sort()
        if np.count_nonzero(keys[1:] == keys[:-1]):  # a self-loop or a repeat
            return _python_graph(n, pairs.tolist())  # raises, naming the first bad edge
        return _connected_graph(n, keys)

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, one per node."""
        flat = self.indices.tolist()
        ptr = self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_node(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self.check_node(v)
        return self.degrees[v]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self.indptr).tolist())

    @cached_property
    def num_edges(self) -> int:
        return self.indices.size // 2

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

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, ascending."""
        u, v = self._upper()
        return list(zip(u.tolist(), v.tolist()))

    def _upper(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as arrays (u, v) with u < v, ascending: the upper
        triangle of the CSR."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

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


# Below this many edges a graph is built in Python, where numpy's fixed cost
# per call would outweigh the work. Measured on loads that run between other
# work, as one per CLI call does (caches cold), the two builds break even at
# about 200 edges; in a tight loop of loads, at about 64. Both give the same
# graph.
_NUMPY_MIN_EDGES = 200


def _python_graph(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph edge by edge. Edges are checked in input order, so the
    first one that is out of range, a self-loop or a repeat is the one named."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InputError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InputError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)
    adj = tuple(tuple(sorted(a)) for a in nbrs)
    reached = [False] * n
    reached[0] = True
    queue = deque([0])
    while queue:
        for v in adj[queue.popleft()]:
            if not reached[v]:
                reached[v] = True
                queue.append(v)
    if not all(reached):
        raise InputError("graph is not connected")
    flat = _read_only([0, *accumulate(map(len, adj)), *chain.from_iterable(adj)])
    g = Graph(n, flat[: n + 1], flat[n + 1 :])
    g.__dict__["adj"] = adj  # already built: seed the cached property
    return g


def _read_only(values) -> np.ndarray:
    """``values`` itself if it is a read-only int64 array, else a read-only
    int64 copy."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _connected_graph(n: int, keys: np.ndarray) -> Graph:
    """The graph whose arcs (u, v) are the sorted keys ``u * n + v``, once it
    is shown connected: each tree root hooks onto the smallest root across
    its arcs, then pointer jumping flattens every tree, until no arc joins
    two trees."""
    rows, cols = np.divmod(keys, n)
    label = np.arange(n)
    while True:
        np.minimum.at(label, label[rows], label[cols])
        up = label[label]
        while np.count_nonzero(up != label):
            label = up
            up = label[label]
        if not np.count_nonzero(label[rows] != label[cols]):
            break
    if np.count_nonzero(label):
        raise InputError("graph is not connected")
    return Graph(n, np.searchsorted(rows, np.arange(n + 1)), cols)


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

# Lines that are all blank or ``#`` comments, then lines that each hold two
# canonical integers (as ``str(int(token))`` writes them). At most 18 digits,
# so every value fits in int64. The body is checked by searching for a line
# break that does not start such a line: a repeated group matching the
# lines instead would keep backtracking state for every line (hundreds of
# bytes each) unless its quantifier were possessive, which needs Python 3.11.
_INT = r"(?:0|-?[1-9][0-9]{0,17})"
_HEADER = r"(?:[ \t]*(?:#[^\n]*)?\n)*"
_NOT_INT_PAIR = rf"\n(?![ \t]*{_INT}[ \t]+{_INT}[ \t]*(?:\n|\Z))"


def _int_pairs(text: str) -> tuple[dict[str, int], np.ndarray] | None:
    """The label -> id mapping and the flat (u, v, u, v, ...) ids of an edge
    list holding only canonical integers after its header, or None for any
    other text."""
    # compiled on first use (and cached by re), not at import
    start = re.compile(_HEADER).match(text).end()
    body = "\n" + text[start : len(text) - text.endswith("\n")]  # each line after a break
    if re.compile(_NOT_INT_PAIR).search(body):  # an empty body fails here too
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < 4 * values.size:
        # ids by a presence table over the label range: no sort needed
        present = np.zeros(hi - lo + 1, dtype=bool)
        present[values - lo] = True
        labels = np.flatnonzero(present) + lo
        ids = (np.cumsum(present) - 1)[values - lo]
    else:
        labels, ids = np.unique(values, return_inverse=True)
    return dict(zip(map(str, labels.tolist()), range(labels.size))), ids


def _tokenized_pairs(path: str, lines: Iterable[str]) -> tuple[dict[str, int], list[int]]:
    """The label -> id mapping and the flat ids of any edge list, read line
    by line so that a malformed line is reported by its number."""
    tokens: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected two tokens, got {len(parts)}")
        tokens += parts
    if not tokens:
        raise InputError(f"{path}: no edges found")
    labels = set(tokens)
    try:
        # ties such as 1/01 go by the label string, not by hash-seeded set order
        ordered = sorted(labels, key=lambda t: (int(t), t))
    except ValueError:
        ordered = sorted(labels)
    mapping = dict(zip(ordered, range(len(ordered))))
    return mapping, [mapping[t] for t in tokens]


def load_edge_list(path: str) -> tuple[Graph, dict[str, int]]:
    """Read a whitespace-separated edge list file.

    Node labels may be arbitrary tokens; they are relabeled to 0..n-1 and the
    label -> id mapping is returned alongside the graph. Labels that all parse
    as integers are ordered numerically (``01`` before ``1``, by the string),
    otherwise lexicographically. Lines starting with ``#`` are ignored.
    Self-loops and repeated edges are dropped with a warning; a disconnected
    result is rejected.

    A file of canonical integer pairs after a block of comment and blank
    lines, which is what :func:`save_edge_list` writes, is parsed in one
    vectorized pass once it is long enough for numpy to pay off; other text
    is tokenized line by line.
    """
    # bytes decoded at once skip the text layer, which costs more than the
    # parse of a small file; line ends are translated as text mode would
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    small = text.count("\n") < _NUMPY_MIN_EDGES
    parsed = None if small else _int_pairs(text)
    mapping, ids = parsed or _tokenized_pairs(path, text.split("\n"))
    n = len(mapping)
    if small:
        pairs = list(zip(ids[0::2], ids[1::2]))
        edges = {(u, v) if u < v else (v, u) for u, v in pairs if u != v}
        dropped_loops = sum(1 for u, v in pairs if u == v)
        dropped_dups = len(pairs) - dropped_loops - len(edges)
    else:
        u, v = np.asarray(ids, dtype=np.int64).reshape(-1, 2).T
        keep = u != v
        dropped_loops = u.size - int(np.count_nonzero(keep))
        keys = np.sort(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        edges = np.stack(np.divmod(keys[first], n), axis=1)
        dropped_dups = keys.size - len(edges)
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
        flat = np.stack(g._upper(), axis=1).ravel().tolist()
        fh.write("%d %d\n" * g.num_edges % tuple(flat))


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
