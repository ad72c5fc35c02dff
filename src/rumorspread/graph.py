"""Immutable simple undirected graphs plus node-set operations.

A graph on node ids 0..n-1 is stored in compressed sparse row (CSR) form: two
read-only int64 arrays, ``indptr`` (n + 1 offsets) and ``indices`` (every
node's neighbors in ascending order, 2m entries). The same arrays as Python
lists ``csr_lists``, the ``degrees`` and ``edges()`` are derived from them on
first use. Every walk in the package reads the CSR; the adjacency tuples
``adj`` and ``neighbors(v)`` are views for callers, built only when asked for.
Graphs are validated at construction time: no self-loops, no parallel edges,
connected, at least two nodes. Every graph, generated or loaded, of any
size, is built by the one numpy CSR build (``_sorted_arcs`` and
``_connected_graph``). All set-valued operations take and return
``frozenset`` of node ids.
"""

from __future__ import annotations

import operator
import re
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
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
        _check_order(n)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            pairs = np.asarray(edges)
        except ValueError:  # ragged
            pairs = None
        if (
            pairs is None
            or pairs.dtype.kind not in "iu"
            or pairs.shape != (len(edges), 2)
            or (pairs.size and (pairs.min() < 0 or pairs.max() >= n))
        ):
            # floats, bools, ids beyond int64 (object), a wrong shape or an
            # id out of range: raises unless the ids are integers after all
            # (bools, small ints as objects) or there are none
            _check_edges(n, edges)
            pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        keys = _sorted_arcs(n, *pairs.astype(np.int64, copy=False).T)
        if np.count_nonzero(keys[1:] == keys[:-1]):  # a self-loop or a repeat
            _check_edges(n, pairs.tolist())  # raises, naming the first bad edge
        return _connected_graph(n, keys)

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, one per node."""
        ptr, flat = self.csr_lists
        return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))

    @cached_property
    def csr_lists(self) -> tuple[list[int], list[int]]:
        """``(indptr, indices)`` as Python lists, for code that walks the
        graph node by node: a slice ``indices[indptr[v]:indptr[v + 1]]`` is
        a list of Python ints."""
        return self.indptr.tolist(), self.indices.tolist()

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_node(v)
        ptr, flat = self.csr_lists
        return tuple(flat[ptr[v] : ptr[v + 1]])

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
        if fs and set(map(type, fs)) == {int} and min(fs) >= 0 and max(fs) < self.n:
            return fs  # Python ints in range, checked without a Python loop
        for v in fs:
            if not isinstance(v, (int, np.integer)) or not (0 <= v < self.n):
                raise InputError(f"node id {v!r} out of range for n={self.n}")
        return frozenset(int(v) for v in fs)


def _check_order(n: int) -> None:
    if n < 2:
        raise InputError(f"graph needs at least 2 nodes, got n={n}")


# the largest trial or sample count: numpy sizes an array of that many 8-byte values
_MAX_COUNT = np.iinfo(np.intp).max // 8


def _check_count(what: str, count: int, least: int) -> None:
    if count < least:
        raise InputError(f"{what} must be >= {least}, got {count}")
    if count > _MAX_COUNT:
        raise InputError(f"{what} must be at most {_MAX_COUNT}, got {count}")


def _check_edges(n: int, pairs: Iterable[tuple[int, int]]) -> None:
    """Check edges in input order, so that the first one that is out of
    range, a self-loop, a repeat or not a pair of integers is the one named."""
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
        try:
            operator.index(u), operator.index(v)
        except TypeError:
            raise TypeError(f"edge ({u},{v}): node ids must be integers") from None


def _read_only(values) -> np.ndarray:
    """``values`` itself if it is a read-only int64 array, else a read-only
    int64 copy."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _sorted_arcs(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The keys ``u * n + v`` of every edge both ways, sorted."""
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    return keys


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
    indptr = np.searchsorted(rows, np.arange(n + 1))
    indptr.setflags(write=False)
    cols.setflags(write=False)
    return Graph(n, indptr, cols)


# -- set operations --------------------------------------------------------


def boundary(g: Graph, s: Collection[int]) -> NodeSet:
    """Nodes outside ``s`` with at least one neighbor inside it."""
    fs = g.check_set(s)
    ptr, flat = g.csr_lists
    out: set[int] = set()
    for u in fs:
        for v in flat[ptr[u] : ptr[u + 1]]:
            if v not in fs:
                out.add(v)
    return frozenset(out)


def closure(g: Graph, s: Collection[int]) -> NodeSet:
    """The set together with its boundary."""
    fs = g.check_set(s)
    return fs | boundary(g, fs)


def _neighbour_lists(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR neighbour lists of the int64 array ``nodes``, laid end to end,
    and for each entry the index in ``nodes`` of the node it neighbours."""
    first = g.indptr[nodes]
    d = g.indptr[nodes + 1] - first
    owner = np.repeat(np.arange(nodes.size), d)
    return g.indices[np.arange(owner.size) + np.repeat(first - (np.cumsum(d) - d), d)], owner


def _neighbour_sums(g: Graph, values: np.ndarray) -> np.ndarray:
    """Per node, the sum of ``values`` (one per node) over its neighbours;
    counts for a boolean ``values``."""
    return np.add.reduceat(values[g.indices], g.indptr[:-1])


def _mask(n: int, nodes: Collection[int]) -> np.ndarray:
    """A boolean mask over 0..n-1 of the int collection ``nodes``."""
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = True
    return mask


def _closure(g: Graph, fs: NodeSet) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the boundary of ``fs`` and of its closure."""
    in_s = _mask(g.n, fs)
    in_closure = in_s | (_neighbour_sums(g, in_s) > 0)
    return in_closure & ~in_s, in_closure


def _proper_subset(g: Graph, s: Collection[int]) -> NodeSet:
    """``s`` as a validated frozenset, which must be a nonempty proper subset
    of the nodes: the sets whose boundary the expansion measures read."""
    fs = g.check_set(s)
    if not fs or len(fs) == g.n:
        raise InputError("set must be a nonempty proper subset")
    return fs


def cut_size(g: Graph, s: Collection[int]) -> int:
    """Number of edges with exactly one endpoint in ``s``."""
    fs = g.check_set(s)
    ptr, flat = g.csr_lists
    return sum(1 for u in fs for v in flat[ptr[u] : ptr[u + 1]] if v not in fs)


def volume(g: Graph, s: Collection[int]) -> int:
    """Sum of degrees over the set."""
    fs = g.check_set(s)
    return sum(g.degrees[u] for u in fs)


def edges_between(g: Graph, a: Collection[int], b: Collection[int]) -> int:
    """Number of edges with one endpoint in ``a`` and the other in ``b``.

    The two sets must be disjoint.
    """
    fa, fb = g.check_set(a), g.check_set(b)
    if fa & fb:
        raise InputError("edges_between expects disjoint sets")
    if len(fa) > len(fb):
        fa, fb = fb, fa
    ptr, flat = g.csr_lists
    return sum(1 for u in fa for v in flat[ptr[u] : ptr[u + 1]] if v in fb)


def is_dominating(g: Graph, s: Collection[int]) -> bool:
    """True iff every node is in ``s`` or adjacent to it."""
    fs = g.check_set(s)
    return len(closure(g, fs)) == g.n


def harmonic_mass(g: Graph, s: Collection[int]) -> float:
    """Sum of inverse degrees over the set (empty set gives 0)."""
    fs = g.check_set(s)
    return sum(1.0 / g.degrees[u] for u in fs)


def bfs_distances(g: Graph, source: int) -> list[int]:
    g.check_node(source)
    ptr, flat = g.csr_lists
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in flat[ptr[u] : ptr[u + 1]]:
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

# Files of at least this many lines are parsed with numpy when they hold only
# integer pairs (see ``_int_pairs``), shorter ones line by line, where
# numpy's fixed cost per call would outweigh the parse. Measured on loads
# that run between other work, as one per CLI call does (caches cold), the
# two paths break even between 37 and 41 lines: about 0.19 ms each, against
# 0.15 ms at 13 lines and 0.21 ms at 61 for the line-by-line path. Both
# give the same result.
_NUMPY_MIN_LINES = 40

# Blank lines and ``#`` comment lines at the top of a file.
_HEADER = rb"(?:[ \t]*(?:#[^\n]*)?\n)*"

# Digits 1-9 as 1, so that one search finds a minus sign after any digit;
# and 10**1..10**17, against which an |int| counts its digits, up to 18.
_NONZERO_AS_ONE = bytes.maketrans(b"23456789", b"11111111")
_POWERS = 10 ** np.arange(1, 18)

# str(i) for i up to the largest n of a file labelled 0..n-1 loaded so far.
_ID_LABELS: list[str] = []


def _int_pairs(data: bytes) -> tuple[dict[str, int], np.ndarray] | None:
    """The label -> id mapping and the flat (u, v, u, v, ...) ids of an edge
    list whose lines after its header all read ``<int> <int>``: one space
    between two integers written as ``str(int(token))`` writes them, with at
    most 18 digits so that each fits in int64. None for any other text.

    The bytes are checked before ``np.fromstring`` parses them: with its
    digits and minus signs deleted the body reads `` \\n`` once per line,
    and no minus sign follows a digit or a minus or comes before a 0, a space
    or a line end. The values must then be two per line (no token is empty),
    and the tokens must take as many bytes as the values, each counted as
    its minus sign and its digits, at most 18 (-2**63, whose magnitude
    overflows, counts one). A token of at most 18 digits parses exactly and
    is that long only when canonical; a longer one, whether ``fromstring``
    saturates it or wraps it modulo 2**64, is longer than its value so
    counted. So equal totals rule out leading zeros and tokens of 19 digits
    or more."""
    # compiled on first use (and cached by re), not at import
    body = data[re.compile(_HEADER).match(data).end() :]
    if not body.endswith(b"\n"):
        body += b"\n"
    lines = body.count(b"\n")
    if body.translate(None, b"0123456789-") != b" \n" * lines:
        return None
    minus = body.count(b"-")
    marked = body.translate(_NONZERO_AS_ONE) if minus else b""
    if any(p in marked for p in (b"0-", b"1-", b"--", b"-0", b"- ", b"-\n")):
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    if values.size != 2 * lines:
        return None
    digits = int(np.searchsorted(_POWERS, np.abs(values), side="right").sum())
    if values.size + digits + minus != len(body) - 2 * lines:
        return None
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < 4 * values.size:
        # ids by a presence table over the label range: no sort needed
        present = np.zeros(hi - lo + 1, dtype=bool)
        present[values - lo] = True
        if lo == 0 and present.all():
            # labels 0..n-1, as save_edge_list writes them: each is its own id
            _ID_LABELS.extend(map(str, range(len(_ID_LABELS), hi + 1)))
            return dict(zip(_ID_LABELS, range(hi + 1))), values
        labels = np.flatnonzero(present) + lo
        ids = (np.cumsum(present) - 1)[values - lo]
    else:
        # the sorted distinct labels and each value's rank in them, as
        # np.unique gives them; its plain form imports numpy.ma on first use
        labels = np.sort(values)
        labels = labels[np.concatenate(([True], labels[1:] != labels[:-1]))]
        ids = np.searchsorted(labels, values)
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
    label -> id mapping, in id order, is returned alongside the graph. Labels
    that all parse as integers are ordered numerically (``01`` before ``1``,
    by the string), otherwise lexicographically. Lines starting with ``#``
    are ignored. Self-loops and repeated edges are dropped with a warning; a
    disconnected result is rejected.

    A file of at least ``_NUMPY_MIN_LINES`` (40) lines whose lines after a
    block of comment and blank lines all read ``<int> <int>`` (one space
    between two canonical integers of at most 18 digits, which is what
    :func:`save_edge_list` writes) is parsed with numpy; any other text is
    tokenized line by line, with the same result. Either way the graph is
    built as :meth:`Graph.from_edges` builds it.
    """
    # bytes skip the text layer, which costs more than the parse of a small
    # file (bad UTF-8 still raises); line ends are translated as text mode would
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("utf-8")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    parsed = None if data.count(b"\n") < _NUMPY_MIN_LINES else _int_pairs(data)
    mapping, ids = parsed or _tokenized_pairs(path, data.decode("utf-8").split("\n"))
    n = len(mapping)
    u, v = np.asarray(ids, dtype=np.int64).reshape(-1, 2).T
    keep = u != v
    dropped_loops = u.size - int(np.count_nonzero(keep))
    if dropped_loops:
        u, v = u[keep], v[keep]
    keys = _sorted_arcs(n, u, v)
    repeat = keys[1:] == keys[:-1]
    dropped_dups = int(np.count_nonzero(repeat)) // 2  # a repeated edge repeats both arcs
    if dropped_dups:
        keys = keys[np.concatenate(([True], ~repeat))]
    if dropped_loops:
        warnings.warn(f"{path}: dropped {dropped_loops} self-loop(s)", stacklevel=2)
    if dropped_dups:
        warnings.warn(f"{path}: dropped {dropped_dups} duplicate edge(s)", stacklevel=2)
    try:
        _check_order(n)
        g = _connected_graph(n, keys)
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
