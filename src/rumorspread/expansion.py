"""Expansion measures for node sets and graphs.

Set-level measures evaluate a formula on one set. Graph-level measures
minimize over all subsets by exhaustive enumeration and are therefore limited
to small graphs (20 nodes by default); they raise CapabilityError beyond the
limit and direct the caller to per-set evaluation. The enumeration is
vectorized over int64 subset bitmasks: per-digit lookup tables (16 nodes a
digit) give the volume and cut of any mask, and one popcount
(``np.bitwise_count``) gives every member count. The subsets are visited in
chunks of up to 2^16 masks that share the bits above the low digit and whose
low bits are the low tables' own index, so a chunk's counts are the low
tables read in place plus the higher part's, and memory stays a few
megabytes whatever n is. Each measure walks only its domain: vertex and
combined expansion the sets of 1..n/2 nodes, skipping every chunk whose
higher part already holds more; conductance, as cut(S) = cut(V - S), only
the masks without node n-1, each standing for the side of its cut with at
most half the volume (both sides when they tie at exactly half). That is
about half the masks for each. One walk serves every measure requested
together, each measure folding a chunk into its own running minimum. Masks
cap the enumeration at 62 nodes, whatever limit the caller sets.

Measures:

* vertex expansion: boundary size over set size,
* conductance: cut size over volume,
* boundary expansion: expected fraction of the closure's boundary reached
  when each boundary node is sampled with probability one over its degree,
* combined expansion: vertex expansion times the conductance of the boundary,
* augmented combined expansion: same with the boundary conductance offset by
  1/log2(max degree).

Minima are exact: a float argmin proposes a candidate value that integer
cross-multiplication confirms, and ties go to the lexicographically smallest
witness tuple.

One walk on the CSR arrays, ``_BoundaryHits``, gives a set's boundary, second
shell and the edges between them to every reader but the float boundary
expansion, whose output bytes pin its summation order over a frozenset.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Collection, NamedTuple, Sequence

import numpy as np

from . import rng
from .errors import CapabilityError, InputError
from .graph import (
    Graph, NodeSet, _check_count, _closure, _neighbour_lists, _proper_subset, boundary, cut_size,
    edges_between, volume,
)

DEFAULT_ENUMERATION_LIMIT = 20

# Nodes per lookup-table digit; an enumeration chunk holds 2^_DIGIT_BITS
# masks at most.
_DIGIT_BITS = 16
# Masks, and the subset count 2^n, must fit in int64.
_MAX_ENUMERATION_NODES = 62
# Elements of the largest array of one block, read at call time by every
# blocked computation: the round kernel's (rows x n) arrays,
# boundary_expansion_mc's (samples x max(|boundary|, |second shell| + 1)) and
# pull_growth_check's (trials x n), a hit count's product having at most
# |second shell| + 1 columns and the second shell fewer than n - 1 nodes.
# Every draw there is addressed by (trial, round) or by its position in a
# sequential stream, so this bounds memory only and never changes a result.
_BLOCK_ELEMENTS = 1 << 20


def _block_rows(width: int) -> int:
    """Rows per block when the largest array of a block has ``width``
    columns."""
    return max(1, _BLOCK_ELEMENTS // width)


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


def _check_enumerable(n: int, max_nodes: int | None, what: str) -> None:
    """Raise unless a graph of ``n`` nodes is within the enumeration cap."""
    if max_nodes is not None and max_nodes < 1:
        raise InputError(f"enumeration cap must be at least 1 node, got {max_nodes}")
    limit = DEFAULT_ENUMERATION_LIMIT if max_nodes is None else max_nodes
    limit = min(limit, _MAX_ENUMERATION_NODES)
    if n > limit:
        raise CapabilityError(
            f"{what} enumerates all subsets and is capped at {limit} nodes "
            f"(got n={n}); evaluate the set-level measure instead"
        )


# -- set-level measures ----------------------------------------------------


def vertex_expansion_set(g: Graph, s: Collection[int]) -> float:
    """Boundary size over set size, for a nonempty proper subset."""
    fs = _proper_subset(g, s)
    return len(boundary(g, fs)) / len(fs)


def conductance_set(g: Graph, s: Collection[int]) -> float:
    """Cut size over volume, for a nonempty set."""
    fs = g.check_set(s)
    if not fs:
        raise InputError("set must be nonempty")
    return cut_size(g, fs) / volume(g, fs)


def _boundary_expansion(g: Graph, fs: NodeSet, bd: NodeSet, sampled: NodeSet) -> float:
    """Boundary-expansion formula with only ``sampled`` (part of the boundary
    ``bd`` of ``fs``) sampled, in floats."""
    assert bd, "proper nonempty subset of a connected graph has a boundary"
    ptr, flat = g.csr_lists
    total = 0.0
    for v in boundary(g, fs | bd):
        miss = 1.0
        for u in flat[ptr[v] : ptr[v + 1]]:
            if u in sampled:
                miss *= 1.0 - 1.0 / g.degrees[u]
        total += 1.0 - miss
    return total / len(bd)


class _BoundaryHits:
    """From a set's boundary and closure masks (``graph._closure``) and one walk
    over the boundary's CSR lists: the sorted boundary and its degrees, the sorted
    second shell (the closure's boundary), and each edge between them as ``outer``
    (its shell node) and ``owner`` (the index in ``boundary`` of its boundary node)."""

    def __init__(self, g: Graph, in_bd: np.ndarray, in_closure: np.ndarray):
        self.boundary = np.flatnonzero(in_bd)
        self.degrees = g.indptr[self.boundary + 1] - g.indptr[self.boundary]
        nbrs, owner = _neighbour_lists(g, self.boundary)
        out = ~in_closure[nbrs]
        self.outer, self.owner = nbrs[out], owner[out]
        self.shell = np.flatnonzero(np.bincount(self.outer, minlength=g.n))

    @cached_property
    def contact(self) -> np.ndarray:
        """The float32 (|boundary|, k + 1) matrix of the hits. Each of the k
        second-shell nodes with two or more boundary neighbours has a 0/1
        column, marking those neighbours; the last column holds, for each
        boundary node, the number of second-shell nodes whose only boundary
        neighbour it is."""
        col = np.searchsorted(self.shell, self.outer)  # each edge's shell index
        contacts = np.bincount(col, minlength=self.shell.size)  # per shell node
        single = contacts[col] == 1  # the edges of single-contact shell nodes
        multi = contacts > 1
        k = int(np.count_nonzero(multi))
        contact = np.zeros((self.boundary.size, k + 1), dtype=np.float32)
        contact[:, k] = np.bincount(self.owner[single], minlength=self.boundary.size)
        rank = np.cumsum(multi) - 1  # column of each multi-contact shell node
        contact[self.owner[~single], rank[col[~single]]] = 1.0
        return contact

    def count(self, sampled: np.ndarray) -> np.ndarray:
        """Second-shell nodes with a sampled neighbour, per row of the 0/1
        (rows, |boundary|) array ``sampled``: the multi-contact columns of
        the float32 matmul with ``contact`` that are nonzero, plus its last
        column, the single-contact nodes hit. The matmul counts exactly, as
        its sums are small integers."""
        product = sampled.astype(np.float32) @ self.contact
        hits = product[:, -1].astype(np.int64)
        hits += np.count_nonzero(product[:, :-1], axis=1)
        return hits

    def exact(self) -> Fraction:
        """The boundary expansion as an exact rational. A shell node whose
        boundary neighbours have degrees d_1..d_k is hit with probability
        (prod d_i - prod (d_i - 1)) / prod d_i, in Python ints; the terms are
        summed per denominator, then over the lcm of the denominators."""
        den: dict[int, int] = {}
        miss: dict[int, int] = {}
        for v, d in zip(self.outer.tolist(), self.degrees[self.owner].tolist()):
            den[v] = den.get(v, 1) * d
            miss[v] = miss.get(v, 1) * (d - 1)
        hit: dict[int, int] = {}  # denominator -> sum of numerators over it
        for v, d in den.items():
            hit[d] = hit.get(d, 0) + d - miss[v]
        scale = math.lcm(*hit)
        total = sum(num * (scale // d) for d, num in hit.items())
        return Fraction(total, scale * self.boundary.size)


def boundary_expansion_exact(g: Graph, s: Collection[int]) -> float:
    """Expected fraction of the closure's boundary hit by a degree-weighted
    random sample of the boundary.

    Each boundary node u enters the sample independently with probability
    1/deg(u); a node of the closure's boundary is hit if any neighbor is
    sampled. The value is the expected hit count divided by the boundary
    size. Zero exactly when the closure already covers the graph.
    """
    fs = _proper_subset(g, s)
    bd = boundary(g, fs)
    return _boundary_expansion(g, fs, bd, bd)


def boundary_expansion_due_to(g: Graph, s: Collection[int], t: Collection[int]) -> float:
    """Contribution of a boundary subset ``t`` to the boundary expansion.

    Same formula as the exact measure but only nodes of ``t`` are sampled;
    the denominator stays the full boundary size. Monotone in ``t``.
    """
    fs = _proper_subset(g, s)
    bd = boundary(g, fs)
    ts = g.check_set(t)
    if not ts <= bd:
        raise InputError("t must be a subset of the boundary")
    return _boundary_expansion(g, fs, bd, ts)


def boundary_expansion_mc(
    g: Graph, s: Collection[int], samples: int, rng_seed: int
) -> ExpansionReport:
    """Monte-Carlo estimate of the boundary expansion with standard error."""
    fs = _proper_subset(g, s)
    _check_count("samples", samples, 2)  # two for a standard error
    hits = _BoundaryHits(g, *_closure(g, fs))
    mean = stderr = 0.0  # without a second shell there is nothing to hit
    if hits.shell.size:
        m = hits.boundary.size
        p = 1.0 / hits.degrees
        gen = rng.stream(rng_seed, rng.LANE_SAMPLER)
        values = np.empty(samples, dtype=np.float64)
        rows = _block_rows(max(m, hits.shell.size + 1))
        for done in range(0, samples, rows):
            b = min(rows, samples - done)
            values[done : done + b] = hits.count(gen.random((b, m)) < p) / m
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
    fs = _proper_subset(g, s)
    bd = boundary(g, fs)
    return len(bd) / len(fs) * conductance_set(g, bd)


def augmented_combined_expansion_set(g: Graph, s: Collection[int]) -> float:
    """Combined expansion with the boundary conductance offset by
    1/log2(max degree). Needs max degree >= 2."""
    fs = _proper_subset(g, s)
    if g.max_degree < 2:
        raise InputError("augmented combined expansion needs max degree >= 2")
    bd = boundary(g, fs)
    offset = 1.0 / math.log2(g.max_degree)
    return len(bd) / len(fs) * (conductance_set(g, bd) + offset)


# -- exhaustive graph-level measures ---------------------------------------


@cache
def _low_index(width: int) -> np.ndarray:
    """The masks 0..2^width - 1, read-only; one array per width serves every
    graph."""
    index = np.arange(1 << width, dtype=np.int64)
    index.flags.writeable = False
    return index


class _Digit(NamedTuple):
    """Tables over the subsets of the nodes shift..shift+width-1, indexed by
    the mask bits of those nodes (``(mask >> shift) & bits``, one of
    ``index``): their volume, cut, and boundary (the neighbourhood less the
    set)."""

    shift: int
    bits: int
    index: np.ndarray
    vol: np.ndarray
    cut: np.ndarray
    boundary: np.ndarray


class _MaskTables:
    """Volume and cut of node masks, the digits' tables, and the edges
    between a set of higher nodes and each low-digit mask.

    Each digit's tables are built with one vectorized step per node: the
    subsets that contain the node extend those that do not, and a digit's cut
    is its volume less twice its internal edges, counted by a popcount of the
    node's neighbours in each smaller subset. An edge between two digits
    leaves both digits' cuts when both ends are in the set; such edges are
    counted per node above the low digit, by a popcount of its neighbours in
    all lower digits. All of this reads each node's neighbourhood mask, ORed
    from the CSR at once (ids stay below 62, so it fits int64).
    """

    def __init__(self, g: Graph):
        self.degrees = g.degrees
        self.nbr_masks = np.bitwise_or.reduceat(np.left_shift(1, g.indices), g.indptr[:-1]).tolist()
        self.digits: list[_Digit] = []
        self._into_low: dict[int, np.ndarray] = {}
        for shift in range(0, g.n, _DIGIT_BITS):
            width = min(_DIGIT_BITS, g.n - shift)
            index = _low_index(width)
            vol, edges, nbr = np.empty_like(index), np.empty_like(index), np.empty_like(index)
            vol[0] = edges[0] = nbr[0] = 0
            for i in range(width):
                v = shift + i
                half, full = 1 << i, 2 << i
                inner = self.nbr_masks[v] >> shift & (half - 1)  # neighbours shift..v-1
                np.add(vol[:half], self.degrees[v], out=vol[half:full])
                np.add(edges[:half], np.bitwise_count(index[:half] & inner), out=edges[half:full])
                np.bitwise_or(nbr[:half], self.nbr_masks[v], out=nbr[half:full])
            edges *= -2
            cut = np.add(edges, vol, out=edges)
            nbr &= ~(index << shift)  # the boundary: the neighbourhood less the set
            self.digits.append(_Digit(shift, (1 << width) - 1, index, vol, cut, nbr))
        # each node above the low digit with its neighbours in all lower digits
        self.cross = [
            (v, below)
            for v in range(_DIGIT_BITS, g.n)
            if (below := self.nbr_masks[v] & ((1 << (v - v % _DIGIT_BITS)) - 1))
        ]

    def stats(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Volume and cut of every mask."""
        *lower, last = self.digits
        parts = [masks >> d.shift & d.bits for d in lower]
        parts.append(masks >> last.shift if lower else masks)  # no bit at or above n
        first = self.digits[0]
        vol, cut = first.vol[parts[0]], first.cut[parts[0]]
        for part, d in zip(parts[1:], self.digits[1:]):
            vol += d.vol[part]
            cut += d.cut[part]
        for v, below in self.cross:
            cut -= (masks >> v & 1) * 2 * np.bitwise_count(masks & below)
        return vol, cut

    def part(self, top: int) -> tuple[int, int, int]:
        """Volume, cut and neighbourhood of the mask ``top``, as Python ints,
        from its members' neighbourhood masks."""
        vol = inside = nbr = 0
        for v in range(top.bit_length()):
            if top >> v & 1:
                vol += self.degrees[v]
                inside += (self.nbr_masks[v] & top).bit_count()
                nbr |= self.nbr_masks[v]
        return vol, vol - inside, nbr  # inside counts each edge from both ends

    def chunk(self, top: int, first: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The masks ``top | i`` for the low-digit indices first <= i < stop,
        with their volumes and cuts, where ``top`` has no member in the low
        digit: the low tables read in place and, if ``top`` is not empty,
        its own volume and cut less twice its edges into each low mask."""
        low = self.digits[0]
        masks, vol, cut = low.index[first:stop], low.vol[first:stop], low.cut[first:stop]
        if top:
            top_vol, top_cut, _ = self.part(top)
            masks, vol, cut = masks | top, vol + top_vol, cut + top_cut
            for v in range(top.bit_length()):
                if top >> v & 1:
                    if v not in self._into_low:
                        edges = np.bitwise_count(low.index & self.nbr_masks[v]).astype(np.int64)
                        self._into_low[v] = 2 * edges
                    cut -= self._into_low[v][first:stop]
        return masks, vol, cut


def _lex_smallest(masks: np.ndarray) -> int:
    """The mask whose sorted member tuple is lexicographically smallest.

    Integer order is not that order ({1} = 0b10 < {0, 2} = 0b101, yet
    (0, 2) < (1,)). Keep the masks with the smallest lowest member and strip
    it, until one is left. A mask that runs out of members first has lowest
    bit 0, the smallest, and wins: it is a prefix of the others. Masks must
    be distinct.
    """
    rest = masks
    while masks.size > 1:
        lowest = rest & -rest
        keep = lowest == lowest.min()
        masks, rest = masks[keep], (rest ^ lowest)[keep]
    return int(masks[0])


class _RunningMinimum:
    """The exact minimum of one measure over the chunks folded so far, with
    the masks that attain it."""

    def __init__(self) -> None:
        self.best: tuple[int, int] | None = None
        self.tied: list[np.ndarray] = []

    def fold(self, masks: np.ndarray, num: np.ndarray, den: np.ndarray) -> None:
        """Fold in one chunk: the masks in the measure's domain, with the
        numerators and (positive) denominators of their values."""
        if not masks.size:
            return
        # The float argmin proposes p/q. Two distinct values differ by at
        # least 1/(q q'), with q, q' < 2^17, which float64 resolves; integer
        # cross-multiplication confirms it.
        i = int((num / den).argmin())
        p, q = int(num[i]), int(den[i])
        lhs, rhs = num * q, p * den
        if (lhs < rhs).any():
            raise AssertionError("float argmin is not the exact minimum; internal bug")
        if self.best is not None:
            if p * self.best[1] > self.best[0] * q:
                return
            if p * self.best[1] < self.best[0] * q:
                self.tied = []
        self.best = (p, q)
        self.tied.append(masks[lhs == rhs])

    def result(self, n: int) -> tuple[Fraction, tuple[int, ...]]:
        """The minimum and the lexicographically smallest minimizing member
        tuple."""
        assert self.best is not None
        witness = _lex_smallest(np.concatenate(self.tied))
        return Fraction(*self.best), tuple(v for v in range(n) if witness >> v & 1)


def _exact_minima(
    g: Graph, measures: Collection[str]
) -> dict[str, tuple[Fraction, tuple[int, ...]]]:
    """Exact minimum of each of ``measures`` over all subsets in its domain,
    and the lexicographically smallest minimizing member tuple, from one walk
    over the subsets.

    The walk visits chunks of masks that share the bits above the low digit
    (``top``), with low bits equal to the low tables' own index, so a chunk's
    counts are the low tables read in place plus ``top``'s. Vertex and
    combined expansion visit only the sets of 1..n/2 nodes and share their
    boundaries; a chunk whose ``top`` already holds more nodes is skipped.
    |S| and |B| are popcounts cast to int64 before any product, and only
    combined expansion reads the boundaries' volumes and cuts.
    Conductance visits only the masks without node n-1, as cut(S) = cut(V-S):
    the value is cut over the smaller volume, and a mask stands for the side
    with at most half the total volume, for both sides when they tie. Each
    measure is folded into its running minimum as soon as its arrays exist,
    before the next measure's are built, so peak memory stays that of a
    one-measure walk.
    """
    minima = {measure: _RunningMinimum() for measure in measures}
    conductance = minima.get("conductance")
    alpha = minima.get("vertex-expansion")
    xi = minima.get("combined-expansion")
    tables = _MaskTables(g)
    low = tables.digits[0]
    m, without_last = g.num_edges, 1 << (g.n - 1)
    # the low masks' member counts pick the sets that alpha and xi walk
    low_size = None if alpha is None and xi is None else np.bitwise_count(low.index)
    for top in range(0, 1 << g.n, low.index.size):
        first = 0 if top else 1  # the empty set is in no domain
        if conductance is not None and top < without_last:
            masks, vol, cut = tables.chunk(top, first, min(low.index.size, without_last - top))
            den = 2 * m - vol
            conductance.fold(masks, cut, np.minimum(vol, den, out=den))
        room = g.n // 2 - top.bit_count()
        if low_size is None or room < 0:
            continue
        masks = np.flatnonzero(low_size <= room)[first:]
        bd = low.boundary[masks]
        if top:
            top_nbr = tables.part(top)[2]
            masks |= top
            bd &= ~top
            bd |= top_nbr & ~masks
        size = np.bitwise_count(masks).astype(np.int64)
        bd_size = np.bitwise_count(bd).astype(np.int64)
        if xi is not None:
            bd_vol, bd_cut = tables.stats(bd)
        del bd
        if alpha is not None:
            alpha.fold(masks, bd_size, size)
        if xi is not None:
            # (|B|/|S|) * (cut(B)/vol(B)) as one fraction
            xi.fold(masks, bd_size * bd_cut, size * bd_vol)
    if conductance is not None:
        # each tied mask stands for its side of the cut with at most half
        # the volume, and for both sides at exactly half
        walked = np.concatenate(conductance.tied)
        vol = tables.stats(walked)[0]
        complements = walked ^ ((1 << g.n) - 1)
        conductance.tied = [walked[vol <= m], complements[vol >= m]]
    return {measure: minimum.result(g.n) for measure, minimum in minima.items()}


def _enumerated(
    g: Graph, measures: Sequence[str], max_nodes: int | None
) -> dict[str, ExpansionReport]:
    """The exact graph-level minimum of each of ``measures`` as a report,
    from one enumeration; a measure named twice is computed once. The cap's
    error message names the first measure."""
    _check_enumerable(g.n, max_nodes, measures[0].replace("-", " "))
    return {
        measure: ExpansionReport(
            measure=measure,
            value=float(best),
            witness=witness,
            method="exact-enumeration",
            exact=best,
        )
        for measure, (best, witness) in _exact_minima(g, measures).items()
    }


def vertex_expansion_graph(g: Graph, max_nodes: int | None = None) -> ExpansionReport:
    """Minimum vertex expansion over subsets of at most half the nodes."""
    return _enumerated(g, ["vertex-expansion"], max_nodes)["vertex-expansion"]


def conductance_graph(g: Graph, max_nodes: int | None = None) -> ExpansionReport:
    """Minimum conductance over subsets of at most half the total volume."""
    return _enumerated(g, ["conductance"], max_nodes)["conductance"]


def combined_expansion_graph(g: Graph, max_nodes: int | None = None) -> ExpansionReport:
    """Minimum combined expansion over subsets of at most half the nodes."""
    return _enumerated(g, ["combined-expansion"], max_nodes)["combined-expansion"]


def sandwich_alpha_phi(g: Graph, max_nodes: int | None = None) -> bool:
    """Check the degree-ratio sandwich between conductance and vertex
    expansion: (min_deg/max_deg) * conductance <= vertex expansion
    <= max_deg * conductance, both graph-level."""
    reports = _enumerated(g, ["vertex-expansion", "conductance"], max_nodes)
    alpha = reports["vertex-expansion"].exact
    phi = reports["conductance"].exact
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
    fs = _proper_subset(g, s)
    hits = _BoundaryHits(g, *_closure(g, fs))
    e, b = hits.outer.size, hits.boundary.size  # the edges between the two shells
    h = boundary_expansion_exact(g, fs)
    lower = e / (2 * deg * b)
    upper = e / (deg * b)
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
    fs = _proper_subset(g, s)
    bd = boundary(g, fs)
    h = _boundary_expansion(g, fs, bd, bd)
    if h == 0.0:
        raise InputError("s-factor undefined: boundary expansion is zero")
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
    fs = _proper_subset(g, s)
    bd = boundary(g, fs)
    c = (split_threshold / 3.0) ** 2 / 8.0
    low_cap = c * len(bd)
    size_cap = len(fs)
    high_floor = max(float(size_cap), low_cap)
    low, mid, high = set(), set(), set()
    for u in bd:
        d = g.degrees[u]
        if d <= low_cap:
            low.add(u)
        elif d <= size_cap:
            mid.add(u)
        else:
            high.add(u)
    contribs = tuple(_boundary_expansion(g, fs, bd, cls) for cls in (low, mid, high))
    third = split_threshold / 3.0
    names = ("low", "mid", "high")
    certifying = tuple(
        name for name, contrib in zip(names, contribs) if contrib >= third
    )
    # the first mid degree k whose window [k, 2k] holds the most mid degrees
    degs = sorted(g.degrees[u] for u in mid)
    best_k = max(
        degs, key=lambda k: bisect_right(degs, 2 * k) - bisect_left(degs, k), default=None
    )
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
