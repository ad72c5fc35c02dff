"""Independent reference computations the benchmark checks outputs against.

These work on plain adjacency tuples and share no code with the package, so
a defect in the package's enumerator, formulas or thinning loop shows up as
a failed job rather than a matching wrong answer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Sequence

import numpy as np

Adj = Sequence[Sequence[int]]

# Exhaustive minima are recomputed only up to this size; above it the
# reported witness is re-evaluated instead.
ENUM_ORACLE_MAX_N = 14


def boundary(adj: Adj, s: Collection[int]) -> set[int]:
    fs = set(s)
    return {v for u in fs for v in adj[u] if v not in fs}


def cut_and_volume(adj: Adj, s: Collection[int]) -> tuple[int, int]:
    fs = set(s)
    vol = sum(len(adj[u]) for u in fs)
    cut = sum(1 for u in fs for v in adj[u] if v not in fs)
    return cut, vol


def set_measure(adj: Adj, measure: str, s: Collection[int]) -> Fraction:
    """Exact value of alpha, phi or xi on one set."""
    s = set(s)
    if measure == "phi":
        cut, vol = cut_and_volume(adj, s)
        return Fraction(cut, vol)
    b = boundary(adj, s)
    alpha = Fraction(len(b), len(s))
    if measure == "alpha":
        return alpha
    cut_b, vol_b = cut_and_volume(adj, b)
    return alpha * Fraction(cut_b, vol_b)


def in_domain(adj: Adj, measure: str, s: Collection[int]) -> bool:
    n = len(adj)
    if measure == "phi":
        vol = sum(len(adj[u]) for u in s)
        return 0 < vol <= sum(len(a) for a in adj) // 2
    return 0 < len(s) and 2 * len(s) <= n


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64)


def exact_minima(adj: Adj, measures: Collection[str]) -> dict[str, tuple[Fraction, tuple[int, ...]]]:
    """Graph-level minima by brute force over bitmasks.

    Returns measure -> (exact minimum, lexicographically smallest minimizing
    member tuple). Intended for n <= ENUM_ORACLE_MAX_N.
    """
    n = len(adj)
    full = 1 << n
    nbr = [sum(1 << u for u in a) for a in adj]
    masks = np.arange(full, dtype=np.int64)
    reach = np.zeros(full, dtype=np.int64)
    size = np.zeros(full, dtype=np.int64)
    vol = np.zeros(full, dtype=np.int64)
    inner = np.zeros(full, dtype=np.int64)
    for b in range(n):
        lo, hi = 1 << b, 1 << (b + 1)
        reach[lo:hi] = reach[:lo] | nbr[b]
        size[lo:hi] = size[:lo] + 1
        vol[lo:hi] = vol[:lo] + len(adj[b])
        inner[lo:hi] = inner[:lo] + _popcount(masks[:lo] & nbr[b])
    cut = vol - 2 * inner
    bnd = reach & ~masks
    bsize = _popcount(bnd)
    half_vol = vol[-1] // 2
    out = {}
    for measure in measures:
        if measure == "phi":
            ok = (vol > 0) & (vol <= half_vol)
            num, den = cut, vol
        else:
            ok = (size > 0) & (2 * size <= n)
            num, den = bsize, size
            if measure == "xi":
                num = bsize * cut[bnd]
                den = size * np.maximum(vol[bnd], 1)
        idx = np.flatnonzero(ok)
        ratio = num[idx] / den[idx]
        near = idx[ratio <= ratio.min() * (1 + 1e-9) + 1e-15]
        best = min(Fraction(int(num[i]), int(den[i])) for i in near)
        ties = [
            tuple(v for v in range(n) if (int(i) >> v) & 1)
            for i in near
            if Fraction(int(num[i]), int(den[i])) == best
        ]
        out[measure] = (best, min(ties))
    return out


def boundary_expansion(adj: Adj, s: Collection[int], sampled: Collection[int] | None = None) -> float:
    """Expected hit fraction of the closure's boundary; ``sampled`` restricts
    which boundary nodes may be sampled (all of them when None)."""
    s = set(s)
    b = boundary(adj, s)
    pool = b if sampled is None else set(sampled)
    outer = boundary(adj, s | b)
    total = Fraction(0)
    for v in outer:
        miss = Fraction(1)
        for u in adj[v]:
            if u in pool:
                miss *= 1 - Fraction(1, len(adj[u]))
        total += 1 - miss
    return float(total / len(b))


def participating_set(adj: Adj, s: Collection[int], eps_p: Fraction) -> set[int]:
    """Largest pool in which every member passes the participation threshold,
    by worklist peeling from all nodes.

    A member of the closure of ``s`` needs its share of pooled neighbours plus
    the sampling mass (one over degree) of its pooled closure neighbours to
    reach ``eps_p``; any other member needs that mass alone.
    """
    s = set(s)
    closure = s | boundary(adj, s)
    pool = set(range(len(adj)))
    pooled = [len(a) for a in adj]
    mass = [sum((Fraction(1, len(adj[w])) for w in a if w in closure), Fraction(0)) for a in adj]

    def violates(u: int) -> bool:
        lhs = mass[u] + (Fraction(pooled[u], len(adj[u])) if u in closure else 0)
        return lhs < eps_p

    work = [u for u in pool if violates(u)]
    while work:
        u = work.pop()
        if u not in pool:
            continue
        pool.discard(u)
        for w in adj[u]:
            pooled[w] -= 1
            if u in closure:
                mass[w] -= Fraction(1, len(adj[u]))
            if w in pool and violates(w):
                work.append(w)
    return pool
