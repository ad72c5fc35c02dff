"""Independent naive reference implementations for cross-checking.

Everything here is computed definitionally from raw adjacency lists using
itertools and exact rationals. No algorithm from the package is reused; the
only shared vocabulary is the adjacency-list representation itself.
"""

from fractions import Fraction
from itertools import combinations

Adj = tuple[tuple[int, ...], ...]


def naive_boundary(adj: Adj, s) -> set[int]:
    return {v for u in s for v in adj[u] if v not in s}


def naive_closure(adj: Adj, s) -> set[int]:
    return set(s) | naive_boundary(adj, s)


def naive_cut(adj: Adj, s) -> int:
    return sum(1 for u in s for v in adj[u] if v not in s)


def naive_volume(adj: Adj, s) -> int:
    return sum(len(adj[u]) for u in s)


def _minimize_over_subsets(n: int, candidates):
    """Min of candidates((subset, value) pairs), smallest sorted tuple on ties."""
    best = None
    witness = None
    for subset, value in candidates:
        key = tuple(sorted(subset))
        if best is None or value < best or (value == best and key < witness):
            best = value
            witness = key
    return best, witness


def naive_vertex_expansion(adj: Adj, n: int):
    """Min of |boundary|/|S| over nonempty S with |S| <= n/2."""

    def candidates():
        for k in range(1, n // 2 + 1):
            for comb in combinations(range(n), k):
                s = set(comb)
                yield comb, Fraction(len(naive_boundary(adj, s)), k)

    return _minimize_over_subsets(n, candidates())


def naive_conductance(adj: Adj, n: int):
    """Min of cut/volume over S with 0 < vol(S) <= half the total volume."""
    total = sum(len(a) for a in adj)

    def candidates():
        for k in range(1, n + 1):
            for comb in combinations(range(n), k):
                s = set(comb)
                vol = naive_volume(adj, s)
                if 2 * vol > total:
                    continue
                yield comb, Fraction(naive_cut(adj, s), vol)

    return _minimize_over_subsets(n, candidates())


def naive_combined_expansion(adj: Adj, n: int):
    """Min of (|B|/|S|) * (cut(B)/vol(B)) with B the boundary, |S| <= n/2."""

    def candidates():
        for k in range(1, n // 2 + 1):
            for comb in combinations(range(n), k):
                s = set(comb)
                b = naive_boundary(adj, s)
                yield comb, Fraction(len(b), k) * Fraction(
                    naive_cut(adj, b), naive_volume(adj, b)
                )

    return _minimize_over_subsets(n, candidates())


def naive_h(adj: Adj, s) -> Fraction:
    """Expected fraction of the closure's boundary hit when each boundary
    node is sampled independently with probability one over its degree."""
    bd = naive_boundary(adj, s)
    bd2 = naive_boundary(adj, set(s) | bd)
    total = Fraction(0)
    for v in bd2:
        miss = Fraction(1)
        for u in adj[v]:
            if u in bd:
                miss *= 1 - Fraction(1, len(adj[u]))
        total += 1 - miss
    return total / len(bd)


def naive_h_due_to(adj: Adj, s, t) -> Fraction:
    bd = naive_boundary(adj, s)
    assert set(t) <= bd
    bd2 = naive_boundary(adj, set(s) | bd)
    total = Fraction(0)
    for v in bd2:
        miss = Fraction(1)
        for u in adj[v]:
            if u in t:
                miss *= 1 - Fraction(1, len(adj[u]))
        total += 1 - miss
    return total / len(bd)


def naive_potential(adj: Adj, s, pool) -> tuple[Fraction, Fraction]:
    """(mass from pooled closure nodes toward removed nodes,
    mass from removed closure nodes back into the pool)."""
    sp = naive_closure(adj, s)
    p = set(pool)
    phi1 = Fraction(0)
    for u in p & sp:
        phi1 += Fraction(sum(1 for v in adj[u] if v not in p), len(adj[u]))
    phi2 = Fraction(0)
    for u in sp - p:
        phi2 += Fraction(sum(1 for v in adj[u] if v in p), len(adj[u]))
    return phi1, phi2


def naive_participating(adj: Adj, s, eps_p: Fraction, start=None) -> set[int]:
    """Greatest fixed point by simultaneous removal of every violator.

    Closure members need pooled-neighbor fraction >= eps_p; outsiders need
    inverse-degree mass from pooled closure neighbors >= eps_p. Simultaneous
    removal converges to the same maximal fixed point as any sequential
    order because both conditions are monotone in the pool.
    """
    sp = naive_closure(adj, s)
    pool = set(range(len(adj))) if start is None else set(start)
    while True:
        keep = set()
        for u in pool:
            if u in sp:
                ok = Fraction(sum(1 for v in adj[u] if v in pool), len(adj[u])) >= eps_p
            else:
                ok = (
                    sum(
                        (
                            Fraction(1, len(adj[v]))
                            for v in adj[u]
                            if v in pool and v in sp
                        ),
                        Fraction(0),
                    )
                    >= eps_p
                )
            if ok:
                keep.add(u)
        if keep == pool:
            return pool
        pool = keep


def naive_round(adj: Adj, informed, draws, variant: str) -> set[int]:
    """One synchronous round given every node's drawn neighbor."""
    new = set(informed)
    for u in range(len(adj)):
        d = draws[u]
        if variant in ("push", "pushpull") and u in informed:
            new.add(d)
        if variant in ("pull", "pushpull") and u not in informed and d in informed:
            new.add(u)
    return new


def naive_restricted_round(
    adj: Adj, informed, draws, active, participating
) -> set[int]:
    """One restricted round: only active nodes draw, a contact counts only if
    the drawn node participates, and the rumor crosses it in whichever
    direction it can."""
    new = set(informed)
    for u in active:
        d = draws[u]
        if d not in participating:
            continue
        if u in informed:
            new.add(d)
        elif d in informed:
            new.add(u)
    return new
