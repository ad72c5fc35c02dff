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


def naive_shell_hits(adj: Adj, s, sampled) -> int:
    """Nodes of the closure's boundary (the second shell) with a neighbour
    in ``sampled``."""
    bd2 = naive_boundary(adj, naive_closure(adj, s))
    return sum(1 for v in bd2 if any(u in sampled for u in adj[v]))


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

    Every pool member needs the inverse-degree mass of its pooled closure
    neighbors, plus its pooled-neighbor fraction if it is in the closure
    itself, to reach eps_p. Simultaneous removal converges to the same
    maximal fixed point as any sequential order because the condition is
    monotone in the pool.
    """
    sp = naive_closure(adj, s)
    pool = set(range(len(adj))) if start is None else set(start)
    while True:
        keep = set()
        for u in pool:
            score = sum(
                (Fraction(1, len(adj[v])) for v in adj[u] if v in pool and v in sp),
                Fraction(0),
            )
            if u in sp:
                score += Fraction(sum(1 for v in adj[u] if v in pool), len(adj[u]))
            if score >= eps_p:
                keep.add(u)
        if keep == pool:
            return pool
        pool = keep


def naive_round(adj: Adj, informed, draws, variant: str) -> set[int]:
    """One synchronous round given the drawn neighbor of every node that
    draws (``draws`` maps node to draw; all nodes draw in a plain round)."""
    new = set(informed)
    for u, d in draws.items():
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


def naive_greedy_dominating_set(adj: Adj) -> set[int]:
    """Greedy max-coverage dominating set, lowest id on ties: each pick
    scans every node for the largest count of uncovered closed neighbors."""
    n = len(adj)
    uncovered = set(range(n))
    chosen: set[int] = set()
    gain = [len(adj[v]) + 1 for v in range(n)]
    while uncovered:
        best = max(range(n), key=lambda v: (gain[v], -v))
        chosen.add(best)
        newly = ({best} | set(adj[best])) & uncovered
        uncovered -= newly
        for w in newly:
            gain[w] -= 1
            for x in adj[w]:
                gain[x] -= 1
    return chosen


# -- edge-list files -----------------------------------------------------------
#
# The set-based builder and line-by-line loader that preceded the CSR graph,
# kept verbatim in behaviour: the same adjacency, label mapping, warning texts
# and InputError messages. They raise the package's InputError so that tests
# can compare messages, and return plain adjacency tuples.


def naive_from_edges(n: int, edges) -> Adj:
    from rumorspread.errors import InputError

    if n < 2:
        raise InputError(f"graph needs at least 2 nodes, got n={n}")
    seen = set()
    nbrs = [set() for _ in range(n)]
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
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    reached = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    if any(len(a) == 0 for a in adj) or len(reached) != n:
        raise InputError("graph is not connected")
    return adj


def naive_load_edge_list(path: str) -> tuple[Adj, dict[str, int]]:
    import warnings

    from rumorspread.errors import InputError

    raw_edges = []
    labels = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected two tokens, got {len(parts)}")
            raw_edges.append((parts[0], parts[1]))
            labels.update(parts)
    if not labels:
        raise InputError(f"{path}: no edges found")
    try:
        ordered = sorted(labels, key=lambda t: (int(t), t))
    except ValueError:
        ordered = sorted(labels)
    mapping = {lab: i for i, lab in enumerate(ordered)}
    seen = set()
    edges = []
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
        adj = naive_from_edges(len(ordered), edges)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return adj, mapping


# -- first arrival times -------------------------------------------------------
#
# The loop `first_arrival_times` ran before it went through the round kernel,
# kept verbatim. It reuses the package's one-round `_draw`/`_step` (pinned
# against `naive_round` by their own tests); what it is the reference for is
# the layout of the sequential sampler stream: every round draws one
# (batch, n) array of uniforms for the whole batch, finished rows included,
# until the batch's last trial arrives.


def naive_first_arrival_times(g, start, watched, variant, trials, rng_seed, max_rounds=None):
    import numpy as np

    from rumorspread import rng
    from rumorspread.errors import IncompleteSpreadError, InputError
    from rumorspread.protocols import (
        _ARRIVAL_BATCH,
        VARIANTS,
        _draw,
        _mask,
        _step,
        default_max_rounds,
    )

    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}")
    if trials < 1:
        raise InputError("trials must be >= 1")
    start_set = g.check_set(start)
    watched_set = g.check_set(watched)
    if not start_set or not watched_set:
        raise InputError("start and watched sets must be nonempty")
    cap = default_max_rounds(g.n) if max_rounds is None else max_rounds
    indptr, indices = g.csr
    degs = np.diff(indptr)
    n = g.n
    start_mask = _mask(n, start_set)
    watched_arr = np.fromiter(sorted(watched_set), dtype=np.int64)
    gen = rng.stream(rng_seed, rng.LANE_SAMPLER)
    out = np.empty(trials, dtype=np.int64)
    for done in range(0, trials, _ARRIVAL_BATCH):
        b = min(_ARRIVAL_BATCH, trials - done)
        informed = np.tile(start_mask, (b, 1))
        row_offsets = np.arange(b)[:, None] * n
        times = np.zeros(b, dtype=np.int64)
        pending = ~informed[:, watched_arr].any(axis=1)
        for t in range(1, cap + 1):
            if not pending.any():
                break
            drawn = _draw(gen.random((b, n)), indptr, indices, degs)
            drawn += row_offsets
            informed |= _step(informed.ravel(), drawn.ravel(), variant).reshape(b, n)
            hit = pending & informed[:, watched_arr].any(axis=1)
            times[hit] = t
            pending &= ~hit
        if pending.any():
            raise IncompleteSpreadError(
                f"{int(pending.sum())} trial(s) did not reach the watched set "
                f"within {cap} rounds"
            )
        out[done : done + b] = times
    return out


# -- proof diagnostics ---------------------------------------------------------
#
# Linear scans that the bisections in `doubling_times` and
# `degree_class_decomposition` must agree with.


def naive_doubling_times(psi, informed) -> list[tuple[int, int]]:
    n_rounds = len(psi) - 1
    # Recover n from the completed end state.
    n = informed[-1]
    checkpoints: list[int] = []
    level = psi[0]
    t = 0
    while True:
        while t <= n_rounds and psi[t] < level:
            t += 1
        if t > n_rounds:
            break
        if not checkpoints or checkpoints[-1] != t:
            checkpoints.append(t)
        level *= 2
    out: list[tuple[int, int]] = []
    for tc in checkpoints:
        window = None
        for i in range(0, n_rounds - tc + 1):
            if psi[tc + i] >= 2 * psi[tc] or informed[tc + i] > n / 2:
                window = i
                break
        if window is None:
            # Complete traces end with everything informed, so the half-graph
            # condition must trigger by the final round.
            raise AssertionError("unresolved doubling window on a completed trace")
        out.append((tc, window))
    return out


def naive_densest_window(degrees):
    """The first k of sorted(degrees) whose [k, 2k] holds the most of them,
    or None when there are none."""
    mid_degs = sorted(degrees)
    best_k, best_count = None, -1
    for k in mid_degs:
        count = sum(1 for d in mid_degs if k <= d <= 2 * k)
        if count > best_count:
            best_k, best_count = k, count
    return best_k
