"""Deterministic random-instance builders shared by module and acceptance
tests, probes of a fresh Python process, and an in-process run of a command
line ``main``. Uses stdlib random only, so instances are independent of the
package's own rng streams."""

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import rumorspread
import rumorspread.cli
from rumorspread import (
    Graph,
    complete,
    cycle,
    dumbbell,
    hypercube,
    path,
    random_regular,
    star,
    two_cliques_shared_vertex,
)


def random_connected(rand: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus each remaining pair independently."""
    edges = set()
    for i in range(1, n):
        edges.add((rand.randrange(i), i))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rand.random() < extra:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def random_proper_subset(rand: random.Random, n: int, max_size: int | None = None):
    cap = n - 1 if max_size is None else min(max_size, n - 1)
    k = rand.randint(1, cap)
    return frozenset(rand.sample(range(n), k))


def named_small_graphs() -> list[tuple[str, Graph]]:
    """Every named family at a few small sizes (n <= 8)."""
    out = []
    for n in (2, 3, 4, 5, 6):
        out.append((f"complete-{n}", complete(n)))
    for n in (2, 4, 6, 8):
        out.append((f"path-{n}", path(n)))
    for n in (3, 5, 6, 8):
        out.append((f"cycle-{n}", cycle(n)))
    for leaves in (1, 3, 6):
        out.append((f"star-{leaves}", star(leaves)))
    for d in (1, 2, 3):
        out.append((f"hypercube-{d}", hypercube(d)))
    for m in (2, 3, 4):
        out.append((f"two-cliques-{m}", two_cliques_shared_vertex(m)))
        out.append((f"dumbbell-{m}", dumbbell(m)))
    return out


def _from_pairs(n: int, pairs) -> Graph:
    return Graph.from_edges(n, sorted(pairs))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _from_pairs(10, outer + spokes + inner)


def prism(k: int) -> Graph:
    """Two k-cycles joined by rungs; 3-regular on 2k nodes."""
    top = [(i, (i + 1) % k) for i in range(k)]
    bottom = [(k + i, k + (i + 1) % k) for i in range(k)]
    rungs = [(i, k + i) for i in range(k)]
    return _from_pairs(2 * k, top + bottom + rungs)


def complete_bipartite_balanced(r: int) -> Graph:
    pairs = [(i, r + j) for i in range(r) for j in range(r)]
    return _from_pairs(2 * r, pairs)


def circulant(n: int, shifts) -> Graph:
    pairs = set()
    for i in range(n):
        for s in shifts:
            pairs.add(tuple(sorted((i, (i + s) % n))))
    return _from_pairs(n, pairs)


def regular_small_graphs() -> list[tuple[str, Graph]]:
    """A broad deterministic sweep of regular graphs on at most 10 nodes."""
    out: list[tuple[str, Graph]] = []
    for n in range(3, 11):
        out.append((f"cycle-{n}", cycle(n)))
        out.append((f"complete-{n}", complete(n)))
    for r in (2, 3, 4, 5):
        out.append((f"bipartite-{r}", complete_bipartite_balanced(r)))
    for k in (3, 4, 5):
        out.append((f"prism-{k}", prism(k)))
    for n in (5, 6, 7, 8, 9, 10):
        out.append((f"circulant-{n}-12", circulant(n, (1, 2))))
    out.append(("petersen", petersen()))
    out.append(("hypercube-3", hypercube(3)))
    for n, d, seeds in ((6, 3, 3), (8, 3, 3), (8, 4, 3), (10, 3, 3), (10, 4, 3), (10, 5, 3)):
        for seed in range(seeds):
            out.append((f"random-{n}-{d}-{seed}", random_regular(n, d, rng_seed=seed)))
    return out


def child_stdout(code: str) -> str:
    """Standard output of a fresh Python that imports the package as ``rs``
    and runs ``code``."""
    src = str(Path(rumorspread.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import rumorspread as rs; {code}"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return proc.stdout


def child_peak_mb(call: str) -> float:
    """Peak resident memory, in MB, of a fresh Python that imports the
    package as ``rs`` and runs ``call``. ru_maxrss would carry this process's
    own peak across the exec, so the child reports its VmHWM, which covers
    the child alone."""
    peak = child_stdout(
        f"{call}; print(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:')))"
    )
    return int(peak) / 1024  # VmHWM is in kB


def run_fuzzed(argv, main=rumorspread.cli.main):
    """Exit code and stderr of one in-process run of ``main(argv)``, the CLI's
    by default; argparse's own usage errors leave through SystemExit with
    their code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()
