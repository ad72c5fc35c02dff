"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: public functions are replaced,
for the duration of the run, by wrappers installed where their callers look
them up (``rumorspread.cli.monte_carlo``, ``rumorspread.rng.stream``, ...).
Each span keeps a name, start, end and the index of its parent span; counts
(trials, removals, subsets, bytes) are attached to the span that did the
work, so a phase of the run can be summarised from an index range alone.
Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from array import array
from typing import Any, Callable

import numpy as np

Hook = Callable[["Tracer", int, tuple, dict, Any], None]


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.current = -1
        self.count_span = array("i")
        self.count_key: list[str] = []
        self.count_value = array("d")

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def inside(self, idx: int, name: str) -> bool:
        """True when an ancestor of span ``idx`` is named ``name``."""
        nid = self._ids.get(name)
        p = self.parent[idx]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def count(self, span: int, key: str, value: float) -> None:
        self.count_span.append(span)
        self.count_key.append(key)
        self.count_value.append(value)

    def wrap(self, fn: Callable, name: str, hook: Hook | None = None) -> Callable:
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return traced

    def write(self, path: str, phases: dict) -> None:
        """Dump every span and count, gzip-compressed JSON."""
        payload = {
            "names": self.names,
            "spans": {
                "name": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
            },
            "counts": {
                "span": self.count_span.tolist(),
                "key": self.count_key,
                "value": self.count_value.tolist(),
            },
            "phases": phases,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)


class Summary:
    """Durations, self times and counts of the spans in ``[lo, hi)``."""

    def __init__(self, tracer: Tracer, lo: int, hi: int) -> None:
        self.names = tracer.names
        nid = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi]
        start = np.frombuffer(tracer.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        self.nid = nid
        self.parent = parent
        self.dur, self.self_time = self_times(start, end, parent)
        cspan = np.frombuffer(tracer.count_span, dtype=np.int32)
        keep = (cspan >= lo) & (cspan < hi)
        self._counts: dict[str, float] = {}
        values = np.frombuffer(tracer.count_value, dtype=np.float64)
        for i in np.flatnonzero(keep):
            key = tracer.count_key[i]
            self._counts[key] = self._counts.get(key, 0.0) + float(values[i])
        self._outer_cache: dict[str, np.ndarray] = {}

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.nid.shape, dtype=bool)
        return self.nid == self.names.index(name)

    def outermost(self, name: str) -> np.ndarray:
        """Spans of ``name`` with no ancestor of the same name."""
        if name not in self._outer_cache:
            mask = self._mask(name)
            outer = mask.copy()
            for i in np.flatnonzero(mask):
                p = self.parent[i]
                while p >= 0:
                    if mask[p]:
                        outer[i] = False
                        break
                    p = self.parent[p]
            self._outer_cache[name] = outer
        return self._outer_cache[name]

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def seconds(self, name: str) -> float:
        """Inclusive time of ``name``, counting recursion once."""
        return float(self.dur[self.outermost(name)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def layer_self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            t = float(self.self_time[self.nid == i].sum())
            out[layer] = out.get(layer, 0.0) + t
        return out

    def total(self, key: str) -> float:
        return self._counts.get(key, 0.0)

    def counts_with_prefix(self, prefix: str) -> list[tuple[str, float]]:
        return [(k, v) for k, v in self._counts.items() if k.startswith(prefix)]


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Duration and self time (duration minus direct children) per span.

    ``parent`` holds indices into the same arrays, or a negative value for a
    span whose parent lies outside them.
    """
    dur = end - start
    child_sum = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    return dur, dur - child_sum


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


ENUM_MEASURES = (
    ("vertex_expansion_graph", "alpha"),
    ("conductance_graph", "phi"),
    ("combined_expansion_graph", "xi"),
)
LAYERS = (
    "cli", "graph", "generators", "rng", "expansion",
    "protocols", "participating", "experiment", "bench",
)
SUBCOMMANDS = ("analyze", "simulate", "participating", "experiment")
INSTANCE_PREFIX = "participating.instance."


def install(tracer: Tracer, rs) -> Callable[[], None]:
    """Wrap the package's public functions; returns a function that undoes it.

    ``rs`` is a namespace holding the package modules (cli, graph, generators,
    rng, expansion, protocols, participating, experiment). An attribute that
    the package no longer has is skipped, so its metrics read zero rather than
    breaking the run.
    """
    saved: list[tuple[Any, str, Any]] = []

    def patch(module, attr: str, name: str, hook: Hook | None = None) -> None:
        if not hasattr(module, attr):
            return
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, hook))

    def count_edges(t: Tracer, idx: int, args, kwargs, result) -> None:
        t.count(idx, "graph.load.edges", result[0].num_edges)

    patch(rs.cli, "load_edge_list", "graph.load", count_edges)
    patch(rs.graph, "load_edge_list", "graph.load", count_edges)

    csr_prop = rs.graph.Graph.__dict__.get("csr")
    if isinstance(csr_prop, functools.cached_property):
        traced_csr = functools.cached_property(tracer.wrap(csr_prop.func, "graph.csr"))
        traced_csr.__set_name__(rs.graph.Graph, "csr")
        saved.append((rs.graph.Graph, "csr", csr_prop))
        rs.graph.Graph.csr = traced_csr

    for family in (
        "complete", "path", "cycle", "star", "hypercube", "two_cliques_shared_vertex",
        "dumbbell", "random_regular", "erdos_renyi", "clustered_regular",
    ):
        patch(rs.generators, family, "generators.build")
    patch(rs.cli, "greedy_dominating_set", "generators.dominating")
    patch(rs.experiment, "greedy_dominating_set", "generators.dominating")

    patch(rs.rng, "stream", "rng.stream")

    def count_subsets(key: str) -> Hook:
        def hook(t: Tracer, idx: int, args, kwargs, result) -> None:
            t.count(idx, key, (1 << args[0].n) - 1)

        return hook

    for attr, short in ENUM_MEASURES:
        patch(
            rs.expansion, attr, f"expansion.enum.{short}",
            count_subsets(f"expansion.enum.{short}.subsets"),
        )
    for attr in (
        "vertex_expansion_set", "conductance_set", "boundary_expansion_exact",
        "boundary_expansion_due_to", "combined_expansion_set",
        "augmented_combined_expansion_set", "degree_class_decomposition",
    ):
        patch(rs.expansion, attr, "expansion.set")

    def count_samples(t: Tracer, idx: int, args, kwargs, result) -> None:
        t.count(idx, "expansion.mc.samples", result.samples)

    patch(rs.expansion, "boundary_expansion_mc", "expansion.mc", count_samples)

    def count_trials(t: Tracer, idx: int, args, kwargs, result) -> None:
        g, cfg = args[0], args[1]
        summary = result[0]
        cap = cfg.max_rounds if cfg.max_rounds is not None else rs.protocols.default_max_rounds(g.n)
        rounds = sum(cap if ta is None else ta for ta in summary.t_all)
        t.count(idx, "protocols.trials", summary.trials)
        t.count(idx, "protocols.completed", summary.completed_count)
        t.count(idx, "protocols.node_rounds", g.n * rounds)

    patch(rs.cli, "monte_carlo", "protocols.monte_carlo", count_trials)
    patch(rs.experiment, "monte_carlo", "protocols.monte_carlo", count_trials)
    patch(rs.protocols, "run", "protocols.run")
    patch(rs.protocols, "first_arrival_times", "protocols.first_arrival")
    patch(rs.protocols, "pull_growth_check", "protocols.growth_check")
    patch(rs.protocols, "run_restricted", "protocols.run_restricted")

    def count_removals(t: Tracer, idx: int, args, kwargs, result) -> None:
        g, s = args[0], args[1]
        kind = "tracked" if kwargs.get("track_potential", True) else "untracked"
        seconds = t.end[idx] - t.start[idx]
        t.count(idx, f"participating.removals.{kind}", len(result.removal_log))
        t.count(idx, f"participating.seconds.{kind}", seconds)
        instance = (
            f"{g.n}/{g.num_edges}/{hash(tuple(sorted(s)))}/"
            f"{kwargs.get('start_rule')}/{kwargs.get('order', 'lowest')}"
        )
        if not t.inside(idx, "participating.check"):
            t.count(idx, f"{INSTANCE_PREFIX}{kind}:{instance}", seconds)

    patch(rs.participating, "participating_fixed_point", "participating.fixed_point", count_removals)
    patch(rs.participating, "active_fraction_check", "participating.check")

    def count_points(t: Tracer, idx: int, args, kwargs, result) -> None:
        t.count(idx, "experiment.points", len(result[0].points))

    patch(rs.cli, "run_experiment", "experiment.run", count_points)
    patch(rs.experiment, "combined_vs_conductance_table", "experiment.table")

    def count_bytes(t: Tracer, idx: int, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else None
        if path is not None:
            t.count(idx, "cli.write.bytes", os.path.getsize(rs.cli._out_path(path)))

    patch(rs.cli, "_write_json", "cli.write", count_bytes)
    for attr in ("write_summary_csv", "write_trace_csv", "write_points_csv", "write_report_json"):
        patch(rs.cli, attr, "cli.write", count_bytes)
    patch(rs.participating, "write_removal_log_csv", "cli.write", count_bytes)

    if hasattr(rs.cli, "main"):
        cli_main = rs.cli.main

        @functools.wraps(cli_main)
        def traced_main(argv=None):
            idx = tracer.open(tracer.intern(f"cli.{argv[0] if argv else 'main'}"))
            try:
                return cli_main(argv)
            finally:
                tracer.close(idx)

        saved.append((rs.cli, "main", cli_main))
        rs.cli.main = traced_main

    def undo() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


def pass_metrics(s: Summary, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass of the job list."""
    m: dict[str, float] = {}
    m["graph.load.s"] = s.seconds("graph.load")
    m["graph.load.edges_per_s"] = rate(s.total("graph.load.edges"), m["graph.load.s"])
    m["graph.csr.s"] = s.seconds("graph.csr")
    m["generators.dominating.s"] = s.seconds("generators.dominating")
    m["rng.stream.calls"] = s.calls("rng.stream")
    m["rng.stream.s"] = s.seconds("rng.stream")

    subsets = 0.0
    enum_s = 0.0
    calls = 0
    for _, short in ENUM_MEASURES:
        name = f"expansion.enum.{short}"
        sec = s.seconds(name)
        work = s.total(f"{name}.subsets")
        m[f"expansion.enum.{short}.calls"] = s.calls(name)
        m[f"expansion.enum.{short}.s"] = sec
        m[f"expansion.enum.{short}.subsets_per_s"] = rate(work, sec)
        subsets += work
        enum_s += sec
        calls += s.calls(name)
    m["expansion.enum.calls"] = calls
    m["expansion.enum.s"] = enum_s
    m["expansion.enum.subsets_per_s"] = rate(subsets, enum_s)
    m["expansion.set.s"] = s.seconds("expansion.set")
    m["expansion.mc.samples_per_s"] = rate(
        s.total("expansion.mc.samples"), s.seconds("expansion.mc")
    )

    mc_s = s.seconds("protocols.monte_carlo")
    trials = s.total("protocols.trials")
    m["protocols.monte_carlo.s"] = mc_s
    m["protocols.trials_per_s"] = rate(trials, mc_s)
    m["protocols.node_rounds_per_s"] = rate(s.total("protocols.node_rounds"), mc_s)
    m["protocols.completed_frac"] = rate(s.total("protocols.completed"), trials)
    m["protocols.first_arrival.s"] = s.seconds("protocols.first_arrival")
    m["protocols.growth_check.s"] = s.seconds("protocols.growth_check")
    m["protocols.run_restricted.s"] = s.seconds("protocols.run_restricted")

    tracked = s.total("participating.removals.tracked")
    untracked = s.total("participating.removals.untracked")
    m["participating.removals"] = tracked + untracked
    m["participating.tracked.removals_per_s"] = rate(
        tracked, s.total("participating.seconds.tracked")
    )
    m["participating.untracked.removals_per_s"] = rate(
        untracked, s.total("participating.seconds.untracked")
    )
    m["participating.audit_share"] = audit_share(s)
    m["participating.check.s"] = s.seconds("participating.check")

    m["experiment.run.self_s"] = s.self_seconds("experiment.run")
    m["experiment.points"] = s.total("experiment.points")

    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.self_s"] = s.self_seconds(f"cli.{sub}")
    m["cli.write.s"] = s.seconds("cli.write")
    m["cli.write.bytes"] = s.total("cli.write.bytes") + stdout_bytes

    layer = s.layer_self_seconds()
    for name in LAYERS:
        m[f"layer.{name}.self_s"] = layer.get(name, 0.0)
    return m


def audit_share(s: Summary) -> float:
    """(tracked - untracked) / tracked thinning time, over the instances that
    ran both ways in the same start rule and removal order."""
    tracked = untracked = 0.0
    prefix = INSTANCE_PREFIX + "tracked:"
    for key, seconds in s.counts_with_prefix(prefix):
        other = s.total(INSTANCE_PREFIX + "untracked:" + key[len(prefix):])
        if other:
            tracked += seconds
            untracked += other
    return rate(tracked - untracked, tracked)

