"""The three job mixes. Why each exists, and which layers it loads, is in
README.md beside this file.

A workload is two functions of the seed: ``graphs`` names the edge-list
files that set-up generates and writes, and ``jobs`` lists the jobs run
against them, in order. Every job mixes into one closed loop: the next job
starts when the previous one returns. ``tiny`` shrinks both for self-tests.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import oracles
from harness import Job, Result

GraphSpecs = dict[str, tuple[str, dict]]

SHORT_MEASURE = {
    "vertex-expansion": "alpha",
    "conductance": "phi",
    "combined-expansion": "xi",
    "boundary-expansion": "h",
    "augmented-combined-expansion": "rho",
}
REL_TOL = 1e-12


def large_instances(name: str) -> random.Random:
    """Source for the graph or set called ``name`` of the heavier jobs.

    Those jobs dominate a pass or sit near its p90, and their cost depends on
    the instance (the degrees of the most-toggled nodes, the number of
    removals). Drawing them from a fixed source makes every seed ask for the
    same heavy work, so runs on different seeds compare; the many small jobs
    still vary with the seed.
    """
    return random.Random(f"large-instances:{name}")


@dataclass
class Context:
    """What the job-list functions need: the package modules, the generated
    graphs (for the checks only; jobs load their own copy from the file), a
    seeded random source, and a scratch dict jobs use to pass results along."""

    rs: Any
    graphs: dict
    rnd: random.Random
    tiny: bool
    shared: dict = field(default_factory=dict)

    @staticmethod
    def path(name: str) -> str:
        return f"g/{name}.txt"

    def seed(self) -> int:
        return self.rnd.randrange(2**31)

    def sample(self, name: str, k: int) -> list[int]:
        return sorted(self.rnd.sample(range(self.graphs[name].n), k))


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: Callable[[random.Random, bool], GraphSpecs]
    jobs: Callable[[Context], list[Job]]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def nodes_arg(nodes) -> str:
    return ",".join(str(v) for v in sorted(nodes))


def load_json(result: Result, name: str | None = None) -> dict:
    text = result.files[name].decode() if name else result.stdout
    return json.loads(text)


# -- exact-enum -------------------------------------------------------------


def exact_graphs(rnd: random.Random, tiny: bool) -> GraphSpecs:
    specs: GraphSpecs = {}
    for n in (4, 6) if tiny else range(4, 13):
        specs[f"cycle{n}"] = ("cycle", {"n": n})
    for n in (3, 5) if tiny else range(3, 13):
        specs[f"path{n}"] = ("path", {"n": n})
    for leaves in (3,) if tiny else range(3, 12):
        specs[f"star{leaves}"] = ("star", {"leaves": leaves})
    specs["hypercube3"] = ("hypercube", {"d": 3})
    regular = [(8, 3)] if tiny else [
        (6, 3), (8, 3), (10, 3), (12, 3), (12, 3), (8, 4),
        (9, 4), (10, 4), (11, 4), (12, 4), (12, 5), (10, 5),
    ]
    for i, (n, d) in enumerate(regular):
        specs[f"rr{n}_{d}_{i}"] = ("random_regular", {"n": n, "degree": d, "rng_seed": rnd.randrange(2**31)})
    # Sizes are fixed and only the seeds vary, so every seed asks for the
    # same amount of enumeration.
    for i in range(1 if tiny else 12):
        n = 6 + i % 7
        specs[f"er{n}_{i}"] = ("erdos_renyi", {"n": n, "p": 0.5, "rng_seed": rnd.randrange(2**31)})
    for i in range(1 if tiny else 4):
        specs[f"clustered12_{i}"] = ("clustered_regular", {"num_components": 2, "degree": 3, "c": 2, "rng_seed": rnd.randrange(2**31)})
    if not tiny:
        for i in range(2):
            name = f"clustered16_{i}"
            specs[name] = ("clustered_regular", {"num_components": 2, "degree": 4, "c": 2,
                                                 "rng_seed": large_instances(name).randrange(2**31)})
    # Set-level jobs run on graphs too large to enumerate.
    specs["setq6"] = ("hypercube", {"d": 6})
    specs["setrr64"] = ("random_regular", {"n": 64, "degree": 4, "rng_seed": rnd.randrange(2**31)})
    specs["setdumbbell12"] = ("dumbbell", {"m": 12})
    specs["setclustered48"] = ("clustered_regular", {"num_components": 2, "degree": 4, "c": 6, "rng_seed": rnd.randrange(2**31)})
    return specs


def check_graph_measures(ctx: Context, name: str, measures: tuple[str, ...]) -> Callable[[Result], str | None]:
    adj = ctx.graphs[name].adj

    def check(result: Result) -> str | None:
        reports = {SHORT_MEASURE[r["measure"]]: r for r in load_json(result)["measures"]}
        if sorted(reports) != sorted(measures):
            return f"measures {sorted(reports)} != {sorted(measures)}"
        if len(adj) <= oracles.ENUM_ORACLE_MAX_N:
            truth = oracles.exact_minima(adj, measures)
            for m, (value, witness) in truth.items():
                got = reports[m]
                if got["value"] != float(value) or tuple(got["witness"]) != witness:
                    return f"{m}: got {got['value']} {got['witness']}, want {float(value)} {list(witness)}"
        else:
            for m, rep in reports.items():
                w = rep["witness"]
                if not oracles.in_domain(adj, m, w):
                    return f"{m}: witness {w} outside the domain"
                if rep["value"] != float(oracles.set_measure(adj, m, w)):
                    return f"{m}: value {rep['value']} is not the witness's value"
        return None

    return check


def check_set_measures(ctx: Context, name: str, s: list[int], decompose: bool) -> Callable[[Result], str | None]:
    adj = ctx.graphs[name].adj
    max_deg = max(len(a) for a in adj)

    def want(m: str) -> float:
        if m == "h":
            return oracles.boundary_expansion(adj, s)
        if m == "rho":
            b = oracles.boundary(adj, s)
            cut_b, vol_b = oracles.cut_and_volume(adj, b)
            return len(b) / len(s) * (cut_b / vol_b + 1.0 / math.log2(max_deg))
        return float(oracles.set_measure(adj, m, s))

    def check(result: Result) -> str | None:
        payload = load_json(result)
        for rep in payload["measures"]:
            m = SHORT_MEASURE[rep["measure"]]
            if not close(rep["value"], want(m)):
                return f"{m}: got {rep['value']}, want {want(m)}"
        if decompose:
            dec = payload["degree_classes"]
            classes = [dec["low"], dec["mid"], dec["high"]]
            joined = sorted(v for c in classes for v in c)
            if joined != sorted(oracles.boundary(adj, s)):
                return "degree classes do not partition the boundary"
            for got, cls in zip(dec["contributions"], classes):
                if not close(got, oracles.boundary_expansion(adj, s, cls)):
                    return f"class contribution {got} is wrong"
        return None

    return check


def exact_jobs(ctx: Context) -> list[Job]:
    rs = ctx.rs
    jobs: list[Job] = []
    set_graphs = ("setq6", "setrr64", "setdumbbell12", "setclustered48")
    for name in ctx.graphs:
        if name.startswith("set"):
            continue
        measures = ("phi",) if name == "clustered16_1" else ("alpha", "phi", "xi")
        jobs.append(Job(
            id=f"analyze-{name}",
            argv=["analyze", "--graph", ctx.path(name), "--measures", ",".join(measures)],
            check=check_graph_measures(ctx, name, measures),
        ))
    for i in range(4 if ctx.tiny else 44):
        name = set_graphs[i % len(set_graphs)]
        s = ctx.sample(name, 1 + i % 8)
        kind = i % 3
        if kind == 0:
            measures, extra = "h,rho", []
        elif kind == 1:
            measures, extra = "h", ["--decompose", "--eps-h", "0.5"]
        else:
            measures, extra = "alpha,phi,xi", []
        jobs.append(Job(
            id=f"set-{i}-{name}",
            argv=["analyze", "--graph", ctx.path(name), "--set", nodes_arg(s), "--measures", measures] + extra,
            check=check_set_measures(ctx, name, s, bool(extra)),
        ))

    sweep = [{"n": n, "degree": 3} for n in ((8, 10) if ctx.tiny else (8, 10, 12))]
    config = {"family": "random_regular", "sweep": sweep, "trials": 40,
              "bound_model": "logn_over_phi", "rng_seed": ctx.seed()}
    jobs.append(experiment_job(ctx, "experiment-logn-over-phi", config))

    degrees = (3,)
    instances = 1 if ctx.tiny else 2
    table_seed = ctx.seed()

    def table():
        return rs.experiment.combined_vs_conductance_table(
            degrees, c=2, num_components=2, instances=instances, rng_seed=table_seed
        )

    def check_table(result: Result) -> str | None:
        rows = result.value
        if len(rows) != len(degrees):
            return f"{len(rows)} rows for {len(degrees)} degrees"
        for row in rows:
            if row["mean_ratio"] != row["mean_combined"] / row["mean_conductance"]:
                return "mean_ratio is not mean_combined / mean_conductance"
        return None

    jobs.append(Job(id="combined-vs-conductance", call=table, check=check_table))
    return jobs


def experiment_job(ctx: Context, job_id: str, config: dict) -> Job:
    """An ``experiment`` CLI job; its config file is written now, before any
    timing, and is an input like the edge lists."""
    config_path = f"{job_id}.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    points, report = f"{job_id}.points.csv", f"{job_id}.report.json"

    def check(result: Result) -> str | None:
        rep = load_json(result, report)
        if len(rep["points"]) != len(config["sweep"]):
            return f"{len(rep['points'])} points for a sweep of {len(config['sweep'])}"
        for p in rep["points"]:
            if p["completed"] != p["trials"] or not math.isfinite(p["ratio"]):
                return f"point {p['index']} did not complete"
        rows = [r for r in result.files[points].decode().splitlines() if not r.startswith("#")]
        if len(rows) != len(config["sweep"]) + 1:
            return "points table has the wrong number of rows"
        return None

    return Job(
        id=job_id,
        argv=["experiment", "--config", config_path, "--points-out", points, "--report-out", report],
        outputs=(points, report),
        check=check,
    )


# -- spread -----------------------------------------------------------------


def spread_graphs(rnd: random.Random, tiny: bool) -> GraphSpecs:
    specs: GraphSpecs = {
        "cycle16": ("cycle", {"n": 16}),
        "star20": ("star", {"leaves": 20}),
        "hypercube5": ("hypercube", {"d": 5}),
        "dumbbell8": ("dumbbell", {"m": 8}),
        "rr32_3": ("random_regular", {"n": 32, "degree": 3, "rng_seed": rnd.randrange(2**31)}),
        "hypercube8": ("hypercube", {"d": 8}),
        "rr256_8": ("random_regular", {"n": 256, "degree": 8, "rng_seed": rnd.randrange(2**31)}),
    }
    if tiny:
        return specs
    specs.update({
        "cycle32": ("cycle", {"n": 32}),
        "path16": ("path", {"n": 16}),
        "star40": ("star", {"leaves": 40}),
        "complete16": ("complete", {"n": 16}),
        "hypercube4": ("hypercube", {"d": 4}),
        "hypercube6": ("hypercube", {"d": 6}),
        "twocliques8": ("two_cliques_shared_vertex", {"m": 8}),
        "dumbbell16": ("dumbbell", {"m": 16}),
        "rr64_4": ("random_regular", {"n": 64, "degree": 4, "rng_seed": rnd.randrange(2**31)}),
        "er32": ("erdos_renyi", {"n": 32, "p": 0.2, "rng_seed": rnd.randrange(2**31)}),
        "clustered24": ("clustered_regular", {"num_components": 2, "degree": 3, "c": 4, "rng_seed": rnd.randrange(2**31)}),
        "hypercube10": ("hypercube", {"d": 10}),
        "hypercube12": ("hypercube", {"d": 12}),
        "rr1024_8": ("random_regular", {"n": 1024, "degree": 8, "rng_seed": rnd.randrange(2**31)}),
        "rr4096_8": ("random_regular", {"n": 4096, "degree": 8, "rng_seed": rnd.randrange(2**31)}),
    })
    return specs


def parse_summary(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_simulate(ctx: Context, name: str, trials: int, summary: str | None, trace: str | None):
    n = ctx.graphs[name].n

    def check(result: Result) -> str | None:
        fields = dict(tok.split("=") for tok in result.stdout.split())
        if int(fields["trials"]) != trials or int(fields["completed"]) != trials:
            return f"stdout {result.stdout.strip()!r} for {trials} trials"
        if summary:
            rows = parse_summary(result.files[summary].decode())
            if len(rows) != trials or any(r["completed"] != "1" for r in rows):
                return "summary rows missing or incomplete"
            t_all = sorted(int(r["t_all"]) for r in rows)
            if float(t_all[math.ceil(trials / 2) - 1]) != float(fields["median_t_all"]):
                return "summary median differs from the printed median"
        if trace:
            final = {int(row["trial"]): int(row["informed"]) for row in parse_summary(result.files[trace].decode())}
            if len(final) != trials or any(informed != n for informed in final.values()):
                return "trace does not end fully informed in every trial"
        return None

    return check


def spread_jobs(ctx: Context) -> list[Job]:
    rs = ctx.rs
    jobs: list[Job] = []
    small = [name for name, g in ctx.graphs.items() if g.n <= 64]
    variants = ("push", "pull", "pushpull")

    def simulate(job_id, name, variant, informed, trials, *, summary=False, trace=False, max_rounds=None):
        argv = ["simulate", "--graph", ctx.path(name), "--variant", variant, "--informed", informed,
                "--trials", str(trials), "--seed", str(ctx.seed())]
        if max_rounds is not None:
            argv += ["--max-rounds", str(max_rounds)]
        outputs = []
        summary_path = f"{job_id}.summary.csv" if summary else None
        trace_path = f"{job_id}.trace.csv" if trace else None
        if summary_path:
            argv += ["--summary-out", summary_path]
            outputs.append(summary_path)
        if trace_path:
            argv += ["--trace-out", trace_path]
            outputs.append(trace_path)
        jobs.append(Job(id=job_id, argv=argv, outputs=tuple(outputs),
                        check=check_simulate(ctx, name, trials, summary_path, trace_path)))

    # Dumbbells cross one bridge edge and push on a star is a coupon
    # collector; the default cap of 64*ceil(log2 n) rounds cuts off a few
    # trials in a thousand there, so they get a cap no trial reaches.
    def cap(name):
        return 4000 if name.startswith(("dumbbell", "star")) else None

    for k, name in enumerate(small):
        for v, variant in enumerate(variants):
            simulate(f"sim-{name}-{variant}-random", name, variant, "random", 20,
                     summary=(k + v) % 4 == 0, max_rounds=cap(name))
        simulate(f"sim-{name}-dominating", name, variants[k % 3], "dominating", 20,
                 trace=k % 3 == 0, max_rounds=cap(name))
        for j in range(2):
            start = ctx.sample(name, 1 + j)
            simulate(f"sim-{name}-explicit{j}", name, variants[(k + j) % 3], nodes_arg(start), 20,
                     max_rounds=cap(name))

    many = 200 if ctx.tiny else 1000
    simulate("sim-hypercube5-many", "hypercube5", "pushpull", "random", many, summary=True)
    simulate("sim-star20-many", "star20", "pull", "0", many, summary=True)
    if not ctx.tiny:
        simulate("sim-hypercube10", "hypercube10", "pushpull", "random", 20, summary=True)
        simulate("sim-hypercube10-dominating", "hypercube10", "push", "dominating", 4)
        simulate("sim-hypercube12", "hypercube12", "pushpull", "random", 8, summary=True)
        simulate("sim-rr1024-pull", "rr1024_8", "pull", "random", 10)
        simulate("sim-rr4096", "rr4096_8", "pushpull", "0", 5, summary=True)

    jobs.append(experiment_job(ctx, "experiment-logn", {
        "family": "hypercube", "sweep": [{"d": d} for d in ((3, 4) if ctx.tiny else (4, 5, 6, 7))],
        "trials": 60, "bound_model": "logn", "rng_seed": ctx.seed()}))
    jobs.append(experiment_job(ctx, "experiment-linear-n", {
        "family": "dumbbell", "sweep": [{"m": m} for m in ((4, 6) if ctx.tiny else (4, 8, 12))],
        "trials": 40, "bound_model": "linear_n", "max_rounds_factor": 40, "rng_seed": ctx.seed()}))

    def arrival_job(name, variant, trials):
        g = ctx.graphs[name]
        seed = ctx.seed()
        watched = (g.n - 1,)
        cap_rounds = rs.protocols.default_max_rounds(g.n)

        def call():
            loaded, _ = rs.graph.load_edge_list(ctx.path(name))
            return rs.protocols.first_arrival_times(loaded, (0,), watched, variant, trials, seed)

        def check(result: Result) -> str | None:
            times = result.value
            if times.shape != (trials,) or times.min() < 1 or times.max() > cap_rounds:
                return "arrival times out of range"
            return None

        jobs.append(Job(id=f"first-arrival-{name}-{variant}", call=call, check=check))

    arrival_job("hypercube8", "pushpull", 2000)
    if not ctx.tiny:
        arrival_job("rr1024_8", "pull", 300)

    s_growth = ctx.sample("rr256_8", 16)
    growth_seed = ctx.seed()
    growth_trials = 2000

    def growth():
        loaded, _ = rs.graph.load_edge_list(ctx.path("rr256_8"))
        return rs.protocols.pull_growth_check(loaded, s_growth, growth_trials, growth_seed)

    def check_growth(result: Result) -> str | None:
        rep = result.value
        want_b = len(oracles.boundary(ctx.graphs["rr256_8"].adj, s_growth))
        if rep.trials != growth_trials or rep.boundary_size != want_b or rep.mean_growth < 0:
            return "growth report inconsistent with its input"
        return None

    jobs.append(Job(id="growth-check-rr256", call=growth, check=check_growth))

    for name in ("hypercube8", "rr256_8") if ctx.tiny else ("hypercube8", "rr1024_8"):
        s = ctx.sample(name, 16)
        adj = ctx.graphs[name].adj

        def check_mc(result: Result, adj=adj, s=s) -> str | None:
            rep = load_json(result)["measures"][0]
            exact = oracles.boundary_expansion(adj, s)
            if abs(rep["value"] - exact) > 6 * rep["stderr"] + 1e-9:
                return f"sampled h {rep['value']} +- {rep['stderr']} far from exact {exact}"
            return None

        jobs.append(Job(
            id=f"analyze-h-samples-{name}",
            argv=["analyze", "--graph", ctx.path(name), "--set", nodes_arg(s), "--measures", "h",
                  "--samples", "20000", "--seed", str(ctx.seed())],
            check=check_mc,
        ))
    return jobs


# -- thinning ---------------------------------------------------------------


# Instances whose thinning cost moved most with the seed (clustered128 by
# 3x) or that dominate a pass; their graphs and sets come from
# large_instances().
LARGE_THINNING = ("rr64_8", "rr128_8", "rr256_8", "rr512_8", "rr2048_8", "clustered64", "clustered128")


def thinning_graphs(rnd: random.Random, tiny: bool) -> GraphSpecs:
    def seed(name):
        return (large_instances(name) if name in LARGE_THINNING else rnd).randrange(2**31)

    def rr(n, d):
        return ("random_regular", {"n": n, "degree": d, "rng_seed": seed(f"rr{n}_{d}")})

    def clustered(name, k, d, c):
        return ("clustered_regular", {"num_components": k, "degree": d, "c": c, "rng_seed": seed(name)})

    specs: GraphSpecs = {
        "cycle12": ("cycle", {"n": 12}),
        "dumbbell8": ("dumbbell", {"m": 8}),
        "rr64_8": rr(64, 8),
        "clustered24": clustered("clustered24", 2, 3, 4),
    }
    if tiny:
        return specs
    specs.update({
        "path10": ("path", {"n": 10}),
        "hypercube6": ("hypercube", {"d": 6}),
        "dumbbell16": ("dumbbell", {"m": 16}),
        "dumbbell32": ("dumbbell", {"m": 32}),
        "dumbbell64": ("dumbbell", {"m": 64}),
        "twocliques10": ("two_cliques_shared_vertex", {"m": 10}),
        "rr128_8": rr(128, 8),
        "rr256_8": rr(256, 8),
        "rr512_8": rr(512, 8),
        "rr2048_8": rr(2048, 8),
        "clustered64": clustered("clustered64", 2, 4, 8),
        "clustered128": clustered("clustered128", 4, 8, 4),
    })
    return specs


# At the default threshold only passive nodes leave; a higher one also
# removes active (closure) nodes, the other branch of the thinning rule.
EPS_DEFAULT = Fraction(3, 20)
EPS_HIGH = Fraction(2, 5)


def thinning_instances(ctx: Context) -> list[tuple[str, list[int], Fraction]]:
    """(graph, S, eps_p) triples. Dumbbells start from one clique's corner;
    the other graphs from a random set."""
    lo, hi = EPS_DEFAULT, EPS_HIGH
    if ctx.tiny:
        plan = [("cycle12", 1, lo), ("dumbbell8", 1, lo), ("rr64_8", 4, lo), ("clustered24", 3, hi)]
    else:
        plan = [
            ("cycle12", 1, lo), ("cycle12", 2, lo), ("path10", 1, lo), ("hypercube6", 2, lo),
            ("hypercube6", 4, hi), ("dumbbell8", 1, lo), ("dumbbell16", 1, lo), ("dumbbell16", 3, lo),
            ("twocliques10", 1, lo), ("twocliques10", 3, lo), ("rr64_8", 2, lo), ("rr64_8", 4, lo),
            ("rr64_8", 8, hi), ("rr128_8", 4, lo), ("rr128_8", 8, hi), ("clustered24", 2, lo),
            ("clustered24", 4, hi), ("clustered64", 4, lo), ("clustered64", 8, hi),
            ("clustered128", 6, lo), ("clustered128", 10, hi), ("dumbbell32", 1, lo),
            ("dumbbell64", 1, lo), ("rr256_8", 8, lo), ("rr512_8", 16, lo),
        ]
    out = []
    for name, k, eps_p in plan:
        if name.startswith("dumbbell") and k == 1:
            s = [0]
        elif name in LARGE_THINNING:
            s = sorted(large_instances(f"{name}/{k}").sample(range(ctx.graphs[name].n), k))
        else:
            s = ctx.sample(name, k)
        out.append((name, s, eps_p))
    return out


def thinning_jobs(ctx: Context) -> list[Job]:
    rs = ctx.rs
    jobs: list[Job] = []

    def library(kind, tag, name, s, eps_p, **kwargs):
        """Library thinning, untracked; its set must equal the first one
        computed for the same instance (CLI if any, else untracked)."""

        def call():
            g, _ = rs.graph.load_edge_list(ctx.path(name))
            cfg = rs.participating.ParticipatingConfig(eps_p=eps_p)
            result = rs.participating.compute_participating(g, s, cfg, **kwargs)
            ctx.shared[(kind, tag)] = result
            return result

        def check(result: Result) -> str | None:
            want = ctx.shared.get(("cli", tag))
            if want is None and kind != "untracked":
                want = sorted(ctx.shared[("untracked", tag)].participating)
            if want is not None and sorted(result.value.participating) != want:
                return "fixed point depends on the removal order or tracking"
            return None

        return Job(id=f"participating-{kind}-{tag}", call=call, check=check)

    def library_jobs(tag, name, s, eps_p):
        return [
            library("untracked", tag, name, s, eps_p, track_potential=False),
            library("batch", tag, name, s, eps_p, track_potential=False, order="batch"),
            restricted_job(ctx, tag, name, s, ("untracked", tag)),
        ]

    for i, (name, s, eps_p) in enumerate(thinning_instances(ctx)):
        adj = ctx.graphs[name].adj
        tag = f"{i}-{name}"
        log = f"thin-{tag}.removals.csv"

        def check_cli(result: Result, tag=tag, s=s, adj=adj, log=log, eps_p=eps_p) -> str | None:
            payload = load_json(result)
            members = sorted(int(v) for v in payload["participating"])
            ctx.shared[("cli", tag)] = members
            if members != sorted(oracles.participating_set(adj, s, eps_p)):
                return "reported set is not the largest fixed point of the thinning rule"
            if payload["removals"] != len(adj) - len(members):
                return "removal count does not match the surviving set"
            if len(result.files[log].decode().splitlines()) != payload["removals"] + 1:
                return "removal log length does not match the removal count"
            audit = payload["active_fraction_check"]
            if not audit["skipped"] and not audit["all_ok"]:
                return "guarantee audit failed on an in-scope instance"
            return None

        jobs.append(Job(
            id=f"participating-{tag}",
            argv=["participating", "--graph", ctx.path(name), "--set", nodes_arg(s), "--eps-p", str(eps_p),
                  "--check", "--log-csv", log],
            outputs=(log,),
            check=check_cli,
        ))
        jobs += library_jobs(tag, name, s, eps_p)

    if not ctx.tiny:
        s = sorted(large_instances("rr2048_8/160").sample(range(ctx.graphs["rr2048_8"].n), 160))
        jobs += library_jobs("big-rr2048_8", "rr2048_8", s, EPS_DEFAULT)
    return jobs


def restricted_job(ctx: Context, tag: str, name: str, s: list[int], key) -> Job:
    """Restricted spread toward S over the participating set computed by the
    job just before it in the same pass."""
    rs = ctx.rs
    seed = ctx.seed()

    def call():
        part = ctx.shared[key]
        g, _ = rs.graph.load_edge_list(ctx.path(name))
        outside = sorted(part.participating - set(s))
        origin = outside[-1] if outside else min(part.participating)
        cfg = rs.protocols.ProtocolConfig(rng_seed=seed)
        return rs.protocols.run_restricted(
            g, s, origin, cfg, part.participating, part.active, stop_at_target=True
        )

    def check(result: Result) -> str | None:
        trace = result.value
        if any(b < a for a, b in zip(trace.informed, trace.informed[1:])):
            return "informed count decreased"
        if trace.t_target is not None and trace.t_target > trace.rounds:
            return "target round beyond the end of the run"
        return None

    return Job(id=f"restricted-{tag}", call=call, check=check)


WORKLOADS = {
    "exact-enum": Workload("exact-enum", exact_graphs, exact_jobs),
    "spread": Workload("spread", spread_graphs, spread_jobs),
    "thinning": Workload("thinning", thinning_graphs, thinning_jobs),
}
