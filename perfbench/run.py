"""Outside-in benchmark of the rumorspread package.

    python3 perfbench/run.py --workload exact-enum --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and driven only through public calls:
``rumorspread.cli.main(argv)`` in-process for what the CLI serves, direct
library calls otherwise. One client, closed loop: each job starts when the
previous one returns.

A run generates the workload's graphs from ``--seed`` (set-up, repeated and
timed), runs the job list once to check every output, then repeats the job
list for ``--seconds`` and reports medians. End-to-end times are rescaled to
a reference host speed measured by a calibration run around every job (see
``harness.host_seconds``). ``--trace 1`` alternates plain and traced passes
and reports per-layer metrics instead. The last line of
stdout is the result as JSON; the line before it is the run record.

``--write-reference`` runs the checked pass at seed 0 and stores every job's
output digest in ``reference.json``; later runs at seed 0 count a job whose
digest differs as failed.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# BLAS and OpenMP pools read these when numpy loads.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9
MODULES = ("cli", "graph", "generators", "rng", "expansion", "protocols", "participating", "experiment")


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_package() -> types.SimpleNamespace:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        mods = {name: importlib.import_module(f"rumorspread.{name}") for name in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import rumorspread from {src}: {exc}") from exc
    origin = os.path.realpath(mods["cli"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SetupError(f"rumorspread was imported from {origin}, not from {src}")
    return types.SimpleNamespace(**mods)


def set_up(rs, specs: dict) -> tuple[dict, float]:
    """Generate every graph and write its edge list under ``g/``; returns the
    graphs and the time taken on the reference host."""
    shutil.rmtree("g", ignore_errors=True)
    os.makedirs("g")
    before = harness.host_slowness()
    t0 = time.perf_counter()
    graphs = {}
    for name, (family, params) in specs.items():
        g = getattr(rs.generators, family)(**params)
        header = [f"family={family} " + " ".join(f"{k}={params[k]}" for k in sorted(params))]
        rs.graph.save_edge_list(g, Context.path(name), header=header)
        graphs[name] = g
    seconds = time.perf_counter() - t0
    return graphs, harness.host_seconds(seconds, before, harness.host_slowness())


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def versions() -> dict:
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"seed": REFERENCE_SEED, "workloads": {}}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks the job list for self-tests")
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


@contextlib.contextmanager
def span(tracer: tracing.Tracer, name: str):
    idx = tracer.open(tracer.intern(name))
    try:
        yield
    finally:
        tracer.close(idx)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_reference and (args.seed != REFERENCE_SEED or args.scale != "full"):
        print(f"--write-reference needs --seed {REFERENCE_SEED} and --scale full", file=sys.stderr)
        return 2
    try:
        rs = import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    # Before the import no calibration can run; the median of three right
    # after stands for both ends.
    after = harness.median([harness.host_slowness() for _ in range(3)])
    import_s = harness.host_seconds(import_s, after, after)
    os.environ.pop("RUMORSPREAD_OUT_DIR", None)
    workload = WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    work = os.path.join(OUT_DIR, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    try:
        return run(args, rs, workload, tiny, import_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def run(args, rs, workload, tiny: bool, import_s: float) -> int:
    tracer = tracing.Tracer() if args.trace else None
    specs = workload.graphs(random.Random(f"{args.seed}:graphs"), tiny)

    setup_times: list[float] = []
    setup_ranges: list[tuple[int, int]] = []
    for _ in range(1 if tiny or args.write_reference else SETUP_REPEATS):
        if tracer is None:
            graphs, seconds = set_up(rs, specs)
        else:
            undo = tracing.install(tracer, rs)
            lo = len(tracer)
            graphs, seconds = set_up(rs, specs)
            undo()
            setup_ranges.append((lo, len(tracer)))
        setup_times.append(seconds)
    setup_s = import_s + harness.median(setup_times)

    ctx = Context(rs, graphs, random.Random(f"{args.seed}:jobs"), tiny)
    jobs = workload.jobs(ctx)
    reference = load_reference()
    expected = None
    if args.seed == reference["seed"] and not tiny and not args.write_reference:
        expected = reference["workloads"].get(workload.name, {}).get("jobs")
        if expected is None:
            print(f"warning: no reference digests for {workload.name}", file=sys.stderr)

    def cli_main():
        return rs.cli.main

    # Checked pass: every output is verified, and its digests become what
    # every later pass must reproduce byte for byte.
    checked = harness.run_pass(jobs, cli_main, expected=expected, check=True)
    # What a user running the job list once holds at most. Later passes can
    # raise the peak by about 7% or not, as the heap happens to fragment.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs_digest = harness.combined_digest(checked.digests)
    if args.write_reference:
        return write_reference(workload.name, checked, outputs_digest)

    plain: list[harness.PassOutcome] = []
    traced: list[tuple[harness.PassOutcome, int, int]] = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            undo = tracing.install(tracer, rs)
            lo = len(tracer)
            outcome = harness.run_pass(
                jobs, cli_main, expected=checked.digests, check=False,
                job_span=lambda: span(tracer, "bench.job"),
            )
            undo()
            traced.append((outcome, lo, len(tracer)))
        else:
            plain.append(harness.run_pass(jobs, cli_main, expected=checked.digests, check=False))
        walls = [sum(p.seconds) for p in plain] + [sum(p.seconds) for p, _, _ in traced]
        elapsed = time.perf_counter() - start
        balanced = tracer is None or len(traced) == len(plain)
        if balanced and elapsed + harness.median(walls) > args.seconds:
            break

    passes = [checked] + plain + [p for p, _, _ in traced]
    failures: dict[str, str] = {}
    for p in passes:
        for job_id, problem in p.failures.items():
            failures.setdefault(job_id, problem)
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    for job_id, problem in sorted(failures.items())[:10]:
        print(f"FAILED {job_id}: {problem}", file=sys.stderr)

    samples = [t for p in plain for t in p.host_seconds()]
    p50, _ = harness.percentile(samples, 50)
    p90, beyond_p90 = harness.percentile(samples, 90)
    plain_wall = harness.median([sum(p.host_seconds()) for p in plain])
    slowness = [c for p in plain for c in p.slowness]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "versions": versions(),
        "thread_env": {k: os.environ.get(k) for k in PINNED_THREADS},
        "jobs_per_pass": len(jobs),
        "checked_passes": 1,
        "plain_passes": len(plain),
        "traced_passes": len(traced),
        "setup_repeats": len(setup_times),
        "timings": {
            "host": f"every time is on a reference host that runs the calibration loop in "
                    f"{harness.LOOP_REFERENCE_S * 1e3:g} ms and its gather in "
                    f"{harness.GATHER_REFERENCE_S * 1e3:g} ms",
            "setup_s": f"package import once + median of {len(setup_times)} set-ups",
            "wall_s": f"median over {len(plain)} passes of the summed job times",
            "job_p50_ms": f"nearest-rank p50 of {len(samples)} job samples",
            "job_p90_ms": f"nearest-rank p90 of {len(samples)} job samples, {beyond_p90} beyond it",
            "peak_rss_mb": "ru_maxrss of this process after set-up and the checked pass",
        },
        "host_slowness": {
            "samples": len(slowness),
            "p10": harness.percentile(slowness, 10)[0],
            "p50": harness.percentile(slowness, 50)[0],
            "p90": harness.percentile(slowness, 90)[0],
        },
        "raw_wall_s": harness.median([sum(p.seconds) for p in plain]),
        "outputs_digest": outputs_digest,
        "reference_checked": expected is not None,
        "failures": dict(sorted(failures.items())[:10]),
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (plain_wall, "s"),
            "job_p50_ms": (p50 * 1e3, "ms"),
            "job_p90_ms": (p90 * 1e3, "ms"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, traced, setup_ranges, plain_wall, record)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"record-{workload.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("run-record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


UNITS = {".s": "s", "self_s": "s", "_per_s": "1/s", "calls": "count", "removals": "count",
         "points": "count", "bytes": "bytes", "frac": "frac", "share": "frac"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def layer_metrics(tracer, traced, setup_ranges, plain_wall, record) -> dict:
    """Median over traced passes of each per-layer metric, plus set-up time
    in generators and the tracing overhead."""
    per_pass = [
        tracing.pass_metrics(tracing.Summary(tracer, lo, hi), outcome.stdout_bytes)
        for outcome, lo, hi in traced
    ]
    values = {name: harness.median([m[name] for m in per_pass]) for name in per_pass[0]}
    values["generators.build.s"] = harness.median(
        [tracing.Summary(tracer, lo, hi).seconds("generators.build") for lo, hi in setup_ranges]
    )
    traced_wall = harness.median([sum(p.host_seconds()) for p, _, _ in traced])
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    phases = {"setup": setup_ranges, "traced_passes": [[lo, hi] for _, lo, hi in traced]}
    path = os.path.join(OUT_DIR, f"trace-{record['workload']}.json.gz")
    tracer.write(path, phases)
    record["trace_file"] = os.path.relpath(path, ROOT)

    print(f"{'layer':<14}{'self s/pass':>12}{'share':>8}", file=sys.stderr)
    total = sum(values[f"layer.{layer}.self_s"] for layer in tracing.LAYERS) or 1.0
    for layer in tracing.LAYERS:
        t = values[f"layer.{layer}.self_s"]
        print(f"{layer:<14}{t:>12.4f}{t / total:>8.1%}", file=sys.stderr)
    print(f"trace.overhead_frac {values['trace.overhead_frac']:.4f}", file=sys.stderr)
    return {name: (value, unit_of(name)) for name, value in sorted(values.items())}


def write_reference(name: str, checked: harness.PassOutcome, outputs_digest: str) -> int:
    if checked.failures:
        for job_id, problem in sorted(checked.failures.items()):
            print(f"FAILED {job_id}: {problem}", file=sys.stderr)
        print("not writing a reference from failing outputs", file=sys.stderr)
        return 1
    reference = load_reference()
    reference["workloads"][name] = {"combined": outputs_digest, "jobs": dict(sorted(checked.digests.items()))}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(checked.digests)} digests for {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
