#!/usr/bin/env python3
"""Record the benchmark trajectory, or compare two points on it.

    python3 scripts/bench_record.py --pr 6
    python3 scripts/bench_record.py --pr 7 --compare BENCH_6.json
    python3 scripts/bench_record.py --compare BENCH_6.json BENCH_7.json

With ``--pr N`` the script runs every workload of ``BENCHMARK.json`` through
``perfbench/run.py`` at seed 0 (the seed of ``perfbench/reference.json``, so
every output is also checked against it) for ``run_seconds`` seconds,
once plain for the end-to-end metrics and once with ``--trace 1`` for the
per-layer ones. It gathers each run's result line and its run record
(``.perfbench/record-<workload>.json``) into ``BENCH_N.json`` at the root of
the checkout. It also runs the tier-1 test suite once (the command in
``TIER1``, with ``src`` on ``PYTHONPATH``) and stores its wall time and
outcome counts under ``tier1``. It refuses to run while tracked files differ
from HEAD, since each record's ``git_commit`` must name the code that ran:
commit first.

``--compare OLD [NEW]`` prints every end-to-end metric of NEW (by default the
file just written) against OLD, and flags each one that is worse than OLD by
more than its bound in ``BENCHMARK.json``. It exits 1 if any is, or if a run
was incorrect or failed jobs. It prints the tier-1 wall time and pass count
of both files as well, without flagging them: ``BENCHMARK.json`` gives them
no bound. One run per workload is a single sample: a flag says where to
look, and a claim needs the alternating pairs that ``perfbench/README.md``
describes.

Each workload's metrics are rescaled by the host slowness its run measured,
so two records of different sessions can disagree with their own raw times.
For every workload the comparison also prints both records' unrescaled pass
wall (``raw_wall_s``) and host-slowness median, and says when those medians
differ by more than ``DRIFT`` (15%): the two records come from hosts of
different speed, and only same-session pairs (``scripts/bench_pairs.py``)
can tell a regression from that drift. The note does not change the exit
status.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SEED = 0
# Host-slowness medians further apart than this mark a cross-session compare.
DRIFT = 0.15
# The tier-1 test suite, run from the root of the checkout.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(benchmark: dict, workload: str, trace: bool, seed: int = SEED,
                 cwd: str = ROOT) -> dict:
    """One perfbench run from the checkout ``cwd``: its parsed result line
    and run record."""
    argv = [sys.executable, *benchmark["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(benchmark["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{cwd}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "result": json.loads(lines[-1]),
        "record": load_json(os.path.join(cwd, ".perfbench", f"record-{workload}.json")),
    }


def run_tier1() -> dict:
    """One run of the tier-1 suite: its wall time, exit code and the counts
    of its summary line (passed, failed, errors, ...)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    summary = next((line for line in reversed(proc.stdout.splitlines())
                    if re.search(r"\d+ (passed|failed|errors?)\b", line)), "")
    counts = {word: int(k) for k, word in re.findall(r"(\d+) ([a-z]+)", summary)}
    return {
        "command": ["python", *TIER1],
        "wall_s": round(wall_s, 3),
        "returncode": proc.returncode,
        "passed": counts.get("passed", 0),
        "counts": counts,
    }


def worktree_clean() -> bool | None:
    """Whether tracked files match HEAD, so that the records' ``git_commit``
    names the code that ran; None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout == ""


def record(benchmark: dict, pr: int) -> str:
    workloads = {}
    for spec in benchmark["workloads"]:
        name = spec["name"]
        print(f"running {name} (seed {SEED}, {benchmark['run_seconds']} s, plain then traced)",
              file=sys.stderr)
        plain = run_workload(benchmark, name, trace=False)
        traced = run_workload(benchmark, name, trace=True)
        workloads[name] = {"plain": plain, "traced": traced}
    print("running the tier-1 suite", file=sys.stderr)
    out = {
        "pr": pr,
        "seed": SEED,
        "seconds": benchmark["run_seconds"],
        "command": benchmark["command"],
        "workloads": workloads,
        "tier1": run_tier1(),
    }
    path = os.path.join(ROOT, f"BENCH_{pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return path


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a fraction of ``old``."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def drift_note(name: str, old: dict, new: dict) -> None:
    """Print both run records' raw pass wall and host-slowness median, and a
    warning when the medians differ by more than ``DRIFT``."""
    walls = [record.get("raw_wall_s") for record in (old, new)]
    slow = [record.get("host_slowness", {}).get("p50") for record in (old, new)]
    for key, (a, b) in (("raw_wall_s", walls), ("slowness_p50", slow)):
        a, b = ("n/a" if x is None else f"{x:.4g}" for x in (a, b))
        print(f"{name:<12}{key:<14}{a:>12}{b:>12}   (unrescaled, no bound)")
    if None not in slow and abs(slow[1] - slow[0]) > DRIFT * slow[0]:
        print(f"{name:<12}host slowness medians differ by more than {DRIFT:.0%}: this comparison crosses "
              "sessions, and only same-session pairs (scripts/bench_pairs.py) can separate a regression "
              "from host drift")


def compare(benchmark: dict, old: dict, new: dict) -> int:
    flagged = 0
    print(f"{'workload':<12}{'metric':<14}{'old':>12}{'new':>12}{'worse by':>10}{'bound':>8}")
    for spec in benchmark["workloads"]:
        name = spec["name"]
        if name not in old["workloads"] or name not in new["workloads"]:
            print(f"{name:<12}missing from one of the files")
            flagged += 1
            continue
        result = new["workloads"][name]["plain"]["result"]
        if not result["correct"] or result["failed"]:
            print(f"{name:<12}incorrect run: {result['failed']} of {result['attempted']} jobs failed")
            flagged += 1
        before = old["workloads"][name]["plain"]["result"]["metrics"]
        after = result["metrics"]
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            a, b = before[key]["value"], after[key]["value"]
            worse = worse_by(a, b, metric["better"])
            flag = worse > metric["bound"]
            flagged += flag
            print(f"{name:<12}{key:<14}{a:>12.4g}{b:>12.4g}{worse:>+10.1%}{metric['bound']:>8.0%}"
                  + ("  BEYOND BOUND" if flag else ""))
        drift_note(name, old["workloads"][name]["plain"]["record"], new["workloads"][name]["plain"]["record"])
    tier1 = [run.get("tier1") for run in (old, new)]
    for key in ("wall_s", "passed"):
        a, b = ("n/a" if t is None else t[key] for t in tier1)
        print(f"{'tier-1':<12}{key:<14}{a:>12}{b:>12}   (no bound)")
    return 1 if flagged else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, help="run the workloads and write BENCH_<pr>.json")
    p.add_argument("--compare", nargs="+", metavar="FILE",
                   help="OLD [NEW]: flag end-to-end metrics of NEW beyond their bounds against OLD")
    args = p.parse_args(argv)
    if args.pr is None and not args.compare:
        p.error("give --pr, --compare or both")
    if args.compare and len(args.compare) > 2:
        p.error("--compare takes OLD and at most one NEW")
    if args.compare and len(args.compare) == 1 and args.pr is None:
        p.error("--compare OLD needs --pr to produce NEW, or a second file")
    if args.compare and len(args.compare) == 2 and args.pr is not None:
        p.error("--compare OLD NEW compares two files; drop --pr")
    benchmark = load_json(BENCHMARK)
    new_path = None
    if args.pr is not None:
        if worktree_clean() is False:
            p.error("tracked files differ from HEAD; commit them so the records name the code that ran")
        new_path = record(benchmark, args.pr)
    if not args.compare:
        return 0
    old_path = args.compare[0]
    new_path = args.compare[1] if len(args.compare) == 2 else new_path
    return compare(benchmark, load_json(old_path), load_json(new_path))


if __name__ == "__main__":
    sys.exit(main())
