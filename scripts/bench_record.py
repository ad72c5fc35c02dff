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
the checkout. It refuses to run while tracked files differ from HEAD, since
each record's ``git_commit`` must name the code that ran: commit first.

``--compare OLD [NEW]`` prints every end-to-end metric of NEW (by default the
file just written) against OLD, and flags each one that is worse than OLD by
more than its bound in ``BENCHMARK.json``. It exits 1 if any is, or if a run
was incorrect or failed jobs. One run per workload is a single sample: a flag
says where to look, and a claim needs the alternating pairs that
``perfbench/README.md`` describes.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SEED = 0


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(benchmark: dict, workload: str, trace: bool) -> dict:
    """One perfbench run: its parsed result line and run record."""
    argv = [sys.executable, *benchmark["command"][1:], "--workload", workload, "--seed", str(SEED),
            "--seconds", str(benchmark["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "result": json.loads(lines[-1]),
        "record": load_json(os.path.join(ROOT, ".perfbench", f"record-{workload}.json")),
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
    out = {
        "pr": pr,
        "seed": SEED,
        "seconds": benchmark["run_seconds"],
        "command": benchmark["command"],
        "workloads": workloads,
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
