#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload thinning --pairs 10
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload spread --pairs 10 --seed 1

Each pair runs ``BENCHMARK.json``'s command (``perfbench/run.py``) once in
each checkout, from that checkout's root, with the same workload, seed and
``BENCHMARK.json``'s ``run_seconds``, untraced. Even pairs run
the parent first and odd pairs the change first, so a drift of the host
during a session falls on both sides alike. Before every run the
``__pycache__`` directories under both checkouts' ``src/`` are removed, so
neither side runs bytecode compiled from other sources or skips the
compile the other side pays.

For every end-to-end metric of ``BENCHMARK.json`` the script prints each
side's median and quartiles, the change of the median, and the pairs the
change won (ties count for neither side). A metric is marked ``gain`` when
the change won at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range, and ``loss`` under the same rule
the other way round. A metric whose median is worse than the parent's by
more than its ``BENCHMARK.json`` bound is marked ``BEYOND BOUND``, as
``bench_record.py --compare`` marks a single run. The exit status is 1 if any
run was incorrect or failed a job, or any metric is beyond its bound, else 0.
A workload that ``BENCHMARK.json`` does not name, or fewer than one pair, is
a usage error (exit 2) before anything runs.
"""

import argparse
import os
import shutil
import statistics
import sys

from bench_record import BENCHMARK, load_json, run_workload, worse_by


def clear_bytecode(checkout: str) -> None:
    for dirpath, dirnames, _ in os.walk(os.path.join(checkout, "src")):
        if "__pycache__" in dirnames:
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))
            dirnames.remove("__pycache__")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str) -> tuple[int, int, str]:
    """Pairs won by the change and by the parent, and "gain", "loss" or "-"
    by the rule of nine tenths of the pairs and the parent's IQR."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, med_p, q3 = quartiles(parent)
    apart = abs(statistics.median(change) - med_p) > q3 - q1
    if apart and wins >= 0.9 * len(parent):
        return wins, losses, "gain"
    if apart and losses >= 0.9 * len(parent):
        return wins, losses, "loss"
    return wins, losses, "-"


def beyond_bound(parent: list[float], change: list[float], metric: dict) -> bool:
    """True when the change's median is worse than the parent's by more than
    the metric's bound."""
    worse = worse_by(statistics.median(parent), statistics.median(change), metric["better"])
    return worse > metric["bound"]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    benchmark = load_json(BENCHMARK)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    p.add_argument("--pairs", type=positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            for checkout in sides.values():
                clear_bytecode(checkout)
            result = run_workload(benchmark, args.workload, trace=False, seed=args.seed,
                                  cwd=sides[side])["result"]
            if not result["correct"] or result["failed"]:
                print(f"pair {i}: {side} run incorrect or failed {result['failed']} jobs", file=sys.stderr)
                ok = False
            runs[side].append(result["metrics"])
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {benchmark['run_seconds']:g} s runs, {args.pairs} pairs; "
          "median [q1, q3] per side, change of the median, pairs won by the change")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent = [m[name]["value"] for m in runs["parent"]]
        change = [m[name]["value"] for m in runs["change"]]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        wins, losses, mark = verdict(parent, change, metric["better"])
        move = f"{(cmed - pmed) / pmed:+.1%}" if pmed else "n/a"
        beyond = beyond_bound(parent, change, metric)
        ok = ok and not beyond
        print(f"{name:12s} {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] -> {cmed:.4g} [{cq1:.4g}, {cq3:.4g}] "
              f"{metric['unit']}  {move:>7s}  won {wins}/{args.pairs} lost {losses}  {mark}"
              + ("  BEYOND BOUND" if beyond else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
