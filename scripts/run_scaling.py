#!/usr/bin/env python3
"""Run the standard scaling sweeps and write their points tables and reports.

Four sweeps: hypercubes under PUSH-PULL, random 8-regular graphs under PULL
from a dominating set, and the fast/slow pair of two cliques joined at a
shared vertex versus joined by a single bridge edge. Each sweep writes
<name>_points.csv and <name>_report.json into the output directory and prints
one summary line.
"""

import argparse
import os
import sys

from rumorspread import ExperimentConfig, run_experiment, write_points_csv, write_report_json
from rumorspread.cli import _run, _write_file


def sweep_configs(quick: bool, trials: int, seed: int):
    d_range = range(6, 10) if quick else range(6, 13)
    k_range = range(8, 11) if quick else range(8, 13)
    ms = (32, 64, 128) if quick else (32, 64, 128, 256, 512)
    yield "hypercube", ExperimentConfig(
        family="hypercube",
        sweep=tuple({"d": d} for d in d_range),
        trials=trials,
        rng_seed=seed,
    )
    yield "regular_pull", ExperimentConfig(
        family="random_regular",
        sweep=tuple({"n": 2**k, "degree": 8} for k in k_range),
        variant="pull",
        informed="dominating",
        trials=trials,
        rng_seed=seed + 1,
    )
    yield "two_cliques", ExperimentConfig(
        family="two_cliques",
        sweep=tuple({"m": m} for m in ms),
        trials=trials,
        rng_seed=seed + 2,
    )
    yield "dumbbell", ExperimentConfig(
        family="dumbbell",
        sweep=tuple({"m": m} for m in ms),
        trials=trials,
        bound_model="linear_n",
        max_rounds_factor=16,
        rng_seed=seed + 3,
    )


def _run_sweeps(args) -> int:
    configs = list(sweep_configs(args.quick, args.trials, args.seed))
    _write_file(args.out_dir, lambda target: os.makedirs(target, exist_ok=True))
    for name, cfg in configs:
        report, _ = run_experiment(cfg)
        out = os.path.join(args.out_dir, name)
        _write_file(f"{out}_points.csv", lambda target: write_points_csv(report, target))
        _write_file(f"{out}_report.json", lambda target: write_report_json(report, target))
        print(
            f"{name}: model={report.bound_model} points={len(report.points)} "
            f"c_hat={report.c_hat:.3g} drift={report.drift:.3g} "
            f"within_factor_2={report.passes()}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="scaling_out")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps for a fast look"
    )
    return _run(_run_sweeps, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
