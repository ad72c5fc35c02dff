#!/usr/bin/env python3
"""Tabulate combined expansion against conductance on clustered graphs.

For each degree, builds a few clustered-regular instances (dense regular
components plus one random extra edge per node), enumerates both graph-level
measures exactly, and prints the mean ratio. The ratio widening as the degree
grows is the point of the table. Instance sizes grow with the degree, and the
exact enumeration is exponential, so keep degrees modest.
"""

import argparse
import csv
import errno
import os
import sys

from rumorspread import combined_vs_conductance_table
from rumorspread.cli import _run, _write_file

COLUMNS = ("degree", "n", "instances", "mean_conductance", "mean_combined", "mean_ratio")


def degree_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def check_directory(target: str) -> None:
    """Raise the OSError that writing ``target`` would raise for a missing
    or unwritable directory, without creating the file."""
    directory = os.path.dirname(os.path.abspath(target))
    if not os.path.isdir(directory):
        os.listdir(directory)  # raises: missing, or not a directory
    if not os.access(directory, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def _tabulate(args) -> int:
    if args.out:  # a bad directory is found before the enumeration
        _write_file(args.out, check_directory)
    rows = combined_vs_conductance_table(
        args.degrees,
        c=args.c,
        num_components=args.components,
        instances=args.instances,
        rng_seed=args.seed,
    )
    print(" ".join(f"{c:>16}" for c in COLUMNS))
    for row in rows:
        print(
            f"{row['degree']:>16} {row['n']:>16} {row['instances']:>16} "
            f"{row['mean_conductance']:>16.6g} {row['mean_combined']:>16.6g} "
            f"{row['mean_ratio']:>16.6g}"
        )

    def write(target: str) -> None:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COLUMNS)
            writer.writeheader()
            writer.writerows(rows)

    if args.out:
        _write_file(args.out, write)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--degrees",
        type=degree_list,
        default="3,4,5",
        help="comma list of component degrees to test",
    )
    parser.add_argument("--instances", type=int, default=3)
    parser.add_argument("--components", type=int, default=2)
    parser.add_argument("--c", type=int, default=2, help="component size factor")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="also write the table as CSV")
    return _run(_tabulate, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
