"""Command line front end.

Subcommands: gen, analyze, simulate, participating, experiment, report.
Exit codes: 0 success, 2 bad input or unreadable or unwritable file, 3
problem size beyond the enumeration capability, 4 spread did not complete
within the round cap, 5 randomized construction failed. Relative output paths
are resolved against $RUMORSPREAD_OUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import expansion, participating as part_mod
from .errors import (
    CapabilityError,
    ConstructionError,
    IncompleteSpreadError,
    InputError,
)
from .experiment import (
    ExperimentConfig,
    combine_point_rows,
    read_points_csv,
    run_experiment,
    write_points_csv,
    write_report_json,
)
from .generators import FAMILY_NAMES, FamilySpec, greedy_dominating_set
from .graph import Graph, load_edge_list, save_edge_list
from .protocols import (
    VARIANTS,
    ProtocolConfig,
    monte_carlo,
    write_summary_csv,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_INCOMPLETE = 4
EXIT_CONSTRUCTION = 5

# Short measure names accepted on the command line.
MEASURE_ALIASES = {
    "alpha": "vertex-expansion",
    "phi": "conductance",
    "h": "boundary-expansion",
    "xi": "combined-expansion",
    "rho": "augmented-combined-expansion",
}
MEASURES = tuple(MEASURE_ALIASES.values())


def _out_path(path: str) -> str:
    """Resolve a user-supplied output path, honoring RUMORSPREAD_OUT_DIR."""
    base = os.environ.get("RUMORSPREAD_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _write_file(path: str, write) -> None:
    """Resolve an output path and call ``write(resolved)``; a file that
    cannot be created or written is bad input (exit 2), not a traceback."""
    target = path
    try:
        target = _out_path(path)
        write(target)
    except OSError as exc:
        raise InputError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _parse_fraction(text: str, flag: str) -> Fraction:
    """An exact rational from a fraction or decimal literal such as 3/20 or
    0.15. Anything else (nan, inf, 1/0, words) is bad input, and so is a
    literal over 40 characters or with an exponent beyond two digits: its
    value would take long to build and could be too long to print."""
    literal = text.strip()
    exponent = literal.lower().partition("e")[2]
    if len(literal) <= 40 and len(exponent.lstrip("+-0")) <= 2:
        try:
            return Fraction(literal)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(
        f"bad {flag} value {text!r}: expected a fraction or decimal such as 3/20 or 0.15"
    )


def _load_graph(path: str) -> tuple[Graph, dict]:
    try:
        return load_edge_list(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from exc


def _parse_node_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputError(f"bad node list {text!r}: {exc}") from exc


def _read_set_labels(path: str) -> list[str]:
    """Labels of a node-set file, one per line, kept as strings so they match
    edge-list labels exactly; blank lines and ``#`` lines are skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read set file {path}: {exc}") from exc
    return [line for line in lines if line and not line.startswith("#")]


def _resolve_set(args, g: Graph, mapping: dict) -> frozenset[int]:
    """Read --set / --set-file in original labels and map to internal ids."""
    if getattr(args, "set", None) is not None and getattr(args, "set_file", None):
        raise InputError("give --set or --set-file, not both")
    if getattr(args, "set", None) is not None:
        labels = [tok for tok in args.set.replace(",", " ").split()]
    elif getattr(args, "set_file", None):
        labels = _read_set_labels(args.set_file)
    else:
        raise InputError("a node set is required (--set or --set-file)")
    inverse = {str(orig): new for orig, new in mapping.items()}
    members = []
    for label in labels:
        if label not in inverse:
            raise InputError(f"node {label!r} is not in the graph")
        members.append(inverse[label])
    return g.check_set(members)


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return

    def write(target: str) -> None:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)

    _write_file(out, write)


# -- gen --------------------------------------------------------------------


def _family_params(args) -> dict:
    params = {}
    for key in ("n", "d", "m", "leaves", "degree", "num_components", "c"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if args.p is not None:
        params["p"] = args.p
    if args.seed is not None:
        params["rng_seed"] = args.seed
    return params


def cmd_gen(args) -> int:
    spec = FamilySpec(args.family, _family_params(args))
    g = spec.build()
    _write_file(args.out, lambda target: save_edge_list(g, target, header=[spec.describe()]))
    return EXIT_OK


# -- analyze ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    g, mapping = _load_graph(args.graph)
    requested = []
    for token in args.measures.split(","):
        token = token.strip()
        name = MEASURE_ALIASES.get(token, token)
        if name not in MEASURES:
            raise InputError(
                f"unknown measure {token!r}; known: "
                + ", ".join(sorted(MEASURE_ALIASES) + list(MEASURES))
            )
        requested.append(name)

    s = _resolve_set(args, g, mapping) if (args.set or args.set_file) else None
    limit = args.limit

    def as_report(name: str, value: float) -> expansion.ExpansionReport:
        return expansion.ExpansionReport(
            measure=name,
            value=value,
            witness=tuple(sorted(s)),
            method="set",
        )

    set_only = {
        "boundary-expansion": expansion.boundary_expansion_exact,
        "augmented-combined-expansion": expansion.augmented_combined_expansion_set,
    }
    set_or_graph = {
        "vertex-expansion": (expansion.vertex_expansion_set, expansion.vertex_expansion_graph),
        "conductance": (expansion.conductance_set, expansion.conductance_graph),
        "combined-expansion": (expansion.combined_expansion_set, expansion.combined_expansion_graph),
    }
    reports = []
    for name in requested:
        if name in set_only:
            if s is None:
                raise InputError(f"{name} needs a node set (--set)")
            if name == "boundary-expansion" and args.samples:
                rep = expansion.boundary_expansion_mc(
                    g, s, samples=args.samples, rng_seed=args.seed
                )
            else:
                rep = as_report(name, set_only[name](g, s))
        elif s is not None:
            rep = as_report(name, set_or_graph[name][0](g, s))
        else:
            rep = set_or_graph[name][1](g, limit)
        reports.append(rep.to_json_dict())

    payload: dict = {"graph": args.graph, "n": g.n, "measures": reports}
    if any(str(orig) != str(new) for orig, new in mapping.items()):
        payload["node_mapping"] = {str(orig): new for orig, new in mapping.items()}
    if args.decompose:
        if s is None:
            raise InputError("--decompose needs a node set (--set)")
        dec = expansion.degree_class_decomposition(g, s, args.threshold)
        payload["degree_classes"] = {
            "split_threshold": dec.split_threshold,
            "cheap_degree_cap": dec.c,
            "low": sorted(dec.low),
            "mid": sorted(dec.mid),
            "high": sorted(dec.high),
            "contributions": list(dec.contributions),
            "certifying_classes": list(dec.certifying_classes),
            "mid_heaviest_degree": dec.mid_heaviest_degree,
            "mid_scale_count": dec.mid_scale_count,
            "high_degree_floor": dec.high_degree_floor,
        }
    _write_json(payload, args.out)
    return EXIT_OK


# -- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    g, mapping = _load_graph(args.graph)
    if args.informed == "random":
        initial = None
    elif args.informed == "dominating":
        initial = greedy_dominating_set(g)
    else:
        class _SetArgs:
            set = args.informed
            set_file = None

        initial = _resolve_set(_SetArgs, g, mapping)
    cfg = ProtocolConfig(
        variant=args.variant,
        initial_informed=initial,
        max_rounds=args.max_rounds,
        rng_seed=args.seed,
    )
    summary, traces = monte_carlo(g, cfg, args.trials, keep_traces=bool(args.trace_out))
    if args.trace_out:
        _write_file(args.trace_out, lambda target: write_trace_csv(traces, target))
    if args.summary_out:
        _write_file(args.summary_out, lambda target: write_summary_csv(summary, target))
    incomplete = summary.trials - summary.completed_count
    print(
        f"trials={summary.trials} completed={summary.completed_count} "
        f"median_t_all={summary.median_t_all:.15g}"
    )
    if incomplete:
        print(
            f"{incomplete} trial(s) hit the round cap before full spread",
            file=sys.stderr,
        )
        return EXIT_INCOMPLETE
    return EXIT_OK


# -- participating ----------------------------------------------------------


def cmd_participating(args) -> int:
    g, mapping = _load_graph(args.graph)
    s = _resolve_set(args, g, mapping)
    cfg = part_mod.ParticipatingConfig(
        eps_p=_parse_fraction(args.eps_p, "--eps-p"),
        eps_h=_parse_fraction(args.eps_h, "--eps-h"),
    )
    build = (
        part_mod.compute_participating_modified
        if args.restricted_start
        else part_mod.compute_participating
    )
    result = build(g, s, cfg)
    back = {new: str(orig) for orig, new in mapping.items()}
    payload = {
        "graph": args.graph,
        "start_rule": result.start_rule,
        "eps_p": str(result.eps_p),
        "eps_h": str(cfg.eps_h),
        "participating": sorted(back[v] for v in result.participating),
        "active": sorted(back[v] for v in result.active),
        "passive": sorted(back[v] for v in result.passive),
        "removals": len(result.removal_log),
        "potential_start": float(result.trajectory[0][0] + result.trajectory[0][1])
        if result.trajectory
        else None,
    }
    if args.check:
        rep = part_mod.active_fraction_check(g, s, cfg)
        payload["active_fraction_check"] = {
            "skipped": rep.skipped,
            "reason": rep.reason,
            "boundary_expansion": rep.h_value,
            "surviving_boundary": rep.surviving_boundary,
            "fraction_floor": rep.fraction_floor,
            "all_ok": rep.all_ok,
        }
    if args.log_csv:
        _write_file(args.log_csv, lambda target: part_mod.write_removal_log_csv(result, target))
    _write_json(payload, args.out)
    return EXIT_OK


# -- experiment / report ----------------------------------------------------


def cmd_experiment(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {args.config}: {exc}") from exc
    cfg = ExperimentConfig.from_json_dict(data)
    if args.trials is not None:
        cfg = dataclasses.replace(cfg, trials=args.trials)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, rng_seed=args.seed)
    report, _ = run_experiment(cfg)
    _write_file(args.points_out, lambda target: write_points_csv(report, target))
    _write_file(args.report_out, lambda target: write_report_json(report, target))
    print(
        f"points={len(report.points)} c_hat={report.c_hat:.15g} "
        f"drift={report.drift:.15g}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    rows: list[dict] = []
    for path in args.inputs:
        try:
            rows.extend(read_points_csv(path))
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    digest = combine_point_rows(rows)
    _write_json(digest, args.out)
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorspread",
        description="Rumor spreading simulations and expansion analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write an edge list")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--leaves", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--num-components", dest="num_components", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="compute expansion measures")
    p.add_argument("--graph", required=True)
    p.add_argument("--set")
    p.add_argument("--set-file")
    p.add_argument(
        "--measures",
        default="alpha,phi",
        help="comma list, e.g. alpha,phi,h,xi,rho",
    )
    p.add_argument("--samples", type=int, default=0, help="use sampling for h")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="enumeration node cap")
    p.add_argument("--decompose", action="store_true")
    p.add_argument(
        "--eps-h",
        dest="threshold",
        type=float,
        default=0.5,
        help="split threshold for --decompose",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run spreading trials")
    p.add_argument("--graph", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="pushpull")
    p.add_argument(
        "--informed",
        default="random",
        help='"random", "dominating", or a node list like "0,1"',
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--trace-out")
    p.add_argument("--summary-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("participating", help="build the participating set")
    p.add_argument("--graph", required=True)
    p.add_argument("--set")
    p.add_argument("--set-file")
    p.add_argument("--eps-p", default="3/20")
    p.add_argument("--eps-h", default="1/2")
    p.add_argument(
        "--restricted-start",
        action="store_true",
        help="start from the closure plus qualified outer-boundary nodes",
    )
    p.add_argument("--check", action="store_true", help="run the fraction checks")
    p.add_argument("--log-csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_participating)

    p = sub.add_parser("experiment", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=None, help="override config trials")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--points-out", default="points.csv")
    p.add_argument("--report-out", default="report.json")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="merge points tables into a drift digest")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except IncompleteSpreadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
