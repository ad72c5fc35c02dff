"""Command line front end.

Subcommands: gen, analyze, simulate, participating, experiment, report.
Exit codes: 0 success, 2 bad input or an unreadable, undecodable or
unwritable file, 3 problem size beyond the enumeration capability, 4 spread
did not complete within the round cap, 5 randomized construction failed; each
error class maps to its code in ``_EXIT_CODES``, which only ``_run`` reads.
``_run`` is the one front end of ``main`` and of both research scripts under
``scripts/``: each parses its flags and hands its body to it. Every file a
command reads goes through ``_read_input`` and every file it writes through
``_write_file``. Relative output paths are resolved against
$RUMORSPREAD_OUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .generators import _PARAM_TYPES, FAMILY_NAMES, FamilySpec, greedy_dominating_set
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
# the exit code of each error class a command may raise
_EXIT_CODES = {
    InputError: EXIT_INPUT,
    CapabilityError: EXIT_CAPABILITY,
    IncompleteSpreadError: EXIT_INCOMPLETE,
    ConstructionError: EXIT_CONSTRUCTION,
}

# Short measure names accepted on the command line.
MEASURE_ALIASES = {
    "alpha": "vertex-expansion",
    "phi": "conductance",
    "h": "boundary-expansion",
    "xi": "combined-expansion",
    "rho": "augmented-combined-expansion",
}
MEASURES = tuple(MEASURE_ALIASES.values())
# each measure's function of one node set, named as an ``expansion``
# attribute and looked up at call time, so a wrapper installed on the module
# (perfbench's tracer) sees the call; the graph-level minima of the
# enumerable measures come from one enumeration, and the others need a set
_SET_MEASURES = {
    "vertex-expansion": "vertex_expansion_set",
    "conductance": "conductance_set",
    "boundary-expansion": "boundary_expansion_exact",
    "combined-expansion": "combined_expansion_set",
    "augmented-combined-expansion": "augmented_combined_expansion_set",
}
_ENUMERABLE = ("vertex-expansion", "conductance", "combined-expansion")
# gen's flag (dest) for each family parameter: rng_seed is spelled --seed
_GEN_DESTS = {name: "seed" if name == "rng_seed" else name for name in _PARAM_TYPES}


def _out_path(path: str) -> str:
    """Resolve a user-supplied output path, honoring RUMORSPREAD_OUT_DIR."""
    base = os.environ.get("RUMORSPREAD_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _read_input(what: str, read, path: str):
    """Return ``read(path)``; a file that cannot be opened or decoded is bad
    input (exit 2), not a traceback."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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


def _resolve_set(
    text: str | None, path: str | None, g: Graph, mapping: dict[str, int]
) -> frozenset[int]:
    """Read a node set given as ``--set`` text or a ``--set-file`` path, in
    original labels, and map it to internal ids through the label -> id
    mapping of ``load_edge_list``. The file holds one label per line, kept as
    a string so it matches edge-list labels exactly; blank lines and ``#``
    lines are skipped."""
    if text is not None and path:
        raise InputError("give --set or --set-file, not both")
    if text is not None:
        labels = text.replace(",", " ").split()
    elif path:
        lines = [line.strip() for line in _read_input("set file", _read_text, path).split("\n")]
        labels = [line for line in lines if line and not line.startswith("#")]
    else:
        raise InputError("a node set is required (--set or --set-file)")
    members = []
    for label in labels:
        if label not in mapping:
            raise InputError(f"node {label!r} is not in the graph")
        members.append(mapping[label])
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


def cmd_gen(args) -> int:
    given = {name: getattr(args, dest) for name, dest in _GEN_DESTS.items()}
    spec = FamilySpec(args.family, {k: v for k, v in given.items() if v is not None})
    g = spec.build()
    _write_file(args.out, lambda target: save_edge_list(g, target, header=[spec.describe()]))
    return EXIT_OK


# -- analyze ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    g, mapping = _read_input("graph file", load_edge_list, args.graph)
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

    given = args.set is not None or args.set_file is not None  # --set "" is refused, not ignored
    s = _resolve_set(args.set, args.set_file, g, mapping) if given else None

    # every graph-level measure comes from one enumeration, run where the
    # first of them is requested so errors keep their order
    enumerated: dict[str, expansion.ExpansionReport] = {}
    reports = []
    for name in requested:
        if s is None:
            if name not in _ENUMERABLE:
                raise InputError(f"{name} needs a node set (--set)")
            if not enumerated:
                graph_level = [m for m in requested if m in _ENUMERABLE]
                enumerated = expansion._enumerated(g, graph_level, args.limit)
            rep = enumerated[name]
        elif name == "boundary-expansion" and args.samples:
            rep = expansion.boundary_expansion_mc(g, s, samples=args.samples, rng_seed=args.seed)
        else:
            value = getattr(expansion, _SET_MEASURES[name])(g, s)
            rep = expansion.ExpansionReport(
                measure=name, value=value, witness=tuple(sorted(s)), method="set"
            )
        reports.append(rep.to_json_dict())

    payload: dict = {"graph": args.graph, "n": g.n, "measures": reports}
    if list(mapping) != list(map(str, range(g.n))):  # the labels, in id order
        payload["node_mapping"] = mapping
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
    g, mapping = _read_input("graph file", load_edge_list, args.graph)
    if args.informed == "random":
        initial = None
    elif args.informed == "dominating":
        initial = greedy_dominating_set(g)
    else:
        initial = _resolve_set(args.informed, None, g, mapping)
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
    g, mapping = _read_input("graph file", load_edge_list, args.graph)
    s = _resolve_set(args.set, args.set_file, g, mapping)
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
    back = list(mapping)  # the labels in id order
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
        # the audit needs both fixed points; this one is already computed
        reuse = {"modified" if args.restricted_start else "full": result}
        rep = part_mod.active_fraction_check(g, s, cfg, **reuse)
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
    text = _read_input("config", _read_text, args.config)
    try:
        data = json.loads(text)
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
        rows.extend(_read_input("points table", read_points_csv, path))
    digest = combine_point_rows(rows)
    _write_json(digest, args.out)
    return EXIT_OK


# -- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it, so
    repeated in-process ``main`` calls do not rebuild it."""
    parser = argparse.ArgumentParser(
        prog="rumorspread",
        description="Rumor spreading simulations and expansion analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write an edge list")
    p.add_argument("family", choices=FAMILY_NAMES)
    for name, dest in _GEN_DESTS.items():
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=_PARAM_TYPES[name])
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


def _run(command, args) -> int:
    """Return ``command(args)``, or, for an error of a class in ``_EXIT_CODES``,
    print ``error: ...`` on stderr and return that class's code."""
    try:
        return command(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
