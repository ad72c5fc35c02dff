"""Sweep experiments: simulate a graph family across sizes and compare
completion times against a predictor.

A sweep point builds one graph through its :class:`FamilySpec` (whose
parameter names the config checks when built), runs a batch of trials, and
reports time quantiles. ``_PREDICTORS`` maps each bound model to its
predictor. The fit is judged by ratio drift across the sweep (max ratio over
min ratio), not by absolute constants; every report records that convention.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import expansion
from .errors import InputError
from .generators import (
    _PARAM_TYPES,
    FamilySpec,
    _clustered_order,
    _family_types,
    greedy_dominating_set,
)
from .graph import Graph
from .protocols import MonteCarloSummary, ProtocolConfig, monte_carlo
from .rng import derive_seed

# bound model -> its predictor of a graph, given the enumeration limit; the
# enumerated measures are looked up on ``expansion`` when a predictor runs
_PREDICTORS = {
    "logn": lambda g, limit: math.log2(g.n),
    "linear_n": lambda g, limit: float(g.n),
    "logn_logdelta_over_alpha": lambda g, limit: (
        math.log2(g.n) * math.log2(g.max_degree)
        / expansion.vertex_expansion_graph(g, limit).value
    ),
    "logn_over_phi": lambda g, limit: math.log2(g.n) / expansion.conductance_graph(g, limit).value,
    "logn_over_xi": lambda g, limit: (
        math.log2(g.n) / expansion.combined_expansion_graph(g, limit).value
    ),
}
BOUND_MODELS = tuple(_PREDICTORS)

# the largest ratio drift (max ratio over min ratio) a sweep's fit passes with
_MAX_DRIFT = 2
DRIFT_CONVENTION = (
    "acceptance convention: quantile/predictor ratio drift across the sweep "
    f"must stay within a factor {_MAX_DRIFT}; absolute constants are not asserted"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a family, per-point parameters, protocol, and bound model.

    ``informed`` is "random" (fresh uniform origin per trial), "dominating"
    (greedy dominating set of each graph), or an explicit node tuple.
    ``predictor_values``, when given, override the bound model formula
    point-by-point (needed when the model requires an enumerated measure on a
    graph too large to enumerate). ``max_rounds_factor`` scales the round cap
    with the node count for slow families.
    """

    family: str
    sweep: tuple[dict, ...]
    variant: str = "pushpull"
    informed: str | tuple[int, ...] = "random"
    trials: int = 200
    bound_model: str = "logn"
    predictor_values: tuple[float, ...] | None = None
    quantiles: tuple[float, ...] = (0.5, 0.9)
    rng_seed: int = 0
    max_rounds: int | None = None
    max_rounds_factor: float | None = None
    enumeration_limit: int | None = None

    def __post_init__(self) -> None:
        if self.bound_model not in BOUND_MODELS:
            raise InputError(
                f"unknown bound model {self.bound_model!r}; known: {BOUND_MODELS}"
            )
        if not self.sweep:
            raise InputError("sweep must have at least one point")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        predictors = self.predictor_values
        if predictors is not None and len(predictors) != len(self.sweep):
            raise InputError("predictor_values must match the sweep length")
        # NaN fails both comparisons
        if predictors is not None and not all(0 < v < math.inf for v in predictors):
            raise InputError(f"predictor_values must be positive and finite: {predictors}")
        factor = self.max_rounds_factor
        if factor is not None and not 0 < factor < math.inf:
            raise InputError(f"max_rounds_factor must be positive and finite: {factor}")
        if not self.quantiles or not all(0 < q < 1 for q in self.quantiles):
            raise InputError("quantiles must be in (0,1)")
        if self.max_rounds is not None and self.max_rounds_factor is not None:
            raise InputError("give max_rounds or max_rounds_factor, not both")
        if self.enumeration_limit is not None and self.enumeration_limit < 1:
            raise InputError(f"enumeration_limit must be >= 1, got {self.enumeration_limit}")
        # names and the protocol's rules are checked here, before the first
        # point's graph is built
        seeded = "rng_seed" in _family_types(self.family)
        explicit = isinstance(self.informed, tuple)
        if not explicit and self.informed not in ("random", "dominating"):
            raise InputError(f"bad informed value {self.informed!r}")
        ProtocolConfig(
            variant=self.variant,
            initial_informed=frozenset(self.informed) if explicit else None,
            max_rounds=self.max_rounds,
        )
        if explicit and min(self.informed) < 0:
            raise InputError(f"informed node ids must be nonnegative: {self.informed}")
        for point in self.sweep:
            params = dict(point)
            if seeded:  # a placeholder for the seed that run_experiment derives
                params.setdefault("rng_seed", 0)
            FamilySpec(self.family, params)

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InputError("experiment config must be a JSON object")
        unknown = set(data) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise InputError(f"unknown experiment config keys: {sorted(unknown)}")
        missing = {"family", "sweep"} - set(data)
        if missing:
            raise InputError(f"missing experiment config keys: {sorted(missing)}")
        for key, value in data.items():
            if not _json_value_ok(key, value):
                raise InputError(f"bad value for config key {key!r}: {value!r}")
        kwargs = {k: tuple(v) if type(v) is list else v for k, v in data.items()}
        kwargs["sweep"] = tuple(dict(p) for p in data["sweep"])
        return ExperimentConfig(**kwargs)


_INT, _NUMBER = (int,), (int, float)


def _json_value_ok(key: str, value: Any) -> bool:
    """Whether a decoded config value has its field's JSON type; null only
    where the field defaults to None. Types are compared exactly, so JSON
    true/false never pass as numbers."""
    if value is None:
        return ExperimentConfig.__dataclass_fields__[key].default is None
    if key in ("family", "variant", "bound_model"):
        return type(value) is str
    if key == "informed":
        return type(value) is str or _list_of(value, _INT)
    if key in ("quantiles", "predictor_values"):
        return _list_of(value, _NUMBER)
    if key == "sweep":
        return type(value) is list and all(
            type(point) is dict
            and all(
                type(v) in (_NUMBER if _PARAM_TYPES.get(k) is float else _INT)
                for k, v in point.items()
            )
            for point in value
        )
    # trials, rng_seed, max_rounds, enumeration_limit, max_rounds_factor
    return type(value) in (_NUMBER if key == "max_rounds_factor" else _INT)


def _list_of(value: Any, types: tuple) -> bool:
    return type(value) is list and all(type(x) in types for x in value)


@dataclass
class SweepPointResult:
    index: int
    params: dict
    n: int
    max_degree: int
    predictor: float
    quantile_values: dict[float, float]
    mean_t_all: float
    completed: int
    trials: int
    ratio: float


@dataclass
class BoundFitReport:
    """Fit of measured times against the predictor across a sweep."""

    bound_model: str
    primary_quantile: float
    convention: str
    points: list[SweepPointResult] = field(default_factory=list)

    @property
    def ratios(self) -> list[float]:
        return [p.ratio for p in self.points]

    @property
    def c_hat(self) -> float:
        return max(self.ratios)

    @property
    def drift(self) -> float:
        rs = self.ratios
        return max(rs) / min(rs)

    def passes(self) -> bool:
        return all(math.isfinite(r) for r in self.ratios) and self.drift <= _MAX_DRIFT

    def to_json_dict(self) -> dict:
        return {
            "bound_model": self.bound_model,
            "primary_quantile": self.primary_quantile,
            "convention": self.convention,
            "c_hat": self.c_hat,
            "drift": self.drift,
            "points": [
                {
                    "index": p.index,
                    "params": p.params,
                    "n": p.n,
                    "max_degree": p.max_degree,
                    "predictor": p.predictor,
                    "quantiles": {str(q): v for q, v in p.quantile_values.items()},
                    "mean_t_all": p.mean_t_all,
                    "completed": p.completed,
                    "trials": p.trials,
                    "ratio": p.ratio,
                }
                for p in self.points
            ],
        }


def _predictor(cfg: ExperimentConfig, index: int, g: Graph) -> float:
    if cfg.predictor_values is not None:
        return float(cfg.predictor_values[index])
    return _PREDICTORS[cfg.bound_model](g, cfg.enumeration_limit)


def run_experiment(cfg: ExperimentConfig) -> tuple[BoundFitReport, list[MonteCarloSummary]]:
    """Execute every sweep point; returns the fit report and each point's
    Monte-Carlo summary, in sweep order.

    Deterministic given the config: each point derives its own generation and
    simulation seeds from (rng_seed, index).
    """
    report = BoundFitReport(
        bound_model=cfg.bound_model,
        primary_quantile=cfg.quantiles[0],
        convention=DRIFT_CONVENTION,
    )
    summaries: list[MonteCarloSummary] = []
    for index, point in enumerate(cfg.sweep):
        params = dict(point)
        if "rng_seed" in _family_types(cfg.family) and "rng_seed" not in params:
            params["rng_seed"] = derive_seed(cfg.rng_seed, index, 1)
        g = FamilySpec(cfg.family, params).build()

        if cfg.informed == "random":
            initial = None
        elif cfg.informed == "dominating":
            initial = greedy_dominating_set(g)
        else:
            initial = g.check_set(cfg.informed)

        if cfg.max_rounds_factor is not None:
            scaled = cfg.max_rounds_factor * g.n
            if math.isinf(scaled):
                raise InputError(f"max_rounds_factor {cfg.max_rounds_factor} overflows at n={g.n}")
            max_rounds = max(1, math.ceil(scaled))
        else:
            max_rounds = cfg.max_rounds  # None -> engine default

        pcfg = ProtocolConfig(
            variant=cfg.variant,
            initial_informed=initial,
            max_rounds=max_rounds,
            rng_seed=derive_seed(cfg.rng_seed, index, 0),
        )
        # the predictor draws nothing, and a point it refuses runs no trials
        predictor = _predictor(cfg, index, g)
        summary, _ = monte_carlo(g, pcfg, cfg.trials)
        summaries.append(summary)

        quantile_values = {q: summary.quantile_t_all(q) for q in cfg.quantiles}
        primary = quantile_values[cfg.quantiles[0]]
        # an incomplete quantile is infinite and so is its ratio; a finite
        # quantile over a zero or subnormal predictor is an input error
        ratio = primary / predictor if predictor else math.inf
        if math.isfinite(primary) and not math.isfinite(ratio):
            raise InputError(
                f"sweep point {index}: predictor {predictor!r} gives the "
                f"non-finite ratio {primary!r} / {predictor!r}"
            )
        report.points.append(
            SweepPointResult(
                index=index,
                params=params,
                n=g.n,
                max_degree=g.max_degree,
                predictor=predictor,
                quantile_values=quantile_values,
                mean_t_all=summary.mean_t_all,
                completed=summary.completed_count,
                trials=summary.trials,
                ratio=ratio,
            )
        )
    return report, summaries


# -- tabular output and aggregation ----------------------------------------


def _params_field(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def write_points_csv(report: BoundFitReport, path: str) -> None:
    """One row per sweep point, with a convention comment line up front."""
    qs = [f"t_all_q{q}" for q in report.points[0].quantile_values]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {report.convention}\n")
        fh.write(f"# bound_model={report.bound_model}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["index", "params", "n", "max_degree", "predictor"]
            + qs
            + ["mean_t_all", "completed", "trials", "ratio"]
        )
        for p in report.points:
            writer.writerow(
                [
                    p.index,
                    _params_field(p.params),
                    p.n,
                    p.max_degree,
                    f"{p.predictor:.15g}",
                ]
                + [f"{v:.15g}" for v in p.quantile_values.values()]
                + [f"{p.mean_t_all:.15g}", p.completed, p.trials, f"{p.ratio:.15g}"]
            )


def write_report_json(report: BoundFitReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def read_points_csv(path: str) -> list[dict]:
    """Parse a points table back into row dicts (floats where sensible)."""
    rows: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        header: list[str] | None = None
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
                if "ratio" not in header:
                    raise InputError(f"{path}:{lineno}: missing 'ratio' column")
                continue
            if len(cells) != len(header):
                raise InputError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
                )
            row: dict = dict(zip(header, cells))
            for key, raw in row.items():
                if key in ("params",):
                    continue
                try:
                    row[key] = float(raw)
                except ValueError as exc:
                    raise InputError(
                        f"{path}:{lineno}: column {key!r} is not numeric: {raw!r}"
                    ) from exc
            if not (math.isfinite(row["ratio"]) and row["ratio"] > 0):
                # the drift digest divides by the smallest ratio
                raise InputError(
                    f"{path}:{lineno}: ratio must be a positive finite number, got {row['ratio']!r}"
                )
            row["source"] = path
            rows.append(row)
    if header is None:
        raise InputError(f"{path}: no table found")
    return rows


def combine_point_rows(rows: Sequence[dict]) -> dict:
    """Drift digest over point rows, possibly merged from several sweeps."""
    if not rows:
        raise InputError("no sweep points to report on")
    ratios = [row["ratio"] for row in rows]
    return {
        "convention": DRIFT_CONVENTION,
        "points": len(rows),
        "sources": sorted({row.get("source", "?") for row in rows}),
        "c_hat": max(ratios),
        "drift": max(ratios) / min(ratios),
        "within_factor_2": max(ratios) / min(ratios) <= _MAX_DRIFT,
    }


# -- measure separation on small instances ---------------------------------


def combined_vs_conductance_table(
    degrees: Sequence[int],
    *,
    c: int = 2,
    num_components: int = 2,
    instances: int = 3,
    rng_seed: int = 0,
    enumeration_limit: int | None = None,
) -> list[dict]:
    """Mean combined-expansion to conductance ratio on clustered graphs.

    Builds small clustered-regular instances for each degree and enumerates
    both graph-level measures exactly. The interesting trend: the ratio grows
    with the degree while conductance shrinks.
    """
    if instances < 1:
        raise InputError(f"instances must be >= 1, got {instances}")
    rows: list[dict] = []
    for di, degree in enumerate(degrees):
        phis: list[float] = []
        xis: list[float] = []
        # an instance too large to enumerate is refused before it is drawn
        n = _clustered_order(num_components, degree, c)
        expansion._check_enumerable(n, enumeration_limit, "conductance")
        for k in range(instances):
            spec = FamilySpec(
                "clustered_regular",
                {
                    "num_components": num_components,
                    "degree": degree,
                    "c": c,
                    "rng_seed": derive_seed(rng_seed, di, k),
                },
            )
            g = spec.build()
            reports = expansion._enumerated(
                g, ["conductance", "combined-expansion"], enumeration_limit
            )
            phis.append(reports["conductance"].value)
            xis.append(reports["combined-expansion"].value)
        mean_phi = sum(phis) / len(phis)
        mean_xi = sum(xis) / len(xis)
        rows.append(
            {
                "degree": degree,
                "n": n,
                "instances": instances,
                "mean_conductance": mean_phi,
                "mean_combined": mean_xi,
                "mean_ratio": mean_xi / mean_phi,
            }
        )
    return rows
