"""Sweep harness: config parsing, predictor formulas, report assembly, and
the points-table round trip."""

import math
import re

import pytest

import rumorspread.experiment as emod
from rumorspread import (
    BOUND_MODELS,
    DRIFT_CONVENTION,
    ExperimentConfig,
    FamilySpec,
    InputError,
    ProtocolConfig,
    combine_point_rows,
    combined_vs_conductance_table,
    derive_seed,
    monte_carlo,
    read_points_csv,
    run_experiment,
    write_points_csv,
    write_report_json,
)


def tiny_config(**overrides):
    base = dict(
        family="hypercube",
        sweep=({"d": 2}, {"d": 3}),
        trials=40,
        rng_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_known_models(self):
        assert "logn" in BOUND_MODELS and "linear_n" in BOUND_MODELS

    def test_validation(self):
        with pytest.raises(InputError):
            tiny_config(bound_model="nope")
        with pytest.raises(InputError):
            tiny_config(sweep=())
        with pytest.raises(InputError):
            tiny_config(trials=0)
        with pytest.raises(InputError):
            tiny_config(predictor_values=(1.0,))
        with pytest.raises(InputError):
            tiny_config(quantiles=(0.5, 1.5))
        with pytest.raises(InputError):
            tiny_config(max_rounds=10, max_rounds_factor=2.0)
        for factor in (0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="max_rounds_factor"):
                tiny_config(max_rounds_factor=factor)
        for bad in (0, -2.0, math.nan, math.inf):
            with pytest.raises(InputError, match="predictor_values"):
                tiny_config(predictor_values=(4.0, bad))
        for limit in (0, -1):
            with pytest.raises(InputError, match="enumeration_limit"):
                tiny_config(enumeration_limit=limit)
        assert tiny_config(enumeration_limit=1).enumeration_limit == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"family": "bogus"}, "unknown family 'bogus'; known: "),
            ({"variant": "shout"}, "unknown variant 'shout'; known: "),
            ({"informed": "everyone"}, "bad informed value 'everyone'"),
            ({"informed": 3}, "bad informed value 3"),
        ],
        ids=["family", "variant", "informed-word", "informed-int"],
    )
    def test_names_checked_at_construction(self, overrides, message):
        # refused by the config itself, not by the first sweep point's run
        with pytest.raises(InputError, match=re.escape(message)):
            tiny_config(**overrides)

    @pytest.mark.parametrize(
        "family, sweep, message",
        [
            ("hypercube", ({"d": 2}, {"n": 5}), "family 'hypercube' needs params ['d'], got ['n']"),
            (
                "random_regular",
                ({"n": 8, "degree": 3}, {"n": 8}),
                "family 'random_regular' needs params ['degree', 'n', 'rng_seed'], "
                "got ['n', 'rng_seed']",
            ),
        ],
        ids=["plain", "seeded"],
    )
    def test_sweep_params_checked_at_construction(self, monkeypatch, family, sweep, message):
        # every point is checked before the first one is simulated
        calls = []
        monkeypatch.setattr(emod, "monte_carlo", lambda *args: calls.append(args))
        with pytest.raises(InputError, match=re.escape(message)):
            run_experiment(ExperimentConfig(family=family, sweep=sweep, trials=2))
        assert calls == []

    def test_sweep_values_checked_by_the_builder(self):
        # the config checks parameter names only; an odd n*degree is the
        # builder's to refuse
        cfg = ExperimentConfig(family="random_regular", sweep=({"n": 5, "degree": 3},))
        with pytest.raises(InputError, match="n\\*degree must be even"):
            run_experiment(cfg)

    def test_from_json_dict(self):
        cfg = ExperimentConfig.from_json_dict(
            {
                "family": "cycle",
                "sweep": [{"n": 8}, {"n": 16}],
                "quantiles": [0.5],
                "informed": [0],
                "trials": 5,
            }
        )
        assert cfg.sweep == ({"n": 8}, {"n": 16})
        assert cfg.quantiles == (0.5,)
        assert cfg.informed == (0,)

    def test_from_json_dict_rejects_unknown_keys(self):
        with pytest.raises(InputError, match="unknown experiment config keys"):
            ExperimentConfig.from_json_dict(
                {"family": "cycle", "sweep": [{"n": 8}], "bogus": 1}
            )


class TestRunExperiment:
    def test_hypercube_sweep_shape(self):
        report, _ = run_experiment(tiny_config())
        assert [p.n for p in report.points] == [4, 8]
        assert [p.max_degree for p in report.points] == [2, 3]
        assert [p.predictor for p in report.points] == [2.0, 3.0]
        for p in report.points:
            assert p.completed == p.trials == 40
            assert p.ratio == pytest.approx(p.quantile_values[0.5] / p.predictor)
        assert report.primary_quantile == 0.5
        assert report.convention == DRIFT_CONVENTION
        assert report.c_hat == max(report.ratios)
        assert report.drift == max(report.ratios) / min(report.ratios)

    def test_deterministic_rerun(self):
        a, _ = run_experiment(tiny_config())
        b, _ = run_experiment(tiny_config())
        assert a.to_json_dict() == b.to_json_dict()

    def test_dominating_start_on_stars(self):
        cfg = ExperimentConfig(
            family="star",
            sweep=({"leaves": 5}, {"leaves": 9}),
            variant="pull",
            informed="dominating",
            trials=10,
        )
        report, _ = run_experiment(cfg)
        # the center dominates, so pull finishes in exactly one round
        for p in report.points:
            assert p.quantile_values[0.5] == 1.0
            assert p.mean_t_all == 1.0

    def test_explicit_informed_tuple(self):
        cfg = ExperimentConfig(
            family="path",
            sweep=({"n": 4},),
            informed=(0,),
            trials=8,
            rng_seed=2,
        )
        report, _ = run_experiment(cfg)
        assert report.points[0].completed == 8

    def test_predictor_values_override(self):
        cfg = tiny_config(predictor_values=(4.0, 8.0))
        report, _ = run_experiment(cfg)
        assert [p.predictor for p in report.points] == [4.0, 8.0]

    def test_round_cap_factor_can_cut_runs_short(self):
        cfg = ExperimentConfig(
            family="path",
            sweep=({"n": 24},),
            variant="push",
            informed=(0,),
            trials=6,
            max_rounds_factor=0.25,
        )
        report, _ = run_experiment(cfg)
        p = report.points[0]
        assert p.completed < p.trials
        assert not report.passes()

    def test_summaries_match_direct_monte_carlo(self):
        cfg = tiny_config(variant="push")
        report, summaries = run_experiment(cfg)
        assert len(summaries) == len(cfg.sweep)
        for index, (point, summary) in enumerate(zip(report.points, summaries)):
            g = FamilySpec(cfg.family, point.params).build()
            pcfg = ProtocolConfig(variant="push", rng_seed=derive_seed(cfg.rng_seed, index, 0))
            assert summary == monte_carlo(g, pcfg, cfg.trials)[0]

    def test_random_family_points_get_derived_seeds(self):
        cfg = ExperimentConfig(
            family="random_regular",
            sweep=({"n": 8, "degree": 3}, {"n": 8, "degree": 3}),
            trials=5,
            rng_seed=1,
        )
        report, _ = run_experiment(cfg)
        seeds = [p.params["rng_seed"] for p in report.points]
        assert seeds[0] != seeds[1]


class TestMeasurePredictors:
    def test_formulas_on_a_cycle(self):
        logn = math.log2(6)
        expected = {
            "logn_over_phi": logn / (1 / 3),
            "logn_over_xi": logn / (2 / 3),
            "logn_logdelta_over_alpha": logn * 1.0 / (2 / 3),
        }
        for model, value in expected.items():
            cfg = ExperimentConfig(
                family="cycle",
                sweep=({"n": 6},),
                trials=5,
                bound_model=model,
            )
            report, _ = run_experiment(cfg)
            assert report.points[0].predictor == pytest.approx(value)


class TestPointsTable:
    def test_write_read_roundtrip(self, tmp_path):
        report, _ = run_experiment(tiny_config())
        out = tmp_path / "points.csv"
        write_points_csv(report, str(out))
        text = out.read_text()
        assert text.startswith(f"# {DRIFT_CONVENTION}\n# bound_model=logn\n")
        assert "index,params,n,max_degree,predictor,t_all_q0.5,t_all_q0.9" in text

        rows = read_points_csv(str(out))
        assert len(rows) == 2
        assert rows[0]["params"] == "d=2"
        assert rows[0]["n"] == 4.0
        assert rows[1]["ratio"] == pytest.approx(report.points[1].ratio)
        assert rows[0]["source"] == str(out)

    def test_points_csv_bytes_reproducible(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            report, _ = run_experiment(tiny_config())
            out = tmp_path / name
            write_points_csv(report, str(out))
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_report_json(self, tmp_path):
        import json

        report, _ = run_experiment(tiny_config())
        out = tmp_path / "report.json"
        write_report_json(report, str(out))
        data = json.loads(out.read_text())
        assert data["convention"] == DRIFT_CONVENTION
        assert data["bound_model"] == "logn"
        assert len(data["points"]) == 2
        assert data["points"][0]["quantiles"]["0.5"] == report.points[0].quantile_values[0.5]

    def test_read_rejects_cell_count_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,n,ratio\n0,4\n")
        with pytest.raises(InputError, match=r"bad\.csv:2"):
            read_points_csv(str(bad))

    def test_read_rejects_non_numeric(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,n,ratio\n0,4,huh\n")
        with pytest.raises(InputError, match="'ratio' is not numeric"):
            read_points_csv(str(bad))

    def test_read_requires_ratio_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,n\n0,4\n")
        with pytest.raises(InputError, match="missing 'ratio' column"):
            read_points_csv(str(bad))

    def test_read_empty_file(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("# only a comment\n")
        with pytest.raises(InputError, match="no table"):
            read_points_csv(str(bad))


class TestCombine:
    def test_digest(self):
        rows = [
            {"ratio": 1.0, "source": "a.csv"},
            {"ratio": 1.5, "source": "b.csv"},
        ]
        digest = combine_point_rows(rows)
        assert digest["points"] == 2
        assert digest["sources"] == ["a.csv", "b.csv"]
        assert digest["c_hat"] == 1.5
        assert digest["drift"] == 1.5
        assert digest["within_factor_2"]
        assert digest["convention"] == DRIFT_CONVENTION

    def test_empty_raises(self):
        with pytest.raises(InputError, match="no sweep points"):
            combine_point_rows([])


class TestSeparationTable:
    def test_small_instance(self):
        rows = combined_vs_conductance_table((3,), instances=2, rng_seed=4)
        (row,) = rows
        assert row["degree"] == 3
        assert row["n"] == 12
        assert row["instances"] == 2
        assert row["mean_conductance"] > 0
        # combined expansion dominates conductance on regular graphs
        assert row["mean_ratio"] >= 1.0

    @pytest.mark.parametrize("instances", [0, -1])
    def test_instances_below_one(self, instances):
        with pytest.raises(InputError, match=f"instances must be >= 1, got {instances}"):
            combined_vs_conductance_table((3,), instances=instances)
