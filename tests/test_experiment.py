import dataclasses
import json
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineids import cli, experiment, logistic, simulate
from splineids.errors import (
    ConfigError,
    DegenerateKnotsError,
    EmptySampleError,
    InsufficientDataError,
    ModelLoadError,
    NumericalError,
    SplitError,
)
from splineids.experiment import (
    ALL_MODELS,
    CurveBundle,
    ExperimentConfig,
    ModelKind,
    basis_spec_for,
    config_digest,
    emit_curves,
    fit_sample,
    emit_report,
    group_sample,
    load_model,
    render_report,
    run_experiment,
    save_model,
    score_model,
    split_train_test,
)
from splineids.logistic import (
    LogisticModel,
    build_design_matrix,
    classify,
    confusion_matrix,
    fit_logistic,
    irls,
    predict_prob,
)
from splineids.simulate import MAX_COUNT, CellParams, ScenarioConfig, generate_dataset, scenario_from_dict, write_csv
from splineids.splines import BasisKind, KnotVector, SplineBasisSpec, quantile_knots


@pytest.fixture(scope="module")
def default_report():
    return run_experiment(ExperimentConfig())


class TestSplit:
    records = generate_dataset(ScenarioConfig(n_records=600, seed=42))

    def test_80_20_sizes(self):
        train, test = split_train_test(self.records, 0.8, 7)
        assert (len(train), len(test)) == (480, 120)

    def test_same_seed_same_partition(self):
        a = split_train_test(self.records, 0.8, 7)
        b = split_train_test(self.records, 0.8, 7)
        assert a == b

    def test_partition_preserves_records(self):
        train, test = split_train_test(self.records, 0.8, 7)
        assert sorted(map(repr, [*train, *test])) == sorted(map(repr, self.records))

    def test_empty_test_side(self):
        with pytest.raises(SplitError):
            split_train_test(self.records[:2], 0.99, 7)

    def test_too_few_records(self):
        with pytest.raises(SplitError):
            split_train_test(self.records[:1], 0.5, 7)


class TestRunExperiment:
    def test_five_rows_in_canonical_order(self, default_report):
        assert tuple(r.model for r in default_report.rows) == ALL_MODELS

    def test_default_regime_hits_95_percent(self, default_report):
        for row in default_report.rows:
            assert row.accuracy >= 0.95

    def test_every_model_hits_95_percent_on_scenario_seeds_1_to_50(self):
        # counted in integers, 100 * correct >= 95 * n, so float rounding cannot flip a run at the bound
        below = []
        for seed in range(1, 51):
            report = run_experiment(ExperimentConfig(scenario=ScenarioConfig(n_records=600, seed=seed), split_seed=42))
            for row in report.rows:
                if 100 * (row.cm.tp + row.cm.tn) < 95 * row.cm.total:
                    below.append((seed, row.model.value, row.cm))
        assert below == []

    def test_counts_sum_to_n_test(self, default_report):
        for row in default_report.rows:
            assert row.cm.total == default_report.n_test

    def test_deterministic(self, default_report):
        again = run_experiment(ExperimentConfig())
        assert again == default_report

    def test_single_model_report(self):
        report = run_experiment(ExperimentConfig(models=(ModelKind.LOGISTIC,)))
        assert len(report.rows) == 1
        assert report.rows[0].model is ModelKind.LOGISTIC

    def test_knots_come_from_training_data_only(self, default_report):
        records = generate_dataset(ScenarioConfig())
        train, _ = split_train_test(records, 0.8, 42)
        knots = quantile_knots([r.packet_delay_ms for r in train], (0.25, 0.5, 0.75))
        assert default_report.knots_ms == knots.values

    def test_split_seed_changes_partition_not_knot_rule(self):
        rep = run_experiment(ExperimentConfig(split_seed=99))
        records = generate_dataset(ScenarioConfig())
        train, _ = split_train_test(records, 0.8, 99)
        knots = quantile_knots([r.packet_delay_ms for r in train], (0.25, 0.5, 0.75))
        assert rep.knots_ms == knots.values

    def test_congestion_filter(self):
        rep = run_experiment(
            ExperimentConfig(congestion_filter="congested", models=(ModelKind.LOGISTIC,))
        )
        records = [r for r in generate_dataset(ScenarioConfig()) if r.congested]
        assert rep.n_train + rep.n_test == len(records)

    def test_csv_source(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(generate_dataset(ScenarioConfig()), path)
        rep = run_experiment(ExperimentConfig(data_csv=str(path)))
        assert rep.scenario_seed is None
        assert [r.cm for r in rep.rows] == [r.cm for r in run_experiment(ExperimentConfig()).rows]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(split_ratio=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(knot_probs=(0.5, 0.25))
        with pytest.raises(ConfigError):
            ExperimentConfig(models=())
        with pytest.raises(ConfigError):
            ExperimentConfig(threshold=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(bspline_degree=4)
        with pytest.raises(ConfigError, match="congestion_filter"):
            ExperimentConfig(congestion_filter="busy")

    def test_data_csv_and_scenario_together_are_rejected(self):
        with pytest.raises(ConfigError, match="^give either data_csv or scenario, not both$"):
            ExperimentConfig(data_csv="traffic.csv", scenario=ScenarioConfig())



class TestConfigDigest:
    @pytest.mark.parametrize(
        "config,digest",
        [
            (ExperimentConfig(), "27535238e8dea9fe"),
            (ExperimentConfig(scenario=ScenarioConfig(n_records=600, seed=5)), "ba4b0698c52a808c"),
            (
                ExperimentConfig(data_csv="data/traffic.csv", models=(ModelKind.BSPLINE,), knot_probs=(0.3, 0.6)),
                "3b9ebe842cea6047",
            ),
            (
                ExperimentConfig(
                    scenario=scenario_from_dict(
                        {"attack_mix": [1, 2, 3, 4], "attack_congested": {"drop_rate": 3.5}}
                    )
                ),
                "8402c9793ff48495",
            ),
            (ExperimentConfig(congestion_filter="congested"), "b91588823c0d05c5"),
        ],
        ids=["default", "scenario", "csv", "partial_scenario", "congested"],
    )
    def test_digest_is_pinned(self, config, digest):
        assert config_digest(config) == digest

    def test_every_field_changes_the_digest(self):
        base = ExperimentConfig()
        changed = {
            "data_csv": "data.csv",
            "scenario": ScenarioConfig(seed=1),
            "split_ratio": 0.7,
            "split_seed": 1,
            "knot_probs": (0.5,),
            "models": (ModelKind.LOGISTIC,),
            "threshold": 0.4,
            "bspline_degree": 2,
            "congestion_filter": "uncongested",
        }
        assert set(changed) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        digests = {config_digest(dataclasses.replace(base, **{name: value})) for name, value in changed.items()}
        assert len(digests | {config_digest(base)}) == len(changed) + 1

    def test_numpy_integer_counts_and_seed_give_the_python_int_digest(self):
        counts = {"n_records": 300, "n_vehicles": 7, "seed": 3}
        numpy_config = ExperimentConfig(scenario=ScenarioConfig(**{k: np.int64(v) for k, v in counts.items()}))
        assert config_digest(numpy_config) == config_digest(ExperimentConfig(scenario=ScenarioConfig(**counts)))
        assert all(type(getattr(numpy_config.scenario, name)) is int for name in counts)

    def test_numpy_integer_split_seed_and_degree_give_the_python_int_digest(self):
        numpy_config = ExperimentConfig(split_seed=np.int64(3), bspline_degree=np.int64(3))
        assert config_digest(numpy_config) == config_digest(ExperimentConfig(split_seed=3, bspline_degree=3))
        assert type(numpy_config.split_seed) is int and type(numpy_config.bspline_degree) is int

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("split_seed", 1.5, "split_seed must be an integer in [0, inf], got 1.5"),
            ("split_seed", 3.0, "split_seed must be an integer in [0, inf], got 3.0"),
            ("split_seed", True, "split_seed must be an integer in [0, inf], got True"),
            ("bspline_degree", 3.0, "bspline_degree must be an integer in [1, 3], got 3.0"),
            ("bspline_degree", True, "bspline_degree must be an integer in [1, 3], got True"),
        ],
        ids=["seed_1.5", "seed_3.0", "seed_True", "degree_3.0", "degree_True"],
    )
    def test_non_integer_split_seed_or_degree_is_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "make, field, value",
        [
            (ExperimentConfig, "threshold", Fraction(1, 10**400)),  # stored as 0.0
            (ExperimentConfig, "threshold", Fraction(10**20 - 1, 10**20)),  # stored as 1.0
            (ExperimentConfig, "split_ratio", Fraction(10**20 - 1, 10**20)),  # stored as 1.0
            (ExperimentConfig, "knot_probs", (0.5, Fraction(1, 2) + Fraction(1, 10**30))),  # stored as (0.5, 0.5)
            (ScenarioConfig, "attack_mix", (Fraction(1, 10**400), 0, 0, 0)),  # stored as four zeros
        ],
        ids=["threshold_0", "threshold_1", "split_ratio_1", "knot_probs_tied", "attack_mix_zero"],
    )
    def test_value_whose_stored_float_breaks_its_rule_is_rejected(self, make, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must|^{field} needs"):
            make(**{field: value})

    def test_unset_scenario_and_default_scenario_differ(self):
        assert config_digest(ExperimentConfig()) != config_digest(ExperimentConfig(scenario=ScenarioConfig()))

    @staticmethod
    def reals_config(real) -> ExperimentConfig:
        """A config whose every real field, its scenario's and its cells' included, is built with ``real``."""
        cell = CellParams(*map(real, (1.0, 0.375, 0.25, 4.5, 0.25)))
        scenario = ScenarioConfig(
            attack_fraction=real(0.5),
            congested_fraction=real(0.25),
            vehicle_jitter_sigma=real(0.0625),
            normal_uncongested=cell,
            normal_congested=cell,
            attack_uncongested=cell,
            attack_congested=cell,
        )
        return ExperimentConfig(
            scenario=scenario, split_ratio=real(0.75), threshold=real(0.5), knot_probs=(real(0.25), real(0.5))
        )

    @pytest.mark.parametrize("real", [np.float32, np.float64, Fraction], ids=["float32", "float64", "Fraction"])
    def test_foreign_reals_are_stored_as_floats_and_give_the_float_digest(self, real):
        config = self.reals_config(real)
        assert config_digest(config) == config_digest(self.reals_config(float))
        scenario = config.scenario
        reals = [config.split_ratio, config.threshold, *config.knot_probs]
        reals += [scenario.attack_fraction, scenario.congested_fraction, scenario.vehicle_jitter_sigma]
        cells = [cell for cell in vars(scenario).values() if isinstance(cell, CellParams)]
        reals += [value for cell in cells for value in vars(cell).values()]
        assert {type(value) for value in reals} == {float}

    def test_integer_cell_parameters_are_stored_as_floats(self):
        cell = CellParams(1, 1, 0, 4, 1)
        assert all(type(value) is float for value in vars(cell).values())
        assert type(ScenarioConfig(attack_fraction=1).attack_fraction) is float

    def test_path_data_csv_is_stored_as_its_string(self):
        config = ExperimentConfig(data_csv=Path("data") / "traffic.csv")
        assert type(config.data_csv) is str
        assert config_digest(config) == config_digest(ExperimentConfig(data_csv="data/traffic.csv"))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("models", ("logistic", "bspline")),
            ("models", (ModelKind.LOGISTIC, "bspline")),
            ("models", ModelKind.LOGISTIC),
            ("threshold", "0.5"),
            ("threshold", True),
            ("split_ratio", None),
            ("split_ratio", 1j),
            ("knot_probs", ("a",)),
            ("knot_probs", 0.5),
            ("knot_probs", "0.5"),
            ("data_csv", 3),
            ("data_csv", b"traffic.csv"),
            ("scenario", "x"),
            ("scenario", {"seed": 1}),
        ],
        ids=[
            "models_str", "models_one_str", "models_not_a_sequence", "threshold_str", "threshold_bool",
            "split_ratio_None", "split_ratio_complex", "knot_probs_str_entry", "knot_probs_not_a_sequence",
            "knot_probs_str", "data_csv_int", "data_csv_bytes", "scenario_str", "scenario_dict",
        ],
    )
    def test_value_of_a_foreign_type_is_a_config_error_naming_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must "):
            ExperimentConfig(**{field: value})



class TestReportRendering:
    def test_text_mirrors_table_columns(self, default_report):
        text = render_report(default_report, "text")
        assert f"N = {default_report.n_test}" in text
        header = [l for l in text.splitlines() if l.startswith("Model")][0]
        for col in ("TP", "FP", "TN", "FN", "Prediction Accuracy"):
            assert col in header
        for row in default_report.rows:
            assert row.model.display_name in text

    def test_rendered_accuracy_matches_counts(self, default_report):
        text = render_report(default_report, "text")
        for row in default_report.rows:
            cm = row.cm
            want = f"{100.0 * (cm.tp + cm.tn) / cm.total:.2f}%"
            line = [l for l in text.splitlines() if l.startswith(row.model.display_name)][0]
            assert line.endswith(want)

    def test_discrepancy_footnote_emitted(self, default_report):
        for fmt in ("text", "csv"):
            out = render_report(default_report, fmt)
            assert "98.33" in out and "98.30" in out

    def test_csv_rows_parse_and_check_out(self, default_report):
        out = render_report(default_report, "csv")
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[:6] == ["model", "tp", "fp", "tn", "fn", "accuracy_percent"]
        assert len(lines[1:]) == len(default_report.rows)
        for line, row in zip(lines[1:], default_report.rows):
            fields = line.split(",")
            assert fields[0] == row.model.value
            tp, fp, tn, fn = map(int, fields[1:5])
            assert (tp, fp, tn, fn) == (row.cm.tp, row.cm.fp, row.cm.tn, row.cm.fn)
            assert float(fields[5]) == pytest.approx(100.0 * (tp + tn) / (tp + fp + tn + fn), abs=0.005)

    def test_reference_accuracy_rendering(self):
        # 119/120 and 115/120 must render as the canonical strings
        assert f"{100.0 * 119 / 120:.2f}%" == "99.17%"
        assert f"{100.0 * 115 / 120:.2f}%" == "95.83%"

    def test_emit_report_writes_file(self, default_report, tmp_path):
        path = tmp_path / "report.txt"
        text = emit_report(default_report, "text", path)
        assert path.read_text(encoding="utf-8") == text

    def test_unknown_format(self, default_report):
        with pytest.raises(ConfigError):
            render_report(default_report, "yaml")


class TestCurves:
    def test_grid_and_probability_range(self, default_report):
        bundle = emit_curves(ExperimentConfig(), grid_points=200)
        assert len(bundle.delays) == 200
        assert set(bundle.probabilities) == set(ALL_MODELS)
        for probs in bundle.probabilities.values():
            assert probs.shape == (200,)
            assert np.all((probs > 0.0) & (probs < 1.0))

        lines = bundle.to_csv().splitlines()
        assert lines[0].startswith("# config_digest=")
        assert lines[1] == "delay_ms," + ",".join(m.value for m in ALL_MODELS)
        assert len(lines) == 2 + 200

    @pytest.mark.parametrize(
        "grid_points", [200.0, "200", None, np.float64(200)], ids=["float", "str", "None", "float64"]
    )
    def test_grid_of_a_foreign_type_is_a_config_error(self, grid_points):
        message = f"grid_points must be an integer in [2, {MAX_COUNT}], got {grid_points!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            emit_curves(ExperimentConfig(), grid_points)

    def test_digest_matches_experiment_run(self, default_report):
        bundle = emit_curves(ExperimentConfig(), grid_points=50)
        assert bundle.config_digest == default_report.config_digest
        assert bundle.config_digest == config_digest(ExperimentConfig())

    def test_logistic_curve_monotone_when_slope_positive(self):
        bundle = emit_curves(ExperimentConfig(models=(ModelKind.LOGISTIC,)), grid_points=100)
        probs = bundle.probabilities[ModelKind.LOGISTIC]
        # delay separates attacks upward in the default scenario, so the
        # raw-delay logistic slope is positive and its curve nondecreasing
        assert np.all(np.diff(probs) >= 0.0)

    def test_grid_spans_bspline_domain(self, default_report):
        bundle = emit_curves(ExperimentConfig(), grid_points=10)
        lo, hi = default_report.bspline_domain
        assert bundle.delays[0] == pytest.approx(lo)
        assert bundle.delays[-1] == pytest.approx(hi)

    def test_grid_starts_at_the_lowest_training_delay(self):
        # the domain is the training range, so no grid point is negative; for seed 1 the lowest
        # training delays are all normal, and every model scores the grid's first point as normal
        config = ExperimentConfig(scenario=ScenarioConfig(seed=1))
        report = run_experiment(config)
        bundle = emit_curves(config, grid_points=200)
        assert bundle.delays[0] == report.bspline_domain[0] > 0.0
        assert bundle.delays[-1] == report.bspline_domain[1]
        for probs in bundle.probabilities.values():
            assert probs[0] < 0.5

    def test_csv_matches_per_element_formatting_byte_for_byte(self):
        special = [5e-324, 1e-15, 1.0 - 1e-15, 1.0 - 2.0**-53, 1e-5, 9.999999999999999e-5, 1e16, 1e17, 0.1]
        delays = np.array([0.0, *special])
        probabilities = {
            ModelKind.LOGISTIC: np.array([*special, 0.5]),
            ModelKind.BSPLINE: np.array([*reversed(special), 1.0]),
        }
        bundle = CurveBundle(delays, probabilities, "0123456789abcdef")

        # the per-element f-string rendering that to_csv replaced, kept as the reference
        want = ["# config_digest=0123456789abcdef", "delay_ms,logistic,bspline"]
        cols = list(probabilities.values())
        for i, delay in enumerate(delays):
            want.append(",".join([f"{delay:.17g}"] + [f"{col[i]:.17g}" for col in cols]))
        got = bundle.to_csv()
        assert got == "\n".join(want) + "\n"
        assert got.splitlines()[2:5] == [
            "0,4.9406564584124654e-324,0.10000000000000001",
            "4.9406564584124654e-324,1.0000000000000001e-15,1e+17",
            "1.0000000000000001e-15,0.999999999999999,10000000000000000",
        ]


SMALL =ExperimentConfig(scenario=ScenarioConfig(n_records=300, seed=7))


@pytest.fixture
def fit_calls(monkeypatch):
    """The calls ``experiment`` makes to ``fit_logistic``, one entry each."""
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(args)
        return fit_logistic(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_logistic", counting_fit)
    return calls


class TestCurvesReuseTheRunFit:
    def test_curves_after_a_run_fit_nothing(self, fit_calls):
        run_experiment(SMALL)
        emit_curves(SMALL, grid_points=20)
        assert len(fit_calls) == 5

    def test_each_run_fits(self, fit_calls):
        run_experiment(SMALL)
        run_experiment(SMALL)
        assert len(fit_calls) == 10

    def test_a_run_fit_feeds_one_curves_call(self, fit_calls):
        run_experiment(SMALL)
        emit_curves(SMALL, grid_points=20)
        emit_curves(SMALL, grid_points=20)
        assert len(fit_calls) == 10

    def test_another_split_seed_refits(self, fit_calls):
        other = ExperimentConfig(scenario=SMALL.scenario, split_seed=7)
        run_experiment(SMALL)
        bundle = emit_curves(other, grid_points=20)
        assert len(fit_calls) == 10
        assert bundle.config_digest == config_digest(other)

    def test_curves_match_a_fresh_fit_byte_for_byte(self):
        run_experiment(SMALL)
        reused = emit_curves(SMALL, grid_points=200).to_csv()
        assert reused == emit_curves(SMALL, grid_points=200).to_csv()

    def test_csv_rewritten_after_the_run_is_refitted(self, tmp_path):
        path = tmp_path / "data.csv"
        config = ExperimentConfig(data_csv=str(path))
        write_csv(generate_dataset(ScenarioConfig(n_records=300, seed=1)), path)
        old = emit_curves(config, grid_points=20).to_csv()
        run_experiment(config)
        write_csv(generate_dataset(ScenarioConfig(n_records=300, seed=2)), path)
        curves = emit_curves(config, grid_points=20).to_csv()
        assert curves == emit_curves(config, grid_points=20).to_csv() != old


class TestReportRowsHoldTheirFits:
    def test_each_row_holds_the_fit_it_was_scored_and_drawn_with(self):
        report = run_experiment(SMALL)
        curves = emit_curves(SMALL, grid_points=20)
        train, test = split_train_test(generate_dataset(SMALL.scenario), SMALL.split_ratio, SMALL.split_seed)
        models = fit_sample(SMALL, group_sample(SMALL, train.packet_delay_ms, train.label))
        assert {row.model: row.fit for row in report.rows} == models
        grid = np.linspace(*report.bspline_domain, 20)
        assert np.array_equal(curves.delays, grid)
        for row in report.rows:
            scores = score_model(row.fit, test.packet_delay_ms, test.label, SMALL.threshold)
            assert (row.cm, row.clamped_test_points) == scores
            assert np.array_equal(curves.probabilities[row.model], logistic.score_probabilities(row.fit, grid)[0])


class TestFitModels:
    def test_models_given_out_of_order_come_out_in_canonical_order(self):
        given = (ModelKind.BSPLINE, ModelKind.LOGISTIC, ModelKind.QUADRATIC_SPLINE)
        canonical = [ModelKind.LOGISTIC, ModelKind.QUADRATIC_SPLINE, ModelKind.BSPLINE]
        config = ExperimentConfig(scenario=ScenarioConfig(n_records=300, seed=3), models=given)
        assert [row.model for row in run_experiment(config).rows] == canonical
        assert emit_curves(config, grid_points=5).to_csv().splitlines()[1] == "delay_ms,logistic,quadratic,bspline"
        train, _ = split_train_test(generate_dataset(config.scenario), config.split_ratio, config.split_seed)
        assert list(fit_sample(config, group_sample(config, train.packet_delay_ms, train.label))) == canonical

    def test_domain_is_the_training_range(self):
        records = generate_dataset(ScenarioConfig(n_records=200, seed=11))
        x, y = records.packet_delay_ms, records.label
        config = ExperimentConfig(models=(ModelKind.BSPLINE,))
        sample = group_sample(config, x, y)
        assert sample.domain == (x.min(), x.max())
        assert fit_sample(config, sample)[ModelKind.BSPLINE].basis_spec.domain == sample.domain

    def test_knot_on_the_lowest_delay_is_rejected(self):
        x = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(DegenerateKnotsError, match="strictly inside"):
            group_sample(ExperimentConfig(knot_probs=(0.25, 0.5)), x, np.array([0, 1] * 4))

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_labels_are_rejected(self, label):
        x = np.arange(1.0, 21.0)
        config = ExperimentConfig()
        with pytest.raises(InsufficientDataError, match=f"^every training label is {label};"):
            fit_sample(config, group_sample(config, x, np.full(20, label)))


    @pytest.mark.parametrize("seed", [1, 2])
    def test_grouped_fits_match_the_fits_on_every_training_row(self, seed):
        config = ExperimentConfig()
        records = generate_dataset(ScenarioConfig(n_records=20_000, seed=seed))
        train, test = split_train_test(records, config.split_ratio, config.split_seed)
        x, y = train.packet_delay_ms, train.label
        for kind, model in fit_sample(config, group_sample(config, x, y)).items():
            trace = irls(build_design_matrix(model.basis_spec, x).matrix, y.astype(float))
            assert (model.iterations, model.converged, model.separation_flag) == (
                trace.iterations,
                trace.converged,
                trace.separated,
            ), kind
            ungrouped = dataclasses.replace(
                model, intercept=float(trace.beta[0]), coefficients=tuple(trace.beta[1:].tolist())
            )
            # no predicted test label flips
            grouped_labels, labels = (
                classify(logistic.score_probabilities(m, test.packet_delay_ms)[0], config.threshold)
                for m in (model, ungrouped)
            )
            assert np.array_equal(grouped_labels, labels), kind

    @pytest.mark.parametrize(
        "x",
        [
            # n = 20: the 0.25, 0.5 and 0.75 quantiles sit between sorted positions 4 and 5, 9 and 10, 14 and 15,
            # and ties straddle the first two
            np.repeat([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 4, 2, 4, 2, 5]),
            # ties that end at a quantile position
            np.repeat([1.0, 2.0, 3.0, 4.0], [5, 5, 5, 5]),
            # simulated delays on a 0.1 ms grid: a few dozen distinct values over 2000 rows
            np.round(generate_dataset(ScenarioConfig(n_records=2000, seed=3)).packet_delay_ms, 1),
        ],
        ids=["straddling", "ending", "coarse_grid"],
    )
    def test_grouped_knots_and_domain_are_those_of_the_training_rows(self, x):
        x = np.random.default_rng(0).permutation(x)
        config = ExperimentConfig()
        sample = group_sample(config, x, np.arange(len(x)) % 2)
        assert sample.knots == quantile_knots(x, config.knot_probs)
        assert sample.domain == (x.min(), x.max()) and {type(end) for end in sample.domain} == {float}
        # each spline model is fitted on the sample's knots and domain
        specs = [model.basis_spec for model in fit_sample(config, sample).values() if model.basis_spec is not None]
        assert [(spec.interior_knots, spec.domain) for spec in specs] == [(sample.knots, sample.domain)] * 4

    @pytest.mark.parametrize(
        "x, error",
        [(np.array([]), EmptySampleError), (np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), DegenerateKnotsError)],
        ids=["empty", "degenerate"],
    )
    def test_grouped_fit_reports_the_sample_before_a_bad_label(self, x, error):
        with pytest.raises(error):
            group_sample(ExperimentConfig(knot_probs=(0.25, 0.5)), x, np.full(len(x), 2))

    def test_labels_other_than_zero_and_one_are_rejected(self):
        x = np.arange(1.0, 21.0)
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            group_sample(ExperimentConfig(), x, np.array([0, 2] * 10))


class TestWorkingSet:
    """Each stage of a run keeps alive only the arrays that the next stage reads."""

    @staticmethod
    def tables_alive_at_each_fit(monkeypatch) -> list[list[str]]:
        """The tables, of those ``load_records`` and ``split_train_test`` return, alive at each ``fit_logistic`` call.

        A table counts as alive while the table, one of its columns or the buffer a column views is; the
        test table's delay column is left out, as the test delays are scored after the fits.
        """
        refs, alive = {}, []

        def watch(name, table, kept=()):
            columns = [getattr(table, column) for column, _ in simulate._COLUMNS if column not in kept]
            refs[name] = [weakref.ref(obj) for obj in (table, *columns, *(column.base for column in columns))]

        load, split, fit = experiment.load_records, experiment.split_train_test, experiment.fit_logistic

        def load_records(config):
            records = load(config)
            watch("loaded", records)
            return records

        def split_train_test(records, ratio, seed):
            train, test = split(records, ratio, seed)
            watch("train", train)
            watch("test", test, kept=("packet_delay_ms",))
            return train, test

        def fit_logistic(*args):
            alive.append([name for name, objects in refs.items() if any(ref() is not None for ref in objects)])
            return fit(*args)

        for name, stand_in in (("load_records", load_records), ("split_train_test", split_train_test),
                               ("fit_logistic", fit_logistic)):
            monkeypatch.setattr(experiment, name, stand_in)
        monkeypatch.setattr(experiment, "_last_fit", None)
        return alive

    @pytest.mark.parametrize("source", ["scenario", "csv"])
    def test_no_table_is_alive_during_the_fits(self, tmp_path, monkeypatch, source):
        config = ExperimentConfig()
        if source == "csv":
            write_csv(generate_dataset(ScenarioConfig()), tmp_path / "traffic.csv")
            config = ExperimentConfig(data_csv=tmp_path / "traffic.csv")
        alive = self.tables_alive_at_each_fit(monkeypatch)
        run_experiment(config)
        assert alive == [[]] * len(ALL_MODELS)

    def test_train_holds_no_table_during_its_fit(self, tmp_path, monkeypatch):
        alive = self.tables_alive_at_each_fit(monkeypatch)
        assert cli.main(["train", "--model", "bspline", "--save", str(tmp_path / "model.json")]) == 0
        assert alive == [[]]

    def test_grouping_counts_every_delay_and_attack(self):
        records = generate_dataset(ScenarioConfig(n_records=2000, seed=5))
        x, y = records.packet_delay_ms, records.label
        sample = group_sample(ExperimentConfig(), x, y)
        assert np.array_equal(sample.delays, np.unique(x)) and sample.trials.sum() == len(x)
        assert sample.successes.sum() == y.sum()

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def csv_100k(self, tmp_path_factory):
        """A 100 000-record CSV and the bytes of the table written to it."""
        path = tmp_path_factory.mktemp("working_set") / "traffic.csv"
        table = generate_dataset(ScenarioConfig(n_records=100_000, seed=3))
        write_csv(table, path)
        return path, table.nbytes

    # with the loaded and both split tables alive through the fits, the peak was 5.4 times the table
    def test_run_experiment_peak_allocation_stays_near_the_table(self, csv_100k):
        path, nbytes = csv_100k
        assert self.traced_peak(lambda: run_experiment(ExperimentConfig(data_csv=path))) <= 3 * nbytes

    # with the loaded table alive through the fit, the peak was 4.8 times the table
    def test_train_peak_allocation_stays_near_the_table(self, tmp_path, csv_100k):
        path, nbytes = csv_100k
        argv = ["train", "--data", str(path), "--model", "bspline", "--save", str(tmp_path / "model.json")]
        assert self.traced_peak(lambda: cli.main(argv)) <= 4.2 * nbytes


class TestScoreModel:
    def test_bspline_inputs_outside_domain_score_as_its_edges(self):
        records = generate_dataset(ScenarioConfig(n_records=200, seed=11))
        x, y = records.packet_delay_ms, records.label
        config = ExperimentConfig(models=(ModelKind.LINEAR_SPLINE, ModelKind.BSPLINE))
        models = fit_sample(config, group_sample(config, x, y))
        lo, hi = models[ModelKind.BSPLINE].basis_spec.domain
        labels = np.concatenate([y, [0, 1]])
        outside = score_model(models[ModelKind.BSPLINE], np.concatenate([x, [lo - 5.0, hi + 5.0]]), labels, 0.5)
        edges = score_model(models[ModelKind.BSPLINE], np.concatenate([x, [lo, hi]]), labels, 0.5)
        assert outside[1] == 2 and edges[1] == 0
        assert outside[0] == edges[0]
        # truncated-power bases extrapolate, so nothing is clamped
        assert score_model(models[ModelKind.LINEAR_SPLINE], np.array([lo - 5.0, hi + 5.0]), [0, 1], 0.5)[1] == 0


def _design(model, x):
    """The design of ``x``, clamped to the domain for a B-spline model."""
    spec = model.basis_spec
    if spec is not None and spec.kind is BasisKind.BSPLINE:
        x = np.clip(x, *spec.domain)
    return build_design_matrix(spec, x)


def _design_probabilities(model, x):
    return predict_prob(model, _design(model, x))


@st.composite
def spline_models(draw):
    """A model of either basis kind and any degree over 1-6 random knots, with coefficients up to 1e6."""
    kind = draw(st.sampled_from(BasisKind))
    degree = draw(st.integers(1, 3))
    lo = draw(st.floats(-50.0, 100.0))
    width = draw(st.floats(0.5, 100.0))
    fractions = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True))
    knots = sorted({lo + f * width for f in fractions})
    spec = SplineBasisSpec(kind, degree, KnotVector(tuple(knots)), (lo, lo + width))
    scale = 10.0 ** draw(st.integers(-2, 6))
    beta = draw(st.lists(st.floats(-1.0, 1.0), min_size=1 + spec.dimension, max_size=1 + spec.dimension))
    return LogisticModel(scale * beta[0], tuple(scale * b for b in beta[1:]), spec, True, 1, False)


class TestScoringPieces:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_piece_constants_are_the_chebyshev_extreme_points_and_their_inverse_vandermonde(self, degree):
        nodes = logistic._PIECE_NODES[degree]
        assert np.abs(nodes - (1.0 - np.cos(np.arange(degree + 1) * np.pi / degree)) / 2.0).max() <= 1e-15
        product = logistic._PIECE_INVERSE[degree] @ np.vander(nodes, increasing=True)
        assert np.abs(product - np.eye(degree + 1)).max() <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(model=spline_models(), inside=st.lists(st.floats(0.0, 1.0), max_size=20), data=st.data())
    def test_pieces_equal_the_design(self, model, inside, data):
        spec = model.basis_spec
        lo, hi = spec.domain
        edges = np.array([lo, hi, *spec.interior_knots])
        width = hi - lo
        beyond = data.draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6))
        x = np.concatenate(
            (
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                lo + width * np.array(inside),
                # up to two domain widths past either end: truncated powers extrapolate, B-splines clamp
                lo - width * np.array(beyond[::2]),
                hi + width * np.array(beyond[1::2]),
            )
        )
        # the pieces serve every point, not the design path
        assert np.abs(x).max() <= model.pieces[3]
        p, clamped = logistic.score_probabilities(model, x)
        assert clamped == (int(np.sum((x < lo) | (x > hi))) if spec.kind is BasisKind.BSPLINE else 0)
        # 1e-10, and a few ulps of the largest |term| sum: where the terms reach 1e6, a zero eta that the
        # design gets exactly (a B-spline coefficient of 1e6 at a break where its function ends) comes
        # out of the pieces as about 6e-10
        dm = _design(model, x)
        beta = np.array((model.intercept, *model.coefficients))
        scale = (np.abs(dm.matrix) @ np.abs(beta)).max()
        assert np.abs(p - predict_prob(model, dm)).max() <= 1e-10 + 16 * np.finfo(float).eps * scale


@pytest.fixture(scope="module")
def fitted_600():
    records = generate_dataset(ScenarioConfig(n_records=600, seed=1))
    config = ExperimentConfig()
    return fit_sample(config, group_sample(config, records.packet_delay_ms, records.label))


_HUGE = float(np.finfo(float).max)


class TestScoringRoute:
    """Inputs and coefficients that the design path cannot score to a finite eta take that path."""

    @staticmethod
    def assert_scores_as_the_design(model, x):
        labels = np.zeros(x.size, dtype=int)
        try:
            expected = _design_probabilities(model, x)
        except Exception as err:
            for score in (lambda: logistic.score_probabilities(model, x), lambda: score_model(model, x, labels, 0.5)):
                with pytest.raises(type(err)) as raised:
                    score()
                assert str(raised.value) == str(err)
            return
        p, _ = logistic.score_probabilities(model, x)
        spec = model.basis_spec
        xc = np.clip(x, *spec.domain) if spec is not None and spec.kind is BasisKind.BSPLINE else x
        if spec is not None and np.abs(xc).max() <= model.pieces[3]:
            # the pieces' eta, which differs from the design's in its last bits
            assert np.abs(p - expected).max() <= 1e-12
        else:
            assert np.array_equal(p, expected)
        assert score_model(model, x, labels, 0.5)[0] == confusion_matrix(classify(expected), labels)

    # 1e103 cubes past the float range, where a cubic piece with a small leading coefficient
    # stays finite; at the largest float, the linear design's terms overflow where its last
    # piece does not
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e150, -1e120, 1e103, _HUGE, -_HUGE])
    @pytest.mark.parametrize("kind", ALL_MODELS, ids=lambda k: k.value)
    def test_pieces_route_an_input_as_the_design(self, fitted_600, kind, value):
        self.assert_scores_as_the_design(fitted_600[kind], np.array([2.0, value, 60.0]))

    @pytest.mark.parametrize("kind", ALL_MODELS, ids=lambda k: k.value)
    def test_pieces_route_coefficients_of_1e308_as_the_design(self, fitted_600, kind):
        model = fitted_600[kind]
        huge = dataclasses.replace(model, intercept=1e308, coefficients=(1e308,) * len(model.coefficients))
        self.assert_scores_as_the_design(huge, np.array([1.0, 2.0, 60.0, 95.0]))

    def test_pieces_route_the_cancelling_linear_model_as_the_design(self, fitted_600):
        # above about 1.8 ms the terms 1e308 * x and -1e308 * x overflow and cancel to NaN
        model = dataclasses.replace(
            fitted_600[ModelKind.LINEAR_SPLINE], intercept=1e308, coefficients=(1e308, -1e308, 0.0, 0.0)
        )
        with pytest.raises(NumericalError, match="linear predictor is not a number"):
            _design_probabilities(model, np.array([1.0, 2.0, 60.0]))
        self.assert_scores_as_the_design(model, np.array([1.0, 2.0, 60.0]))

    def test_a_list_scores_as_its_array(self, fitted_600):
        # points inside the training domain, about [1.16, 94.3], and one past either end
        x = [-3.0, 2.0, 17.5, 60.0, 400.0]
        labels = [0, 1, 0, 1, 0]
        for kind, model in fitted_600.items():
            p, clamped = logistic.score_probabilities(model, x)
            assert np.array_equal(p, logistic.score_probabilities(model, np.array(x))[0]), kind
            assert score_model(model, x, labels, 0.5) == score_model(model, np.array(x), labels, 0.5), kind
            assert clamped == (2 if kind is ModelKind.BSPLINE else 0), kind

    @pytest.mark.parametrize("degree", [2, 3])
    def test_a_piece_too_narrow_for_its_coefficients_leaves_the_pieces_unused(self, degree):
        # the width 1e-300 squared underflows to 0, so that B-spline piece's c_2 is not finite
        spec = SplineBasisSpec(BasisKind.BSPLINE, degree, KnotVector((0.0, 1e-300)), (-1.0, 1.0))
        model = LogisticModel(0.5, tuple(np.linspace(-1.0, 1.0, spec.dimension)), spec, True, 1, False)
        assert model.pieces[3] == -np.inf
        self.assert_scores_as_the_design(model, np.array([-0.5, 0.0, 5e-301, 0.5]))


class TestModelPersistence:
    def fitted(self):
        records = generate_dataset(ScenarioConfig(n_records=200, seed=11))
        x = np.array([r.packet_delay_ms for r in records])
        y = np.array([r.label for r in records])
        knots = quantile_knots(x, (0.25, 0.5, 0.75))
        span = float(x.max() - x.min())
        domain = (float(x.min() - 0.01 * span), float(x.max() + 0.01 * span))
        spec = basis_spec_for(ModelKind.BSPLINE, knots, domain, 3)
        return fit_logistic(build_design_matrix(spec, x), y), x

    def test_round_trip_probabilities_identical(self, tmp_path):
        model, x = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        dm = build_design_matrix(model.basis_spec, np.clip(x, *model.basis_spec.domain))
        assert np.array_equal(predict_prob(model, dm), predict_prob(loaded, dm))

    def test_resave_is_byte_identical(self, tmp_path):
        model, _ = self.fitted()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_baseline_model_round_trips(self, tmp_path):
        records = generate_dataset(ScenarioConfig(n_records=100, seed=4))
        x = [r.packet_delay_ms for r in records]
        y = [r.label for r in records]
        model = fit_logistic(build_design_matrix(None, x), y)
        path = tmp_path / "baseline.json"
        save_model(model, path)
        assert load_model(path) == model

    @pytest.mark.parametrize("change", [-1, 1], ids=["one_too_few", "one_too_many"])
    def test_coefficient_count_must_match_the_basis(self, tmp_path, change):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        dimension = model.basis_spec.dimension
        doc["coefficients"] = [0.5] * (dimension + change)
        path.write_text(json.dumps(doc))
        message = f"corrupt model file .*: {dimension + change} coefficients for a basis of dimension {dimension}$"
        with pytest.raises(ModelLoadError, match=message):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ModelLoadError):
            load_model(path)

    # True and 1.0 equal the version 1 in Python, but are a JSON boolean and a JSON real
    @pytest.mark.parametrize("version", [999, True, 1.0])
    def test_version_mismatch(self, tmp_path, version):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match=f"^unsupported model file version {version!r}, expected 1$"):
            load_model(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelLoadError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "nope.json")
