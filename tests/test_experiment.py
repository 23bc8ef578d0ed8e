import json

import numpy as np
import pytest

from splineids import experiment
from splineids.errors import ConfigError, DegenerateKnotsError, InsufficientDataError, ModelLoadError, SplitError
from splineids.experiment import (
    ALL_MODELS,
    CurveBundle,
    ExperimentConfig,
    ModelKind,
    basis_spec_for,
    config_digest,
    delays_and_labels,
    emit_curves,
    fit_models,
    emit_report,
    load_model,
    render_report,
    run_experiment,
    save_model,
    score_model,
    split_train_test,
    write_curves_csv,
)
from splineids.logistic import build_design_matrix, fit_logistic, predict_prob
from splineids.simulate import ScenarioConfig, generate_dataset
from splineids.splines import quantile_knots


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
        from splineids.simulate import write_csv

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
    def test_grid_and_probability_range(self, tmp_path, default_report):
        bundle = emit_curves(ExperimentConfig(), grid_points=200)
        assert len(bundle.delays) == 200
        assert set(bundle.probabilities) == set(ALL_MODELS)
        for probs in bundle.probabilities.values():
            assert probs.shape == (200,)
            assert np.all((probs > 0.0) & (probs < 1.0))

        path = tmp_path / "curves.csv"
        write_curves_csv(bundle, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config_digest=")
        assert lines[1] == "delay_ms," + ",".join(m.value for m in ALL_MODELS)
        assert len(lines) == 2 + 200

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
        from splineids.simulate import write_csv

        path = tmp_path / "data.csv"
        config = ExperimentConfig(data_csv=str(path))
        write_csv(generate_dataset(ScenarioConfig(n_records=300, seed=1)), path)
        old = emit_curves(config, grid_points=20).to_csv()
        run_experiment(config)
        write_csv(generate_dataset(ScenarioConfig(n_records=300, seed=2)), path)
        curves = emit_curves(config, grid_points=20).to_csv()
        assert curves == emit_curves(config, grid_points=20).to_csv() != old


class TestFitModels:
    def test_domain_is_the_training_range(self):
        x, y = delays_and_labels(generate_dataset(ScenarioConfig(n_records=200, seed=11)))
        fitted = fit_models(ExperimentConfig(models=(ModelKind.BSPLINE,)), x, y)
        assert fitted.domain == (x.min(), x.max())
        assert fitted.models[ModelKind.BSPLINE].basis_spec.domain == fitted.domain

    def test_knot_on_the_lowest_delay_is_rejected(self):
        x = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(DegenerateKnotsError, match="strictly inside"):
            fit_models(ExperimentConfig(knot_probs=(0.25, 0.5)), x, np.array([0, 1] * 4))

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_labels_are_rejected(self, label):
        x = np.arange(1.0, 21.0)
        with pytest.raises(InsufficientDataError, match=f"^every training label is {label};"):
            fit_models(ExperimentConfig(), x, np.full(20, label))


class TestScoreModel:
    def test_bspline_inputs_outside_domain_score_as_its_edges(self):
        x, y = delays_and_labels(generate_dataset(ScenarioConfig(n_records=200, seed=11)))
        config = ExperimentConfig(models=(ModelKind.LINEAR_SPLINE, ModelKind.BSPLINE))
        models = fit_models(config, x, y).models
        lo, hi = models[ModelKind.BSPLINE].basis_spec.domain
        labels = np.concatenate([y, [0, 1]])
        outside = score_model(models[ModelKind.BSPLINE], np.concatenate([x, [lo - 5.0, hi + 5.0]]), labels, 0.5)
        edges = score_model(models[ModelKind.BSPLINE], np.concatenate([x, [lo, hi]]), labels, 0.5)
        assert outside[1] == 2 and edges[1] == 0
        assert outside[0] == edges[0]
        # truncated-power bases extrapolate, so nothing is clamped
        assert score_model(models[ModelKind.LINEAR_SPLINE], np.array([lo - 5.0, hi + 5.0]), [0, 1], 0.5)[1] == 0


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

    def test_version_mismatch(self, tmp_path):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelLoadError, match="version"):
            load_model(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelLoadError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "nope.json")
