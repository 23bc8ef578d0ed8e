import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineids import cli, experiment
from splineids.errors import ConfigError
from splineids.experiment import (
    ExperimentConfig,
    ModelKind,
    emit_curves,
    fit_models,
    load_model,
    score_model,
)
from splineids.simulate import MAX_COUNT, ScenarioConfig, read_csv, scenario_to_dict

CMD = [sys.executable, "-m", "splineids"]


def run(*args, **kwargs):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=120, **kwargs
    )


def main_in_process(*argv) -> tuple[int, str, str]:
    """Run ``cli.main`` in this process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse exits itself on usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(stderr: str) -> None:
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("splineids:"), stderr


HEADER = "packet_delay_ms,packets_dropped,transfer_interval_ms,congested,attack_type,label"


class TestSimulate:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "traffic.csv"
        result = run("simulate", "--seed", "42", "--n", "50", "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 51

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--seed", "7", "--out", str(a)).returncode == 0
        assert run("simulate", "--seed", "7", "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scenario_config_file(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"n_records": 10, "attack_fraction": 0.0, "seed": 3}))
        out = tmp_path / "t.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(out)).returncode == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 10
        assert all(row.endswith(",none,0") for row in rows)


class TestExperiment:
    def test_stdout_report(self):
        result = run("experiment", "--seed", "42")
        assert result.returncode == 0, result.stderr
        assert "Prediction Accuracy" in result.stdout
        assert "Logistic Regression" in result.stdout

    def test_report_file_byte_identical_across_runs(self, tmp_path):
        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        args = ["experiment", "--seed", "42", "--split-seed", "42"]
        assert run(*args, "--report", str(r1)).returncode == 0
        assert run(*args, "--report", str(r2)).returncode == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        result = run("experiment", "--format", "csv", "--report", str(out), "--models", "logistic,bspline")
        assert result.returncode == 0
        data_lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data_lines[0].startswith("model,tp,fp,tn,fn")
        assert len(data_lines) == 3

    def test_experiment_on_csv_data(self, tmp_path):
        data = tmp_path / "data.csv"
        assert run("simulate", "--seed", "42", "--out", str(data)).returncode == 0
        result = run("experiment", "--data", str(data))
        assert result.returncode == 0
        assert "n/a (csv input)" in result.stdout


class TestCurves:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        result = run("curves", "--seed", "42", "--grid", "40", "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[1].startswith("delay_ms,")
        assert len(lines) == 2 + 40


class TestTrainEvaluate:
    def test_train_then_evaluate(self, tmp_path):
        data = tmp_path / "data.csv"
        model = tmp_path / "model.json"
        assert run("simulate", "--seed", "42", "--out", str(data)).returncode == 0
        result = run("train", "--data", str(data), "--model", "bspline", "--save", str(model))
        assert result.returncode == 0, result.stderr
        result = run("evaluate", "--load", str(model), "--data", str(data))
        assert result.returncode == 0, result.stderr
        fields = dict(line.split(": ") for line in result.stdout.splitlines())
        assert float(fields["accuracy"].rstrip("%")) >= 95.0
        assert int(fields["n"]) == 600


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run("experiment", "--no-such-flag").returncode == 1

    def test_unknown_model_is_1(self):
        result = run("experiment", "--models", "forest")
        assert result.returncode == 1
        assert_one_error_line(result.stderr)

    def test_bad_scenario_json_is_1(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        result = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 1
        assert_one_error_line(result.stderr)

    def test_missing_data_file_is_2(self, tmp_path):
        result = run("experiment", "--data", str(tmp_path / "absent.csv"))
        assert result.returncode == 2
        assert_one_error_line(result.stderr)

    def test_malformed_csv_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(HEADER + "\n-1.0,0,1.0,0,none,0\n")
        result = run("experiment", "--data", str(bad))
        assert result.returncode == 2
        assert_one_error_line(result.stderr)

    def test_constant_delays_are_2(self, tmp_path):
        rows = [HEADER] + ["5,0,1,0,none,0", "5,0,1,0,dos,1"] * 10
        bad = tmp_path / "const.csv"
        bad.write_text("\n".join(rows) + "\n")
        result = run("experiment", "--data", str(bad))
        assert result.returncode == 2
        assert_one_error_line(result.stderr)

    def test_numerical_overflow_is_3(self, tmp_path):
        # cubing a 1e200 delay overflows the design matrix
        rows = [HEADER]
        for i in range(20):
            rows.append(f"{1.0 + i},0,1.0,0,none,0")
            rows.append(f"{1e200 * (1 + i)},0,1.0,0,dos,1")
        bad = tmp_path / "huge.csv"
        bad.write_text("\n".join(rows) + "\n")
        result = run("experiment", "--data", str(bad), "--models", "cubic")
        assert result.returncode == 3, (result.returncode, result.stderr)
        assert_one_error_line(result.stderr)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A simulated traffic CSV and a B-spline model trained on it."""
    root = tmp_path_factory.mktemp("trained")
    data, model = root / "data.csv", root / "model.json"
    assert main_in_process("simulate", "--seed", "5", "--n", "300", "--out", data)[0] == 0
    assert main_in_process("train", "--data", data, "--model", "bspline", "--save", model)[0] == 0
    return data, model


BAD_SCENARIOS = [
    {"n_records": "abc"},
    {"n_records": 2.5},
    {"n_records": True},
    {"seed": 1.5},
    {"attack_mix": 5},
    {"attack_mix": [1e308, 1e308, 0, 0]},
    {"attack_uncongested": {"delay_mu": "x"}},
    {"vehicle_jitter_sigma": math.nan},
    # counts rejected before anything is allocated
    {"n_records": 10**30},
    {"n_vehicles": 10**30},
    # valid types whose draws leave a record's range
    {"attack_uncongested": {"delay_mu": 1000}},
    {"normal_uncongested": {"drop_rate": 1e30}},
]


class TestConfigErrorsAre1:
    @pytest.mark.parametrize("scenario", BAD_SCENARIOS, ids=json.dumps)
    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_bad_scenario_field(self, tmp_path, command, scenario):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        if command == "simulate":
            argv = ("simulate", "--config", cfg, "--out", tmp_path / "x.csv")
        else:
            argv = ("experiment", "--scenario", cfg)
        code, _, err = main_in_process(*argv)
        assert code == 1, err
        assert_one_error_line(err)
        assert err.startswith("splineids: config error:")

    @pytest.mark.parametrize("body", [b"null", b'{"seed": "\xff"}'], ids=["not_an_object", "not_utf8"])
    def test_unreadable_scenario_with_override(self, tmp_path, body):
        cfg = tmp_path / "scenario.json"
        cfg.write_bytes(body)
        code, _, err = main_in_process("simulate", "--config", cfg, "--seed", "3", "--out", tmp_path / "x.csv")
        assert code == 1, err
        assert_one_error_line(err)

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_scenario_nested_past_the_recursion_limit(self, tmp_path, command):
        cfg = tmp_path / "scenario.json"
        cfg.write_bytes(b"[" * 5000)
        if command == "simulate":
            argv = ("simulate", "--config", cfg, "--out", tmp_path / "x.csv")
        else:
            argv = ("experiment", "--scenario", cfg)
        code, _, err = main_in_process(*argv)
        assert code == 1, err
        assert_one_error_line(err)
        assert err.startswith(f"splineids: config error: cannot read scenario file {cfg}:")

    def test_absent_scenario_file_gives_the_reason_once(self, tmp_path):
        cfg = tmp_path / "absent.json"
        assert main_in_process("experiment", "--scenario", cfg) == (
            1, "", f"splineids: config error: cannot read scenario file {cfg}: No such file or directory\n"
        )

    def test_unparsable_knots(self):
        assert main_in_process("experiment", "--knots", "a,b") == (
            1, "", "splineids: config error: cannot parse knot probabilities 'a,b'\n"
        )

    def test_scenario_cell_that_is_not_an_object(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"normal_congested": 5}))
        assert main_in_process("experiment", "--scenario", cfg) == (
            1, "", "splineids: config error: normal_congested must be an object of cell parameters\n"
        )

    def test_message_quoting_a_line_break_stays_one_line(self):
        code, _, err = main_in_process("experiment", "--models", "for\nest\x1e")
        assert code == 1, err
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--seed", "-1", "--out", "unused.csv"),
            ("experiment", "--seed", "-1"),
            ("experiment", "--split-seed", "-3"),
        ],
    )
    def test_negative_seed(self, argv):
        code, _, err = main_in_process(*argv)
        assert code == 1, err
        assert_one_error_line(err)

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("experiment", ()),
            ("curves", ("--out", "curves.csv")),
            ("train", ("--model", "linear", "--save", "m.json")),
        ],
        ids=["experiment", "curves", "train"],
    )
    def test_seed_with_data(self, trained, tmp_path, command, extra):
        # the seed would have no data to seed, so it is not silently ignored
        data, _ = trained
        extra = tuple(tmp_path / arg if arg.endswith((".csv", ".json")) else arg for arg in extra)
        code, out, err = main_in_process(command, "--data", data, "--seed", "5", *extra)
        assert code == 1, err
        assert_one_error_line(err)
        assert err.startswith("splineids: config error: --seed") and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra",
        [
            ("--bspline-degree", "5"),
            ("--knots", "0.5,0.2"),
        ],
    )
    def test_bad_train_option(self, trained, tmp_path, extra):
        data, _ = trained
        argv = ["train", "--data", data, "--model", "bspline", "--save", tmp_path / "m.json", *extra]
        code, _, err = main_in_process(*argv)
        assert code == 1, err
        assert_one_error_line(err)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("threshold", ["1.5", "0", "nan"])
    def test_bad_evaluate_threshold(self, trained, threshold):
        data, model = trained
        code, out, err = main_in_process("evaluate", "--load", model, "--data", data, "--threshold", threshold)
        assert code == 1, err
        assert_one_error_line(err)
        assert out == ""


class TestUnusableDataIs2:
    @pytest.mark.parametrize(
        "body",
        [
            (HEADER + "\n1,0,1,0,none,0\n").encode() + b"\xff,0,1,0,dos,1\n",
            # the 0.25 quantile is the lowest delay, so the first knot sits on the domain edge
            (HEADER + "\n1,0,1,0,none,0\n1,0,1,0,dos,1\n1.0000000000000002,0,1,0,none,0\n"
             "1.0000000000000004,0,1,0,dos,1\n1.0000000000000009,0,1,0,none,0\n").encode(),
            # past the csv module's field size limit
            (HEADER + "\n1,0,1,0,none," + "0" * 140_000 + "\n").encode(),
        ],
        ids=["not_utf8", "domain_rounds_onto_knot", "field_too_large"],
    )
    def test_train(self, tmp_path, body):
        data = tmp_path / "data.csv"
        data.write_bytes(body)
        code, _, err = main_in_process("train", "--data", data, "--model", "linear", "--save", tmp_path / "m.json")
        assert code == 2, err
        assert_one_error_line(err)

    @pytest.mark.parametrize("command", ["train", "evaluate", "experiment", "curves"])
    def test_csv_without_records(self, trained, tmp_path, command):
        data = tmp_path / "empty.csv"
        data.write_text(HEADER + "\n")
        out = tmp_path / "out"
        argv = {
            "train": ("train", "--data", data, "--model", "linear", "--save", out),
            "evaluate": ("evaluate", "--load", trained[1], "--data", data),
            "experiment": ("experiment", "--data", data),
            "curves": ("curves", "--data", data, "--out", out),
        }[command]
        assert main_in_process(*argv) == (2, "", f"splineids: data error: {data} holds no records\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "train"])
    def test_one_class_training_labels(self, tmp_path, command):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"attack_fraction": 0.0}))
        if command == "experiment":
            argv = ("experiment", "--scenario", cfg)
        else:
            argv = ("train", "--scenario", cfg, "--model", "bspline", "--save", tmp_path / "m.json")
        code, out, err = main_in_process(*argv)
        assert code == 2, err
        assert_one_error_line(err)
        assert err.startswith("splineids: data error: every training label is 0;") and out == ""
        assert not (tmp_path / "m.json").exists()


def test_curves_grid_above_max_count_is_1(tmp_path):
    out = tmp_path / "curves.csv"
    code, _, err = main_in_process("curves", "--grid", MAX_COUNT + 1, "--out", out)
    assert code == 1, err
    assert_one_error_line(err)
    assert err.startswith("splineids: config error: grid_points") and not out.exists()


def test_scenario_real_beyond_the_float_range_is_1(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"normal_uncongested": {"delay_mu": 1' + "0" * 400 + "}}")
    code, _, err = main_in_process("experiment", "--scenario", cfg)
    assert code == 1, err
    assert_one_error_line(err)
    assert err.startswith("splineids: config error: delay_mu must be a finite number")


@pytest.mark.parametrize("basis", [[], "bspline", {"kind": "bspline"}])
def test_corrupt_model_basis_is_2(trained, tmp_path, basis):
    data, model = trained
    doc = json.loads(model.read_text())
    doc["basis"] = basis
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, _, err = main_in_process("evaluate", "--load", bad, "--data", data)
    assert code == 2, err
    assert_one_error_line(err)
    field = "degree" if isinstance(basis, dict) else "basis"
    assert err.startswith(f"splineids: data error: corrupt model file {bad}: {field} "), err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(iterations=math.inf),
        lambda doc: doc["basis"].update(degree=math.inf),
        lambda doc: doc["basis"].update(domain=[1.0]),
        lambda doc: doc["coefficients"].pop(),
    ],
    ids=["iterations_1e400", "degree_1e400", "domain_one_edge", "one_coefficient_short"],
)
def test_unloadable_model_field_is_2(trained, tmp_path, edit):
    data, model = trained
    doc = json.loads(model.read_text())
    edit(doc)
    bad = tmp_path / "model.json"
    # json writes inf as Infinity; the file under test spells it 1e400, which reads back as inf
    bad.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    code, out, err = main_in_process("evaluate", "--load", bad, "--data", data)
    assert code == 2, err
    assert_one_error_line(err)
    assert err.startswith("splineids: data error:") and out == ""


@pytest.mark.parametrize(
    "key,value,kind",
    [
        ("converged", "false", "boolean"),
        ("separation_flag", 0, "boolean"),
        ("iterations", 3.7, "nonnegative integer"),
        ("iterations", -3, "nonnegative integer"),
        ("intercept", True, "number"),
        ("coefficients", [1.0, True], "list of numbers"),
        ("basis.degree", 2.5, "integer"),
        ("basis.domain", ["1", "80"], "list of numbers"),
        ("basis.domain", [1.17, 78.8, 5.0], "list of two numbers"),
    ],
)
def test_mistyped_model_field_is_2(trained, tmp_path, key, value, kind):
    data, model = trained
    doc = json.loads(model.read_text())
    *parent, name = key.split(".")
    (doc[parent[0]] if parent else doc)[name] = value
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, out, err = main_in_process("evaluate", "--load", bad, "--data", data)
    assert code == 2, err
    assert err == f"splineids: data error: corrupt model file {bad}: {name} must be a JSON {kind}, got {value!r}\n"
    assert out == ""


def _model_body(edit):
    """A model-file body: the saved model's JSON after ``edit``, with "DIGITS" spelt as a 5000-digit integer."""
    def body(text: str) -> bytes:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc).replace('"DIGITS"', "9" * 5000).encode()
    return body


# per case: the file body, made from the saved model's text, and the field its message names (None: no field)
UNREADABLE_MODELS = {
    "not_utf8": (lambda text: b"\xff" + text.encode(), None),
    "intercept_of_5000_digits": (_model_body(lambda doc: doc.update(intercept="DIGITS")), None),
    "nested_5000_deep": (lambda text: b"[" * 5000, None),
    "no_coefficients": (_model_body(lambda doc: doc.pop("coefficients")), "coefficients"),
    "no_basis": (_model_body(lambda doc: doc.pop("basis")), "basis"),
    "intercept_past_the_float_range": (_model_body(lambda doc: doc.update(intercept=10**400)), "intercept"),
    "basis_without_kind": (_model_body(lambda doc: doc["basis"].pop("kind")), "kind"),
    "basis_kind_spline": (_model_body(lambda doc: doc["basis"].update(kind="spline")), "kind"),
}


@pytest.mark.parametrize("case", UNREADABLE_MODELS)
def test_unreadable_model_file_is_one_data_error(trained, tmp_path, case):
    body, field = UNREADABLE_MODELS[case]
    data, model = trained
    bad = tmp_path / "model.json"
    bad.write_bytes(body(model.read_text()))
    code, out, err = main_in_process("evaluate", "--load", bad, "--data", data)
    assert code == 2, err
    assert_one_error_line(err)
    assert err.startswith("splineids: data error:") and str(bad) in err and out == ""
    if field is not None:
        assert err.startswith(f"splineids: data error: corrupt model file {bad}: {field} "), err


def test_absent_model_file_gives_the_reason_once(trained, tmp_path):
    data, _ = trained
    absent = tmp_path / "absent.json"
    assert main_in_process("evaluate", "--load", absent, "--data", data) == (
        2, "", f"splineids: data error: cannot read model file {absent}: No such file or directory\n"
    )


@pytest.mark.parametrize(
    "edit,reason",
    [
        (lambda doc: doc.update(intercept=math.nan), "non-finite coefficients"),
        (lambda doc: doc["coefficients"].__setitem__(-1, math.inf), "non-finite coefficients"),
        (lambda doc: doc["basis"].update(domain=[0.0, math.inf]), "domain must be finite with min < max"),
    ],
    ids=["intercept_NaN", "last_coefficient_Infinity", "domain_to_Infinity"],
)
def test_non_finite_model_value_is_2(trained, tmp_path, edit, reason):
    data, model = trained
    doc = json.loads(model.read_text())
    edit(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))  # json spells the values as the literals NaN and Infinity
    assert main_in_process("evaluate", "--load", bad, "--data", data) == (
        2, "", f"splineids: data error: corrupt model file {bad}: {reason}\n"
    )


@pytest.mark.parametrize("model", ["logistic", "linear"])
def test_overflowing_fit_is_3(tmp_path, model):
    # finite delays whose squares overflow the IRLS normal equations
    rows = [HEADER]
    for i in range(1, 21):
        rows += [f"{i},0,1,0,none,0", f"{i}e200,0,1,0,dos,1"]
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(rows) + "\n")
    code, _, err = main_in_process("train", "--data", data, "--model", model, "--save", tmp_path / "m.json")
    assert code == 3, err
    assert_one_error_line(err)


def test_delays_near_the_largest_float_are_3(tmp_path):
    # the domain [1, 1.79e308] is finite, but the fit overflows
    data = tmp_path / "data.csv"
    data.write_text(HEADER + "\n1,0,1,0,none,0\n2,0,1,0,dos,1\n3,0,1,0,none,0\n"
                    "1.7e308,0,1,0,dos,1\n1.79e308,0,1,0,none,0\n")
    code, _, err = main_in_process("train", "--data", data, "--model", "linear", "--save", tmp_path / "m.json")
    assert code == 3, err
    assert_one_error_line(err)
    assert err.startswith("splineids: numerical failure:")


def linear_model_with(trained, tmp_path, intercept, coefficients):
    """The traffic CSV of ``trained`` and a linear-spline model on it with edited coefficients."""
    data, _ = trained
    model = tmp_path / "linear.json"
    assert main_in_process("train", "--data", data, "--model", "linear", "--save", model)[0] == 0
    doc = json.loads(model.read_text())
    assert len(doc["coefficients"]) == len(coefficients)
    doc.update(intercept=intercept, coefficients=coefficients)
    model.write_text(json.dumps(doc))
    return data, model


def test_nan_linear_predictor_is_3(trained, tmp_path):
    # above a delay of about 1.8 ms the terms 1e308 * x and -1e308 * x overflow and cancel to NaN
    data, model = linear_model_with(trained, tmp_path, 1e308, [1e308, -1e308, 0.0, 0.0])
    code, out, err = main_in_process("evaluate", "--load", model, "--data", data)
    assert code == 3, err
    assert_one_error_line(err)
    assert err.startswith("splineids: numerical failure: row ") and out == ""
    assert err.endswith(": linear predictor is not a number\n")


def test_overflowing_linear_predictor_scores_every_row_as_an_attack(trained, tmp_path):
    data, model = linear_model_with(trained, tmp_path, 1e308, [1e308] * 4)
    code, out, err = main_in_process("evaluate", "--load", model, "--data", data)
    assert (code, err) == (0, "")
    labels = read_csv(data).label
    n, attacks = len(labels), int(labels.sum())
    assert out == (
        f"n: {n}\ntp: {attacks}\nfp: {n - attacks}\ntn: 0\nfn: 0\n"
        f"accuracy: {100.0 * attacks / n:.2f}%\nclamped_points: 0\n"
    )


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_train_evaluate_match_fit_and_score(trained, tmp_path, kind):
    train_csv, _ = trained
    fresh_csv, model_path = tmp_path / "fresh.csv", tmp_path / "model.json"
    # 2000 fresh records put a few delays outside the B-spline domain of the 300 training ones
    assert main_in_process("simulate", "--seed", "6", "--n", "2000", "--out", fresh_csv)[0] == 0
    argv = ("train", "--data", train_csv, "--model", kind.value, "--knots", "0.2,0.5,0.8", "--save", model_path)
    assert main_in_process(*argv) == (0, "", "")
    code, out, err = main_in_process("evaluate", "--load", model_path, "--data", fresh_csv, "--threshold", "0.4")
    assert code == 0, err

    config = ExperimentConfig(data_csv=str(train_csv), knot_probs=(0.2, 0.5, 0.8), models=(kind,))
    train, fresh = read_csv(train_csv), read_csv(fresh_csv)
    model = fit_models(config, train.packet_delay_ms, train.label).models[kind]
    assert load_model(model_path) == model
    cm, clamped = score_model(model, fresh.packet_delay_ms, fresh.label, 0.4)
    fields = dict(line.split(": ") for line in out.splitlines())
    printed = tuple(int(fields[k]) for k in ("n", "tp", "fp", "tn", "fn", "clamped_points"))
    assert printed == (cm.total, cm.tp, cm.fp, cm.tn, cm.fn, clamped)
    assert clamped > 0 if kind is ModelKind.BSPLINE else clamped == 0


# --- malformed input, driven through cli.main in process ---------------------

_SCENARIO_KEYS = list(scenario_to_dict(ScenarioConfig()))
_CELL_KEYS = ["delay_mu", "delay_sigma", "drop_rate", "interval_mu", "interval_sigma"]
# integers stay small: a valid n_records or n_vehicles is a run's size
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_CELL_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_SCENARIO_TEXT = st.one_of(
    st.dictionaries(st.sampled_from(_SCENARIO_KEYS + ["bogus"]), _JSON, max_size=4).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=12),
)
_NUMBER = st.one_of(st.integers(-5, 40).map(str), st.floats().map(repr), st.text(max_size=4))
_FIELD = st.one_of(
    st.floats(0.1, 100.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["0", "1", "2", "none", "dos", "probe", ""]),
    st.text(max_size=3),
)
_ROW = st.one_of(
    st.tuples(st.floats(0.1, 100.0).map(repr), st.just("0"), st.just("1.0"), st.sampled_from(["0", "1"]),
              st.sampled_from(["none,0", "dos,1"])).map(",".join),
    st.lists(_FIELD, min_size=1, max_size=7).map(",".join),
)
_CSV_TEXT = st.lists(_ROW, max_size=12).map(lambda rows: "\n".join([HEADER, *rows]) + "\n") | st.text(max_size=40)
# bodies that no reader may turn into a traceback: a byte that is not UTF-8, a byte-order mark, nesting
# past the recursion limit, an integer literal past the interpreter's digit limit
_HOSTILE = st.sampled_from([b"\xff", b"\xef\xbb\xbf{}", b"[" * 5000, b'{"a":' * 5000, b"9" * 5000,
                            b'{"seed": ' + b"9" * 5000 + b"}"]) | st.binary(max_size=12)
_MODEL_KEYS = [("format",), ("version",), ("intercept",), ("coefficients",), ("converged",), ("iterations",),
               ("separation_flag",), ("basis",), ("basis", "kind"), ("basis", "degree"),
               ("basis", "interior_knots"), ("basis", "domain")]
_DROP = object()
# a model-file body: the valid model with one field dropped or retyped, or a hostile body
_MODEL_EDIT = st.tuples(st.sampled_from(_MODEL_KEYS), st.just(_DROP) | _JSON) | _HOSTILE


def _model_file(valid: Path, edit) -> bytes:
    """The bytes of the model file ``valid`` after ``edit`` (a key path and a value or ``_DROP``), or ``edit``."""
    if isinstance(edit, bytes):
        return edit
    (*parents, key), value = edit
    doc = json.loads(valid.read_text())
    owner = doc["basis"] if parents else doc
    if value is _DROP:
        del owner[key]
    else:
        owner[key] = value
    return json.dumps(doc).encode()


# per command: (required options, optional options); "--bogus" is never valid
_COMPARISON = ["--data", "--seed", "--split-ratio", "--split-seed", "--knots", "--models", "--bspline-degree",
               "--threshold", "--filter"]
_COMMANDS = {
    "simulate": (["--out"], ["--config", "--seed", "--n", "--bogus"]),
    "experiment": ([], _COMPARISON + ["--scenario", "--report", "--format", "--bogus"]),
    "curves": (["--out"], _COMPARISON + ["--grid", "--bogus"]),
    "train": (["--model", "--save"], ["--data", "--scenario", "--seed", "--knots", "--bspline-degree", "--bogus"]),
    "evaluate": (["--load", "--data"], ["--threshold", "--bogus"]),
}


@st.composite
def _invocation(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    files = {
        "scenario": draw(_SCENARIO_TEXT.map(str.encode) | _HOSTILE),
        "data": draw(_CSV_TEXT.map(str.encode) | _HOSTILE),
        "model": draw(_MODEL_EDIT),
    }
    # a file argument is drawn as a key into the per-example paths
    path = st.sampled_from(["data", "scenario", "model", "valid_data", "valid_model", "out", "dir", "absent"]).map(
        lambda key: (key,)
    )
    values = {
        # --load mostly reads the drawn model body
        "--data": path, "--scenario": path, "--config": path, "--load": st.just(("model",)) | path,
        "--out": path, "--report": path, "--save": path,
        "--seed": _NUMBER, "--n": _NUMBER, "--split-ratio": _NUMBER, "--split-seed": _NUMBER,
        "--bspline-degree": _NUMBER, "--threshold": _NUMBER, "--grid": _NUMBER,
        "--knots": st.one_of(st.lists(_NUMBER, min_size=1, max_size=4).map(",".join), st.just("0.25,0.5,0.75")),
        "--models": st.sampled_from(["logistic", "bspline", "cubic,linear", "forest", ""]),
        "--model": st.sampled_from(["logistic", "quadratic", "bspline", "forest", "a,b"]),
        "--filter": st.sampled_from(["all", "congested", "x"]),
        "--format": st.sampled_from(["text", "csv", "json"]),
        "--bogus": st.text(max_size=3),
    }
    required, optional = _COMMANDS[command]
    names = required + draw(st.lists(st.sampled_from(optional), max_size=4, unique=True))
    argv = [command]
    for name in names:
        argv += [name, draw(values[name])]
    return argv, files


@settings(max_examples=100, deadline=None)
@given(_invocation())
def test_malformed_input_ends_in_one_message(trained, invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.json").write_bytes(files["scenario"])
        (tmp / "data.csv").write_bytes(files["data"])
        (tmp / "model.json").write_bytes(_model_file(trained[1], files["model"]))
        # copies, as an invocation may name a valid file as its --out, --save or --report path
        valid_data, valid_model = (Path(shutil.copy(path, tmp / f"valid_{path.name}")) for path in trained)
        paths = {
            "data": tmp / "data.csv", "scenario": tmp / "scenario.json", "model": tmp / "model.json",
            "out": tmp / "out", "dir": tmp, "absent": tmp / "absent", "valid_data": valid_data,
            "valid_model": valid_model,
        }
        code, _, err = main_in_process(*(paths[arg[0]] if isinstance(arg, tuple) else arg for arg in argv))
    if code == 0:
        assert err == ""
    elif err.startswith("usage:"):  # argparse's own usage error
        assert code == 1 and "\nsplineids" in err, err
    else:
        assert code in (1, 2, 3), (code, err)
        assert_one_error_line(err)


# SHA-256 of model files and reports from the default scenario at --seed 42, recorded on numpy 2.4 (a
# numpy release that changes the Generator streams changes them, as it changes the CSV digests)
PINNED_MODEL_FILES = {
    "logistic": "06c6cb624500f2fe8d6c63f3d8beebc3c37cdfd76fa444d960fab80ef3118c2b",
    "linear": "bd14fe9092d0e93e5e6b9c43a4fa601c86c7e2ce82ef0f2367c37fc38bbe846f",
    "quadratic": "1e74ab3aedee102f86d225130c9fd79fe8f324dbff3609a6cbcac5cf9f807a7c",
    "cubic": "91428e957ddf8c7a3a743bb20f8ac867b9a1ceaa72e7b3e8cf6c921e330a2ff9",
    "bspline": "cd066cd1bbf9377e737d4213bc6cfde4eb9ae3389e552f5488141f88e66936cf",
}
PINNED_REPORTS = {
    "text": "919bcdac8398b3cc116ac8a039868bc756838f445376f3943649b7b143e1b5e2",
    "csv": "5e65a0a7eda0946b73df4cfdbf381310463ecd61929ded44fbab4776e71b7c8c",
    # the config digest in a report names the CSV path, so the test reads it from a fixed relative path
    "text_from_csv": "cd838b06786ca975de33bed49bf4c222b3447e87068a04955996cdc0ab758640",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("model", PINNED_MODEL_FILES)
    def test_model_file_bytes(self, tmp_path, model):
        path = tmp_path / "model.json"
        assert main_in_process("train", "--seed", "42", "--model", model, "--save", path)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MODEL_FILES[model]

    def test_report_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        reports = {
            "text": main_in_process("experiment", "--seed", "42"),
            "csv": main_in_process("experiment", "--seed", "42", "--format", "csv"),
        }
        assert main_in_process("simulate", "--seed", "42", "--out", "traffic.csv")[0] == 0
        reports["text_from_csv"] = main_in_process("experiment", "--data", "traffic.csv")
        assert {name: code for name, (code, _, _) in reports.items()} == dict.fromkeys(PINNED_REPORTS, 0)
        digests = {name: hashlib.sha256(out.encode()).hexdigest() for name, (_, out, _) in reports.items()}
        assert digests == PINNED_REPORTS


class TestDefaults:
    @pytest.mark.parametrize(
        "argv,differ",
        [
            (("experiment",), {"scenario"}),
            (("curves", "--out", "curves.csv"), {"scenario"}),
            (("train", "--model", "linear", "--save", "m.json"), {"scenario", "models"}),
            (("evaluate", "--load", "model.json", "--data", "data.csv"), {"data_csv"}),
        ],
        ids=["experiment", "curves", "train", "evaluate"],
    )
    def test_parsed_defaults_build_the_default_config(self, tmp_path, monkeypatch, argv, differ):
        monkeypatch.chdir(tmp_path)
        assert main_in_process("train", "--model", "logistic", "--save", "model.json")[0] == 0
        # every command hands its config to load_records; the stand-in keeps it and stops the run
        seen = []

        def keep(config):
            seen.append(config)
            raise ConfigError("config kept")

        monkeypatch.setattr(experiment, "load_records", keep)
        monkeypatch.setattr(experiment, "_last_fit", None)
        code, _, err = main_in_process(*argv)
        assert (code, err) == (1, "splineids: config error: config kept\n")
        (config,) = seen
        default = ExperimentConfig()
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {name for name in fields if getattr(config, name) != getattr(default, name)} == differ

    def test_grid_default_is_emit_curves_default(self):
        args = cli.build_parser().parse_args(["curves", "--out", "curves.csv"])
        assert args.grid == inspect.signature(emit_curves).parameters["grid_points"].default
