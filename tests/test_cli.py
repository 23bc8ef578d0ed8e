import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineids import cli
from splineids.experiment import (
    ExperimentConfig,
    ModelKind,
    delays_and_labels,
    fit_models,
    load_model,
    score_model,
)
from splineids.simulate import ScenarioConfig, read_csv, scenario_to_dict

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
            # the 1% margin rounds away next to 1.0, so the first knot sits on the domain edge
            (HEADER + "\n1,0,1,0,none,0\n1,0,1,0,dos,1\n1.0000000000000002,0,1,0,none,0\n"
             "1.0000000000000004,0,1,0,dos,1\n1.0000000000000009,0,1,0,none,0\n").encode(),
            # the widened domain overflows to inf
            (HEADER + "\n1,0,1,0,none,0\n2,0,1,0,dos,1\n3,0,1,0,none,0\n"
             "1.7e308,0,1,0,dos,1\n1.79e308,0,1,0,none,0\n").encode(),
            # past the csv module's field size limit
            (HEADER + "\n1,0,1,0,none," + "0" * 140_000 + "\n").encode(),
        ],
        ids=["not_utf8", "domain_rounds_onto_knot", "domain_overflows", "field_too_large"],
    )
    def test_train(self, tmp_path, body):
        data = tmp_path / "data.csv"
        data.write_bytes(body)
        code, _, err = main_in_process("train", "--data", data, "--model", "linear", "--save", tmp_path / "m.json")
        assert code == 2, err
        assert_one_error_line(err)


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
    model = fit_models(config, *delays_and_labels(read_csv(train_csv))).models[kind]
    assert load_model(model_path) == model
    cm, clamped = score_model(model, *delays_and_labels(read_csv(fresh_csv)), 0.4)
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
    files = {"scenario": draw(_SCENARIO_TEXT), "data": draw(_CSV_TEXT)}
    # a file argument is drawn as a key into the per-example paths
    path = st.sampled_from(["data", "scenario", "valid_data", "valid_model", "out", "dir", "absent"]).map(
        lambda key: (key,)
    )
    values = {
        "--data": path, "--scenario": path, "--config": path, "--load": path,
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


@settings(max_examples=60, deadline=None)
@given(_invocation())
def test_malformed_input_ends_in_one_message(trained, invocation):
    argv, files = invocation
    valid_data, valid_model = trained
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.json").write_text(files["scenario"], encoding="utf-8")
        (tmp / "data.csv").write_text(files["data"], encoding="utf-8")
        paths = {
            "data": tmp / "data.csv", "scenario": tmp / "scenario.json", "out": tmp / "out",
            "dir": tmp, "absent": tmp / "absent", "valid_data": valid_data, "valid_model": valid_model,
        }
        code, _, err = main_in_process(*(paths[arg[0]] if isinstance(arg, tuple) else arg for arg in argv))
    if code == 0:
        assert err == ""
    elif err.startswith("usage:"):  # argparse's own usage error
        assert code == 1 and "\nsplineids" in err, err
    else:
        assert code in (1, 2, 3), (code, err)
        assert_one_error_line(err)
