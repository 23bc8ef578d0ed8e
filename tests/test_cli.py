import json
import subprocess
import sys

CMD = [sys.executable, "-m", "splineids"]


def run(*args, **kwargs):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=120, **kwargs
    )


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
        assert run("experiment", "--models", "forest").returncode == 1

    def test_bad_scenario_json_is_1(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")).returncode == 1

    def test_missing_data_file_is_2(self, tmp_path):
        assert run("experiment", "--data", str(tmp_path / "absent.csv")).returncode == 2

    def test_malformed_csv_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(HEADER + "\n-1.0,0,1.0,0,none,0\n")
        assert run("experiment", "--data", str(bad)).returncode == 2

    def test_constant_delays_are_2(self, tmp_path):
        rows = [HEADER] + ["5,0,1,0,none,0", "5,0,1,0,dos,1"] * 10
        bad = tmp_path / "const.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert run("experiment", "--data", str(bad)).returncode == 2

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
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("splineids:"), result.stderr
