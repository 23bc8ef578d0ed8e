"""Smoke tests for the experiment drivers in scripts/."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(*args):
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True, timeout=300)


def test_reproduce_comparison_matches_cli(tmp_path):
    outdir = tmp_path / "results"
    result = run(SCRIPTS / "reproduce_comparison.py", "--n", "200", "--outdir", outdir)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in outdir.iterdir()) == ["curves.csv", "report.csv", "report.txt"]

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"n_records": 200}))
    cli = run("-m", "splineids", "experiment", "--scenario", scenario, "--seed", "42", "--split-seed", "42")
    assert cli.returncode == 0, cli.stderr
    assert (outdir / "report.txt").read_text() == cli.stdout

    # the script's curves reuse its run's fit; the CLI's come from a fresh one
    curves = tmp_path / "curves.csv"
    cli = run(
        "-m", "splineids", "curves", "--scenario", scenario, "--seed", "42", "--split-seed", "42",
        "--grid", "200", "--out", curves,
    )
    assert cli.returncode == 0, cli.stderr
    assert (outdir / "curves.csv").read_bytes() == curves.read_bytes()


def test_seed_sweep_runs():
    result = run(SCRIPTS / "seed_sweep.py", "--seeds", "2")
    assert result.returncode == 0, result.stderr
    assert "separation-flagged fits" in result.stdout


def test_seed_sweep_rejects_fewer_than_one_seed():
    result = run(SCRIPTS / "seed_sweep.py", "--seeds", "0")
    assert result.returncode == 2
    assert result.stderr.startswith("usage:") and "Traceback" not in result.stderr
    assert "argument --seeds: must be at least 1, got 0" in result.stderr


def test_package_error_ends_in_one_line(tmp_path):
    for script, args in [
        ("reproduce_comparison.py", ["--n", "1", "--outdir", tmp_path]),
        ("seed_sweep.py", ["--seeds", "1", "--n", "1"]),
    ]:
        result = run(SCRIPTS / script, *args)
        assert result.returncode == 1, result.stderr
        assert result.stderr == f"{script}: error: need at least 2 records to split\n"


def test_unusable_outdir_ends_in_one_line(tmp_path):
    existing_file = tmp_path / "taken"
    existing_file.write_text("")
    for outdir in (existing_file, existing_file / "results"):
        result = run(SCRIPTS / "reproduce_comparison.py", "--n", "200", "--outdir", outdir)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("reproduce_comparison.py: error: ") and result.stderr.count("\n") == 1
        assert str(existing_file) in result.stderr and "Traceback" not in result.stderr


def test_rejected_option_leaves_no_outdir(tmp_path):
    for args, message in [
        (["--n", "0"], "n_records must be an integer"),
        (["--n", "1"], "need at least 2 records to split"),
        (["--n", "200", "--grid", "1"], "grid_points must be an integer in [2, 1000000], got 1"),
    ]:
        outdir = tmp_path / "x" / "sub"
        result = run(SCRIPTS / "reproduce_comparison.py", *args, "--outdir", outdir)
        assert result.returncode == 1, result.stderr
        assert message in result.stderr and result.stderr.count("\n") == 1
        assert not (tmp_path / "x").exists(), args
