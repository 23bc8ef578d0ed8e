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


def test_seed_sweep_runs():
    result = run(SCRIPTS / "seed_sweep.py", "--seeds", "2")
    assert result.returncode == 0, result.stderr
    assert "separation-flagged fits" in result.stdout
