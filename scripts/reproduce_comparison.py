#!/usr/bin/env python3
"""Run the default five-model comparison and write report + curve data.

Writes <outdir>/report.txt, <outdir>/report.csv and <outdir>/curves.csv,
and prints the text report to stdout.
"""

import argparse
import sys
from pathlib import Path

from splineids.errors import SplineIdsError
from splineids.experiment import (
    ExperimentConfig,
    emit_curves,
    emit_report,
    run_experiment,
    write_curves_csv,
)
from splineids.simulate import ScenarioConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42, help="scenario seed")
    parser.add_argument("--split-seed", type=int, default=42)
    parser.add_argument("--n", type=int, default=600, help="number of records")
    parser.add_argument("--grid", type=int, default=200, help="curve grid points")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    config = ExperimentConfig(
        scenario=ScenarioConfig(n_records=args.n, seed=args.seed),
        split_seed=args.split_seed,
    )
    report = run_experiment(config)
    text = emit_report(report, "text", outdir / "report.txt")
    emit_report(report, "csv", outdir / "report.csv")
    write_curves_csv(emit_curves(config, args.grid), outdir / "curves.csv")

    print(text, end="")
    print(f"\nwrote {outdir}/report.txt, {outdir}/report.csv, {outdir}/curves.csv")


if __name__ == "__main__":
    try:
        main()
    except (SplineIdsError, OSError) as err:  # one line, as the CLI reports it
        sys.exit(f"{Path(__file__).name}: error: {' '.join(str(err).splitlines())}")
