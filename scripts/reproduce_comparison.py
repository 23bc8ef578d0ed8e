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
    CURVE_GRID_POINTS,
    ExperimentConfig,
    emit_curves,
    emit_report,
    run_experiment,
)
from splineids.simulate import ScenarioConfig


def main():
    # each default is the library's: a dataclass field's default is its class attribute
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=ScenarioConfig.seed, help="scenario seed")
    parser.add_argument("--split-seed", type=int, default=ExperimentConfig.split_seed)
    parser.add_argument("--n", type=int, default=ScenarioConfig.n_records, help="number of records")
    parser.add_argument("--grid", type=int, default=CURVE_GRID_POINTS, help="curve grid points")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    config = ExperimentConfig(
        scenario=ScenarioConfig(n_records=args.n, seed=args.seed),
        split_seed=args.split_seed,
    )
    # everything that can reject an option runs before the output directory is made
    report = run_experiment(config)
    curves = emit_curves(config, args.grid)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    text = emit_report(report, "text", outdir / "report.txt")
    emit_report(report, "csv", outdir / "report.csv")
    (outdir / "curves.csv").write_text(curves.to_csv(), encoding="utf-8")

    print(text, end="")
    print(f"\nwrote {outdir}/report.txt, {outdir}/report.csv, {outdir}/curves.csv")


if __name__ == "__main__":
    try:
        main()
    except (SplineIdsError, OSError) as err:  # one line, as the CLI reports it
        sys.exit(f"{Path(__file__).name}: error: {' '.join(str(err).splitlines())}")
