#!/usr/bin/env python3
"""Sweep scenario seeds and summarize per-model test accuracy.

Useful for checking that the default scenario sits robustly inside the
>95%-accuracy regime rather than passing on a lucky seed.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from splineids.errors import SplineIdsError
from splineids.experiment import ExperimentConfig, ModelKind, run_experiment
from splineids.simulate import ScenarioConfig


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=positive_int, default=50, help="number of seeds (1..N)")
    parser.add_argument("--split-seed", type=int, default=ExperimentConfig.split_seed)
    parser.add_argument("--n", type=int, default=ScenarioConfig.n_records)
    args = parser.parse_args()

    accs = {kind: [] for kind in ModelKind}
    flagged = 0
    for seed in range(1, args.seeds + 1):
        config = ExperimentConfig(
            scenario=ScenarioConfig(n_records=args.n, seed=seed),
            split_seed=args.split_seed,
        )
        report = run_experiment(config)
        for row in report.rows:
            accs[row.model].append(row.accuracy)
            flagged += row.fit.separation_flag

    print(f"{'model':<12}{'mean':>9}{'min':>9}{'max':>9}{'<95%':>7}")
    for kind, values in accs.items():
        arr = np.array(values)
        print(
            f"{kind.value:<12}{arr.mean():>9.4f}{arr.min():>9.4f}{arr.max():>9.4f}"
            f"{int(np.sum(arr < 0.95)):>7}"
        )
    total = args.seeds * len(ModelKind)
    print(f"\nseparation-flagged fits: {flagged}/{total}")


if __name__ == "__main__":
    try:
        main()
    except SplineIdsError as err:  # one line, as the CLI reports it
        sys.exit(f"{Path(__file__).name}: error: {' '.join(str(err).splitlines())}")
