#!/usr/bin/env python3
"""Benchmark launcher for splineids: one workload, or every workload in one table.

    python3 perfbench/run.py --workload paper_600 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all

Each workload runs in its own worker process (bench.py), so its peak RSS is
its own, with the BLAS and OpenMP pools pinned to one thread and the
checkout's ``src`` first on PYTHONPATH. A single run passes the worker's
output through; its last line is the result JSON. ``--all`` runs every
workload untraced, then traced, and so prints every metric with its unit.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_600", "pipeline_100k", "score_100k")
WORKER_TIMEOUT_S = 170
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=WORKER_TIMEOUT_S)


def run_all(seed: int, seconds: float) -> int:
    codes = [run_worker(w, seed, seconds, trace).returncode for w in WORKLOADS for trace in (0, 1)]
    return max(codes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args()
    # on SIGTERM, leave through SystemExit so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "splineids" / "__init__.py").is_file():
        print(f"perfbench: no splineids package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        return run_worker(args.workload, args.seed, args.seconds, args.trace, args.tiny).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: a worker ran longer than {WORKER_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
