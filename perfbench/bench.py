"""One benchmark run of one workload, in this process and on one thread.

Started by run.py, which pins the BLAS and OpenMP pools to one thread and
puts the checkout's ``src`` on PYTHONPATH. Prints the metrics with their
units, writes the full result (and, traced, the spans) under
perfbench/out/, and ends with one JSON line: correct, attempted, failed
and metrics.

Untraced (--trace 0) it reports the end-to-end metrics, with every time
rescaled by refclock.ReferenceClock to a fixed speed of the machine; the
record keeps the wall times too. Traced (--trace 1)
it alternates untraced and traced operations on the same inputs and
reports each layer's self time and counts per traced operation, and the
tracing overhead.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

from refclock import ReferenceClock
from run import WORKLOADS
from tracer import CLI_COMMANDS, MODEL_NAMES, Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S, for a steadier median
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 20
MANY_OPS = 20  # enough ops for a tail percentile

END_TO_END_UNITS = {
    "records_per_s": "records/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_min": "fraction",
}

# these run only in score_100k's set-up, so they are reported per set-up
SETUP_LAYERS = ("experiment.save_model", "cli.main.train")


def _per_layer_units() -> dict[str, str]:
    units = {
        "simulate.generate_dataset.self_s": "s",
        "simulate.generate_dataset.records": "count",
        "simulate.write_csv.self_s": "s",
        "simulate.write_csv.bytes": "bytes",
        "simulate.read_csv.self_s": "s",
        "simulate.read_csv.bytes": "bytes",
        "splines.quantile_knots.self_s": "s",
        "splines.basis_row.calls": "count",
    }
    for m in MODEL_NAMES:
        units[f"logistic.build_design_matrix.{m}.self_s"] = "s"
        units[f"logistic.build_design_matrix.{m}.rows"] = "count"
        units[f"logistic.build_design_matrix.{m}.bytes"] = "bytes"
    for m in MODEL_NAMES:
        units[f"logistic.fit_logistic.{m}.self_s"] = "s"
        units[f"logistic.fit_logistic.{m}.iterations"] = "count"
        units[f"logistic.fit_logistic.{m}.separation_flags"] = "count"
    units["logistic.predict_prob.self_s"] = "s"
    for layer in ("split_train_test", "run_experiment", "emit_curves", "render_report", "save_model", "load_model"):
        units[f"experiment.{layer}.self_s"] = "s"
    for command in CLI_COMMANDS:
        units[f"cli.main.{command}.self_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()


def _read_first(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _caches() -> list[str]:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return caches


def machine_note() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def op_tail(times: list[float]) -> dict:
    """Highest percentile with at least ten operations beyond it, with the sample count."""
    n = len(times)
    return {"value": sorted(times)[n - 11], "unit": "s", "percentile": 100 * (n - 10) // n, "samples": n}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return the result line and the full record."""
    # traced, the timer's samples would land in the spans, so times are plain wall times
    clock = ReferenceClock(sampling=not trace)
    workloads = clock.time(lambda: importlib.import_module("workloads"))  # imports numpy and splineids
    import_s, import_wall_s = clock.scaled_s, clock.wall_s
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR))
    try:
        w = workloads.WORKLOADS[workload](seed, workdir, tiny)
        setup_times = []  # (wall, scaled) seconds
        for rep in range(SETUP_MAX_REPS):
            if rep >= SETUP_REPS and sum(t[0] for t in setup_times) >= SETUP_MIN_S:
                break
            if tracer:
                tracer.op = f"setup-{rep}"
            try:
                clock.time(w.setup)
            finally:
                setup_times.append((clock.wall_s, clock.scaled_s))
                if tracer:
                    tracer.op = None
            w.check_setup(rep)

        times = {False: [], True: []}  # traced? -> (wall, scaled) op seconds
        samples = []  # reference-loop samples per op
        accs, failed, i = [], 0, 0
        while sum(t[0] for t in times[False] + times[True]) < seconds or i < w.min_ops:
            traced = trace and i % 2 == 1
            if traced:
                tracer.op = f"op-{i}"
            try:
                # traced, each input runs twice: untraced, then traced
                out = clock.time(lambda: w.op(i // 2 if trace else i))
                ok = True
            except Exception:
                ok = False
                traceback.print_exc()
            times[traced].append((clock.wall_s, clock.scaled_s))
            samples.append(clock.samples)
            if tracer:
                tracer.op = None
            if ok:
                try:
                    accs.extend(w.check(out))
                except Exception:
                    ok = False
                    traceback.print_exc()
            failed += not ok
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer:
            tracer.uninstall()

    wall = [t[0] for t in times[False] + times[True]]
    scaled = [t[1] for t in times[False] + times[True]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_note(),
        "op_wall_s": wall,
        "op_scaled_s": scaled,
        "op_reference_samples": samples,
        "setup_reps_wall_s": [t[0] for t in setup_times],
        "setup_reps_scaled_s": [t[1] for t in setup_times],
        "import_wall_s": import_wall_s,
        "import_scaled_s": import_s,
    }
    # printed and kept, not gated in BENCHMARK.json: always 0, often absent, or raw wall time
    also = {"error_rate": {"value": failed / i, "unit": "fraction"}}
    correct = failed == 0
    if trace:
        metrics, missing = _layer_metrics(tracer, w.layers, times, len(setup_times))
        spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
        record.update(spans=str(spans_path.relative_to(OUT_DIR.parent.parent)), missing_layers=missing)
        record.update(traced_wall_s=sum(t[0] for t in times[True]), traced_self_s=_traced_self_total(tracer))
        if missing:
            correct = False
            print(f"perfbench: no span recorded for {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = {
            "records_per_s": w.records_per_op * (i - failed) / sum(scaled),
            "op_s_p50": statistics.median(scaled),
            "setup_s": import_s + statistics.median(t[1] for t in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "accuracy_min": min(accs) if accs else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        if i >= MANY_OPS:
            also["op_s_tail"] = op_tail(scaled)
        also["op_wall_s_p50"] = {"value": statistics.median(wall), "unit": "s"}
    result = {"correct": correct, "attempted": i, "failed": failed, "metrics": metrics}
    record.update(result=result, also=also)
    return result, record


def _traced_self_total(tracer: Tracer) -> float:
    return sum(s for span, s in zip(tracer.spans, tracer.self_times()) if span.op.startswith("op-"))


def _layer_metrics(tracer: Tracer, layers, times, n_setups: int) -> tuple[dict, list[str]]:
    """Per traced op: self seconds and counts of each layer; set-up layers per set-up."""
    n_ops = len(times[True])
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        in_setup = span.name in SETUP_LAYERS
        if span.op.startswith("setup-" if in_setup else "op-"):
            values[f"{span.name}.self_s"] += own / (n_setups if in_setup else n_ops)
    for op, counts in tracer.counters.items():
        if op.startswith("op-"):
            for name, count in counts.items():
                values[name] += count / n_ops
    traced, untraced = ([t[0] for t in times[k]] for k in (True, False))
    values["trace_overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    seen = {span.name for span in tracer.spans}
    missing = [layer for layer in layers if layer not in seen]
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {result['attempted']} ops, {result['failed']} failed")
    for name, m in {**result["metrics"], **record["also"]}.items():
        note = f"  (p{m['percentile']} of {m['samples']} ops)" if "percentile" in m else ""
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  machine: {json.dumps(record['machine'])}")
    print(f"  full result: {path.relative_to(OUT_DIR.parent.parent)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
