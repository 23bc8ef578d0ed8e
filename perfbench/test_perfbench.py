"""Self-tests of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from refclock import INTERVAL_S, ReferenceClock
from tracer import Span, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = HERE / "out" / f"{workload}-seed5-trace{trace}.json"
    return result, json.loads(record_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["also"]["error_rate"] == {"value": 0.0, "unit": "fraction"}
    assert record["also"]["op_wall_s_p50"]["unit"] == "s"
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, record = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert record["missing_layers"] == []
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    self_metrics = [m["value"] for k, m in result["metrics"].items() if k.endswith(".self_s")]
    assert all(v >= 0 for v in self_metrics)

    spans = json.loads((ROOT / record["spans"]).read_text(encoding="utf-8"))
    assert all(set(s) == {"name", "start", "end", "parent", "op"} for s in spans["spans"])
    assert all(t >= -1e-9 for t in spans["self_s"])  # float rounding only
    assert 0 < record["traced_self_s"] <= record["traced_wall_s"]


def test_self_time_excludes_direct_children_only():
    tracer = Tracer()
    tracer.spans = [
        Span("a", 0.0, 10.0, None, "op-1"),
        Span("b", 1.0, 4.0, 0, "op-1"),
        Span("c", 2.0, 3.0, 1, "op-1"),
        Span("d", 5.0, 6.0, 0, "op-1"),
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_reference_clock_rescales_and_disarms_its_timer():
    clock = ReferenceClock()
    assert clock.time(lambda: time.sleep(2.5 * INTERVAL_S) or "done") == "done"
    assert clock.samples >= 3  # before, after and at least one from the timer
    assert 2 * INTERVAL_S < clock.wall_s < 2.6 * INTERVAL_S
    assert clock.scaled_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert clock.samples == 2 and clock.wall_s >= 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    plain = ReferenceClock(sampling=False)
    plain.time(lambda: None)
    assert plain.samples == 0 and plain.scaled_s == plain.wall_s


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
