"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop of identical operations on inputs made from
the workload seed. ``setup`` is the warm-up plus the preparation and is
timed; ``op`` is the timed operation; ``check_setup`` and ``check`` run
outside the timed region and raise ``CheckFailed`` on a wrong output.
``check`` returns the accuracies the operation produced.
"""

import contextlib
import hashlib
import io
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

# timed calls go through module attributes, where the tracer's wrappers sit
from splineids import cli, experiment
from splineids.experiment import ExperimentConfig, load_model
from splineids.logistic import DesignMatrix, accuracy, classify, confusion_matrix, predict_prob
from splineids.simulate import ScenarioConfig, generate_dataset, read_csv, scenario_from_dict
from splineids.splines import BasisKind

from tracer import MODEL_NAMES

_DISPLAY = ("Logistic Regression", "Linear Spline", "Quadratic Spline", "Cubic Spline", "B-Spline")
_ROW = re.compile(r"^(.+?)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+\.\d\d)%$")
_DESIGN = tuple(f"logistic.{layer}.{m}" for layer in ("build_design_matrix", "fit_logistic") for m in MODEL_NAMES)
_EXPERIMENT = (
    "simulate.generate_dataset",
    "experiment.split_train_test",
    "experiment.run_experiment",
    "splines.quantile_knots",
    "logistic.predict_prob",
    "experiment.render_report",
) + _DESIGN


class CheckFailed(Exception):
    pass


def _counted_accuracy(where: str, n: int, tp: int, fp: int, tn: int, fn: int, rendered: str) -> float:
    """Check the counts sum to N and the rendered accuracy rounds (TP+TN)/N; return it."""
    if tp + fp + tn + fn != n:
        raise CheckFailed(f"{where}: counts sum to {tp + fp + tn + fn}, N is {n}")
    exact = Fraction(100 * (tp + tn), n)  # exact, so a tie may round either way
    if abs(Fraction(rendered) - exact) > Fraction(1, 200):
        raise CheckFailed(f"{where}: rendered accuracy {rendered}%, counts give {float(exact):.4f}%")
    return (tp + tn) / n


def check_text_report(text: str, n_test: int) -> tuple[list[float], list[str]]:
    """Check every model row of a text report; return the accuracies and their renderings."""
    lines = text.splitlines()
    if f"N = {n_test}" not in lines:
        raise CheckFailed(f"report does not state N = {n_test}")
    start = next(i for i, line in enumerate(lines) if line.startswith("Model")) + 1
    rows = [_ROW.match(line) for line in lines[start : start + len(_DISPLAY)]]
    if any(r is None for r in rows) or tuple(r.group(1) for r in rows) != _DISPLAY:
        raise CheckFailed("report table does not list the five models in order")
    accs = [
        _counted_accuracy(r.group(1), n_test, *(int(r.group(j)) for j in range(2, 6)), r.group(6))
        for r in rows
    ]
    return accs, [r.group(6) for r in rows]


def _cli(*argv) -> str:
    """Run one CLI command in process; return its stdout, fail on a nonzero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"splineids {argv[0]} exited {code}")
    return out.getvalue()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class Paper600:
    """run_experiment at n = 600 with all five models, both reports and the curves."""

    name = "paper_600"
    layers = _EXPERIMENT + ("experiment.emit_curves",)

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.scenario_seeds = [seed * 1000 + j for j in range(2 if tiny else 16)]
        self.records_per_op = 600
        self.min_ops = len(self.scenario_seeds) + 1  # so one scenario repeats
        self._digests: dict[int, str] = {}

    def setup(self) -> None:
        self.configs = [
            ExperimentConfig(scenario=ScenarioConfig(n_records=600, seed=s), split_seed=42)
            for s in self.scenario_seeds
        ]
        self.op(0)  # warm-up

    def check_setup(self, rep: int) -> None:
        pass

    def op(self, i: int):
        k = i % len(self.configs)
        config = self.configs[k]
        report = experiment.run_experiment(config)
        text = experiment.emit_report(report, "text")
        csv_text = experiment.emit_report(report, "csv")
        curves = experiment.emit_curves(config, 200).to_csv()
        return k, report.n_test, text, csv_text, curves

    def check(self, out) -> list[float]:
        k, n_test, text, csv_text, curves = out
        accs, rendered = check_text_report(text, n_test)
        csv_rows = [line.split(",") for line in csv_text.splitlines() if not line.startswith("#")][1:]
        if [r[0] for r in csv_rows] != list(MODEL_NAMES) or [r[5] for r in csv_rows] != rendered:
            raise CheckFailed("csv report disagrees with the text report")
        if len(curves.splitlines()) != 202:
            raise CheckFailed("curves csv does not hold 200 grid rows")
        digest = _digest(text.encode(), csv_text.encode(), curves.encode())
        if self._digests.setdefault(k, digest) != digest:
            raise CheckFailed(f"scenario seed {self.scenario_seeds[k]} gave a different report")
        return accs


class Pipeline100k:
    """The README CLI flow: simulate a CSV, then run the experiment on it."""

    name = "pipeline_100k"
    layers = _EXPERIMENT + ("cli.main.simulate", "cli.main.experiment", "simulate.write_csv", "simulate.read_csv")

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.n = 2000 if tiny else 100_000
        self.workdir = workdir
        self.csv = workdir / "traffic.csv"
        self.report = workdir / "report.txt"
        self.records_per_op = self.n
        self.min_ops = 2  # so the same seed runs twice
        self._first: tuple[str, bytes] | None = None

    def setup(self) -> None:
        warm_csv = self.workdir / "warm.csv"
        _cli("simulate", "--n", 600, "--seed", self.seed, "--out", warm_csv)
        _cli("experiment", "--data", warm_csv, "--report", self.workdir / "warm.txt")

    def check_setup(self, rep: int) -> None:
        pass

    def op(self, i: int):
        _cli("simulate", "--n", self.n, "--seed", self.seed, "--out", self.csv)
        _cli("experiment", "--data", self.csv, "--report", self.report)

    def check(self, out) -> list[float]:
        report = self.report.read_bytes()
        accs, _ = check_text_report(report.decode(), self.n - round(0.8 * self.n))
        csv_digest = _digest(self.csv.read_bytes())
        if self._first is None:
            scenario = scenario_from_dict({"seed": self.seed, "n_records": self.n})
            if read_csv(self.csv) != generate_dataset(scenario):
                raise CheckFailed("records read back differ from the records generated")
            self._first = (csv_digest, report)
        elif self._first != (csv_digest, report):
            raise CheckFailed("the same seed gave a different csv or report")
        return accs


def reference_design(spec, x: np.ndarray) -> DesignMatrix:
    """The design matrix computed a second way: whole arrays at a time."""
    if spec is None:
        cols = x[:, None]
    elif spec.kind is BasisKind.TRUNCATED_POWER:
        d = spec.degree
        knots = np.array(spec.interior_knots.values)
        cols = np.column_stack([x**j for j in range(1, d + 1)] + [np.maximum(x[:, None] - knots, 0.0) ** d])
    else:
        basis = spec.bspline_basis()
        t = np.array(basis.extended_knots.values)
        xc = x[:, None]
        cols = ((t[:-1] <= xc) & (xc < t[1:])).astype(float)
        for k in range(2, basis.order + 1):
            n = len(t) - k
            left_den = t[k - 1 : k - 1 + n] - t[:n]
            right_den = t[k : k + n] - t[1 : n + 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                left = np.where(left_den != 0.0, (xc - t[:n]) / left_den, 0.0) * cols[:, :n]
                right = np.where(right_den != 0.0, (t[k : k + n] - xc) / right_den, 0.0) * cols[:, 1 : n + 1]
            cols = left + right
        cols[x == spec.domain[1]] = np.eye(cols.shape[1])[-1]
    return DesignMatrix(np.column_stack([np.ones(x.size), cols]), spec)


class Score100k:
    """The deployed detector: score fresh traffic with five saved models."""

    name = "score_100k"
    layers = (
        "cli.main.simulate",
        "cli.main.train",
        "cli.main.evaluate",
        "simulate.generate_dataset",
        "simulate.write_csv",
        "simulate.read_csv",
        "splines.quantile_knots",
        "logistic.predict_prob",
        "experiment.save_model",
        "experiment.load_model",
    ) + _DESIGN

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.n_train = 1000 if tiny else 20_000
        self.n_fresh = 2000 if tiny else 100_000
        self.workdir = workdir
        self.train_csv = workdir / "train.csv"
        self.fresh_csv = workdir / "fresh.csv"
        self.models = {m: workdir / f"{m}.json" for m in MODEL_NAMES}
        self.records_per_op = len(MODEL_NAMES) * self.n_fresh
        self.min_ops = 2
        self._setup_digest: str | None = None
        self._expected: dict[str, str] = {}

    def setup(self) -> None:
        warm_csv, warm_model = self.workdir / "warm.csv", self.workdir / "warm.json"
        _cli("simulate", "--n", 600, "--seed", self.seed, "--out", warm_csv)
        _cli("train", "--data", warm_csv, "--model", "bspline", "--save", warm_model)
        _cli("evaluate", "--load", warm_model, "--data", warm_csv)
        _cli("simulate", "--n", self.n_train, "--seed", self.seed, "--out", self.train_csv)
        _cli("simulate", "--n", self.n_fresh, "--seed", self.seed + 1, "--out", self.fresh_csv)
        for m, path in self.models.items():
            _cli("train", "--data", self.train_csv, "--model", m, "--save", path)

    def check_setup(self, rep: int) -> None:
        paths = [self.train_csv, self.fresh_csv, *self.models.values()]
        digest = _digest(*(p.read_bytes() for p in paths))
        if self._setup_digest is None:
            self._setup_digest = digest
            self._expected = self._reference_outputs()
        elif digest != self._setup_digest:
            raise CheckFailed("the same seed gave different csv or model files")

    def _reference_outputs(self) -> dict[str, str]:
        """What evaluate must print, from an in-process predict_prob/confusion_matrix."""
        records = read_csv(self.fresh_csv)
        x_all = np.array([r.packet_delay_ms for r in records])
        y = np.array([r.label for r in records])
        expected = {}
        for m, path in self.models.items():
            model = load_model(path)
            spec, x, clamped = model.basis_spec, x_all, 0
            if spec is not None and spec.kind is BasisKind.BSPLINE:
                lo, hi = spec.domain
                clamped = int(np.sum((x < lo) | (x > hi)))
                x = np.clip(x, lo, hi)
            cm = confusion_matrix(classify(predict_prob(model, reference_design(spec, x))), y)
            expected[m] = (
                f"n: {cm.total}\ntp: {cm.tp}\nfp: {cm.fp}\ntn: {cm.tn}\nfn: {cm.fn}\n"
                f"accuracy: {100.0 * accuracy(cm):.2f}%\nclamped_points: {clamped}\n"
            )
        return expected

    def op(self, i: int):
        return {m: _cli("evaluate", "--load", path, "--data", self.fresh_csv) for m, path in self.models.items()}

    def check(self, out) -> list[float]:
        accs = []
        for m, text in out.items():
            if text != self._expected[m]:
                raise CheckFailed(f"evaluate {m} printed {text!r}, in-process scoring gives {self._expected[m]!r}")
            fields = dict(line.split(": ") for line in text.splitlines())
            counts = (int(fields[key]) for key in ("tp", "fp", "tn", "fn"))
            accs.append(_counted_accuracy(m, self.n_fresh, *counts, fields["accuracy"].rstrip("%")))
        return accs


WORKLOADS = {w.name: w for w in (Paper600, Pipeline100k, Score100k)}
