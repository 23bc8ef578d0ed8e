"""End-to-end orchestration: split, five-model comparison, reports, curves,
model persistence.

Each model's display name and regression basis live in one table,
``_MODELS``. Every prediction goes through ``logistic.score_probabilities``.

Knots are always taken from training-set delays only (no test leakage), and
the clamped B-spline domain is the training delay range.

Each stage of a run keeps alive only the arrays that the next stage reads.
The loaded table goes straight into ``split_train_test``; of the test
table only the test delays and labels are kept; the training table is
grouped into distinct delays, trials and successes (``group_sample``)
before the first fit. So during the fits nothing of the loaded table, the
split tables, the training columns or ``np.unique``'s inverse is alive,
and each fit holds only its design matrix over the distinct delays.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateKnotsError, EmptyDataError, ModelLoadError, SplitError
from .logistic import (
    ConfusionMatrix,
    LogisticModel,
    accuracy,
    binary_labels,
    build_design_matrix,
    classify,
    confusion_matrix,
    fit_logistic,
    score_probabilities,
)
from .simulate import MAX_COUNT, ScenarioConfig, TrafficTable, checked_float, checked_int, generate_dataset
from .simulate import json_default, read_csv, read_json
from .splines import BasisKind, KnotVector, SplineBasisSpec, quantile_knots

MODEL_FILE_FORMAT = "splineids-model"
MODEL_FILE_VERSION = 1


class ModelKind(Enum):
    LOGISTIC = "logistic"
    LINEAR_SPLINE = "linear"
    QUADRATIC_SPLINE = "quadratic"
    CUBIC_SPLINE = "cubic"
    BSPLINE = "bspline"

    @property
    def display_name(self) -> str:
        return _MODELS[self][0]


# each model's display name and basis; a basis degree of None is the config's bspline_degree
_MODELS = {
    ModelKind.LOGISTIC: ("Logistic Regression", None),
    ModelKind.LINEAR_SPLINE: ("Linear Spline", (BasisKind.TRUNCATED_POWER, 1)),
    ModelKind.QUADRATIC_SPLINE: ("Quadratic Spline", (BasisKind.TRUNCATED_POWER, 2)),
    ModelKind.CUBIC_SPLINE: ("Cubic Spline", (BasisKind.TRUNCATED_POWER, 3)),
    ModelKind.BSPLINE: ("B-Spline", (BasisKind.BSPLINE, None)),
}

ALL_MODELS = tuple(ModelKind)

_FOOTNOTE = (
    "Note: accuracy is computed from the confusion counts as (TP+TN)/N; "
    "counts of 118/120 render as 98.33% (not the 98.30% sometimes quoted "
    "for those counts)."
)


# the congestion filters: every record, the congested ones, the uncongested ones
CONGESTION_FILTERS = ("all", "congested", "uncongested")

# the report formats, the first the default
REPORT_FORMATS = ("text", "csv")

# the default number of points on the curve grid
CURVE_GRID_POINTS = 200


def _as_tuple(name: str, value) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence, got {value!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one comparison run; data comes from a CSV or a scenario."""

    data_csv: str | None = None
    scenario: ScenarioConfig | None = None
    split_ratio: float = 0.8
    split_seed: int = 42
    knot_probs: tuple[float, ...] = (0.25, 0.50, 0.75)
    models: tuple[ModelKind, ...] = ALL_MODELS
    threshold: float = 0.5
    bspline_degree: int = 3
    congestion_filter: str = "all"

    def __post_init__(self):
        # each field is stored as a Python str, float, int or tuple, which the config digest encodes
        if self.data_csv is not None and self.scenario is not None:
            raise ConfigError("give either data_csv or scenario, not both")
        if self.data_csv is not None:
            if not (isinstance(self.data_csv, (str, os.PathLike)) and isinstance(os.fspath(self.data_csv), str)):
                raise ConfigError(f"data_csv must be a str or os.PathLike path, got {self.data_csv!r}")
            object.__setattr__(self, "data_csv", os.fspath(self.data_csv))
        if self.scenario is not None and not isinstance(self.scenario, ScenarioConfig):
            raise ConfigError(f"scenario must be a ScenarioConfig or None, got {self.scenario!r}")
        object.__setattr__(self, "split_ratio", checked_float("split_ratio", self.split_ratio, 0, 1, open_=True))
        object.__setattr__(self, "split_seed", checked_int("split_seed", self.split_seed, 0))
        probs = _as_tuple("knot_probs", self.knot_probs)
        probs = tuple(checked_float("knot_probs", p, 0, 1, open_=True) for p in probs)
        if not probs or any(q <= p for p, q in zip(probs, probs[1:])):
            raise ConfigError(f"knot_probs must be strictly increasing in (0, 1), got {self.knot_probs!r}")
        object.__setattr__(self, "knot_probs", probs)
        models = _as_tuple("models", self.models)
        stray = [m for m in models if not isinstance(m, ModelKind)]
        if stray:
            raise ConfigError(f"models must be ModelKind members, got {stray[0]!r}")
        object.__setattr__(self, "models", models)
        if not models or len(set(models)) != len(models):
            raise ConfigError("models must be a nonempty set of distinct model names")
        object.__setattr__(self, "threshold", checked_float("threshold", self.threshold, 0, 1, open_=True))
        object.__setattr__(self, "bspline_degree", checked_int("bspline_degree", self.bspline_degree, 1, 3))
        if self.congestion_filter not in CONGESTION_FILTERS:
            names = ", ".join(CONGESTION_FILTERS)
            raise ConfigError(f"congestion_filter must be one of {names}, got {self.congestion_filter!r}")


@dataclass(frozen=True)
class ModelRow:
    """One model of a run: its kind, its fit, and its scores on the test set."""

    model: ModelKind
    fit: LogisticModel
    cm: ConfusionMatrix
    clamped_test_points: int

    @property
    def accuracy(self) -> float:
        return accuracy(self.cm)


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ModelRow, ...]
    n_train: int
    n_test: int
    knots_ms: tuple[float, ...]
    scenario_seed: int | None
    split_seed: int
    config_digest: str
    bspline_domain: tuple[float, float]


@dataclass(frozen=True)
class CurveBundle:
    """Prediction curves over a delay grid, for external replotting."""

    delays: np.ndarray
    probabilities: dict[ModelKind, np.ndarray]
    config_digest: str

    def to_csv(self) -> str:
        lines = [f"# config_digest={self.config_digest}"]
        lines.append("delay_ms," + ",".join(m.value for m in self.probabilities))
        # one %-format per row over Python floats: "%.17g" % v is f"{v:.17g}"
        row = ",".join(["%.17g"] * (1 + len(self.probabilities)))
        columns = [self.delays.tolist(), *(p.tolist() for p in self.probabilities.values())]
        lines.extend(row % values for values in zip(*columns))
        return "\n".join(lines) + "\n"


def config_digest(config: ExperimentConfig) -> str:
    """The first 16 hex digits of the SHA-256 of the config's fields as sorted JSON."""
    text = json.dumps(config, sort_keys=True, default=json_default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def split_train_test(records: TrafficTable, ratio: float, seed: int) -> tuple[TrafficTable, TrafficTable]:
    """Seeded shuffle then prefix split; train size = round(ratio * n)."""
    n = len(records)
    if n < 2:
        raise SplitError("need at least 2 records to split")
    n_train = round(ratio * n)
    if n_train < 1 or n_train > n - 1:
        raise SplitError(f"ratio {ratio} leaves an empty side for n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    return records[perm[:n_train]], records[perm[n_train:]]


def basis_spec_for(
    kind: ModelKind,
    knots: KnotVector,
    domain: tuple[float, float],
    bspline_degree: int,
) -> SplineBasisSpec | None:
    """Map a model name onto its regression basis (None = raw-delay baseline)."""
    basis = _MODELS[kind][1]
    if basis is None:
        return None
    basis_kind, degree = basis
    return SplineBasisSpec(basis_kind, bspline_degree if degree is None else degree, knots, domain)


def load_records(config: ExperimentConfig) -> TrafficTable:
    """The records ``config`` names: its CSV, else its scenario, else the default scenario."""
    if config.data_csv is not None:
        records = read_csv(config.data_csv)
        if not len(records):
            raise EmptyDataError(f"{config.data_csv} holds no records")
        return records
    return generate_dataset(config.scenario or ScenarioConfig())


def _filter_records(records: TrafficTable, which: str) -> TrafficTable:
    """The ``records`` that ``which``, one of ``CONGESTION_FILTERS``, keeps."""
    everything, congested, _ = CONGESTION_FILTERS
    return records if which == everything else records[records.congested == (which == congested)]


@dataclass(frozen=True)
class TrainingSample:
    """A training sample grouped by delay, with the knots and domain its models share.

    ``trials[i]`` training records have the delay ``delays[i]``, and
    ``successes[i]`` of them are attacks; ``delays`` is sorted and distinct.
    """

    knots: KnotVector
    domain: tuple[float, float]
    delays: np.ndarray
    trials: np.ndarray
    successes: np.ndarray


def group_sample(config: ExperimentConfig, x: np.ndarray, y: np.ndarray) -> TrainingSample:
    """Group training delays ``x`` and labels ``y`` by distinct delay, with their knots and domain.

    The knots are the ``config.knot_probs`` quantiles of ``x``; the B-spline
    domain is the range of ``x``. An empty ``x`` raises :class:`EmptySampleError`,
    then knots that coincide or do not lie strictly inside that range raise
    :class:`DegenerateKnotsError`, then labels other than 0 and 1 raise
    ``ValueError``. The sample holds none of the n-length arrays it was
    grouped from.
    """
    distinct, inverse, trials = np.unique(x, return_inverse=True, return_counts=True)
    # the distinct delays repeated by their counts are x sorted, so the knots' stable sort is one linear pass
    knots = quantile_knots(np.repeat(distinct, trials), config.knot_probs)
    domain = (float(distinct[0]), float(distinct[-1]))
    if not (domain[0] < knots[0] and knots[-1] < domain[1]):
        raise DegenerateKnotsError(
            f"knots {knots.values} do not lie strictly inside the training delays {list(domain)}"
        )
    successes = np.bincount(inverse, weights=binary_labels(y))
    return TrainingSample(knots, domain, distinct, trials, successes)


def fit_sample(config: ExperimentConfig, sample: TrainingSample) -> dict[ModelKind, LogisticModel]:
    """Each model in ``config.models`` fitted on the grouped ``sample``, keyed in ``ALL_MODELS`` order.

    Each model is fitted on the distinct delays, as (trials, successes).
    That is the fit on the records one by one, on a design with a row per
    distinct delay. ``fit_logistic`` raises :class:`InsufficientDataError`
    for labels of one class.
    """
    models = {}
    for kind in ALL_MODELS:
        if kind in config.models:
            spec = basis_spec_for(kind, sample.knots, sample.domain, config.bspline_degree)
            models[kind] = fit_logistic(build_design_matrix(spec, sample.delays), sample.successes, sample.trials)
    return models


def score_model(
    model: LogisticModel, x: np.ndarray, y: np.ndarray, threshold: float
) -> tuple[ConfusionMatrix, int]:
    """Confusion counts of ``model`` on delays ``x`` and labels ``y``, and the clamped count."""
    probs, clamped = score_probabilities(model, x)
    return confusion_matrix(classify(probs, threshold), y), clamped


def _run(config: ExperimentConfig) -> ExperimentReport:
    # each stage keeps only what the next reads (see the module docstring)
    train, test = split_train_test(
        _filter_records(load_records(config), config.congestion_filter), config.split_ratio, config.split_seed
    )
    n_train, n_test = len(train), len(test)
    test_x, test_y = test.packet_delay_ms, test.label
    del test
    sample = group_sample(config, train.packet_delay_ms, train.label)
    del train
    rows = []
    for kind, model in fit_sample(config, sample).items():
        cm, clamped = score_model(model, test_x, test_y, config.threshold)
        rows.append(ModelRow(model=kind, fit=model, cm=cm, clamped_test_points=clamped))

    return ExperimentReport(
        rows=tuple(rows),
        n_train=n_train,
        n_test=n_test,
        knots_ms=sample.knots.values,
        scenario_seed=None if config.data_csv is not None else (config.scenario or ScenarioConfig()).seed,
        split_seed=config.split_seed,
        config_digest=config_digest(config),
        bspline_domain=sample.domain,
    )


# the report, with each row's fit, of the last run_experiment call on a scenario config, until emit_curves
# takes it; a scenario fixes its data through the seeded stream, while a CSV may change between two calls
_last_fit: tuple[ExperimentConfig, ExperimentReport] | None = None


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the comparison: load/generate, split, fit each model, score the test set."""
    global _last_fit
    report = _run(config)
    _last_fit = (config, report) if config.data_csv is None else None
    return report


def render_report(report: ExperimentReport, fmt: str = REPORT_FORMATS[0]) -> str:
    """Render a report in one of ``REPORT_FORMATS``; text mirrors the TP/FP/TN/FN/accuracy table layout."""
    if fmt not in REPORT_FORMATS:
        raise ConfigError(f"unknown report format '{fmt}'")
    text, _ = REPORT_FORMATS
    return _render_text(report) if fmt == text else _render_csv(report)


def _fmt_knots(knots: Sequence[float]) -> str:
    return ", ".join(f"{k:.6g}" for k in knots)


def _render_text(report: ExperimentReport) -> str:
    lines = [
        "spline and logistic traffic-classification report",
        f"n_train: {report.n_train}",
        f"n_test: {report.n_test}",
        f"knots_ms: {_fmt_knots(report.knots_ms)}",
        f"scenario_seed: {report.scenario_seed if report.scenario_seed is not None else 'n/a (csv input)'}",
        f"split_seed: {report.split_seed}",
        f"config_digest: {report.config_digest}",
        f"bspline_domain_ms: [{report.bspline_domain[0]:.6g}, {report.bspline_domain[1]:.6g}]",
        "",
        f"N = {report.n_test}",
        f"{'Model':<22}{'TP':>6}{'FP':>6}{'TN':>6}{'FN':>6}  {'Prediction Accuracy':>20}",
    ]
    for row in report.rows:
        cm = row.cm
        lines.append(
            f"{row.model.display_name:<22}{cm.tp:>6}{cm.fp:>6}{cm.tn:>6}{cm.fn:>6}"
            f"  {100.0 * row.accuracy:>19.2f}%"
        )
    lines.append("")
    lines.append("fit diagnostics:")
    for row in report.rows:
        lines.append(
            f"  {row.model.display_name}: converged={'yes' if row.fit.converged else 'no'}"
            f" iterations={row.fit.iterations}"
            f" separation={'yes' if row.fit.separation_flag else 'no'}"
            f" clamped_test_points={row.clamped_test_points}"
        )
    lines.append("")
    lines.append(_FOOTNOTE)
    return "\n".join(lines) + "\n"


def _render_csv(report: ExperimentReport) -> str:
    lines = [
        f"# n_train={report.n_train}",
        f"# n_test={report.n_test}",
        f"# knots_ms={_fmt_knots(report.knots_ms)}",
        f"# scenario_seed={report.scenario_seed if report.scenario_seed is not None else 'n/a'}",
        f"# split_seed={report.split_seed}",
        f"# config_digest={report.config_digest}",
        f"# {_FOOTNOTE}",
        "model,tp,fp,tn,fn,accuracy_percent,converged,iterations,separation_flag,clamped_test_points",
    ]
    for row in report.rows:
        cm = row.cm
        lines.append(
            f"{row.model.value},{cm.tp},{cm.fp},{cm.tn},{cm.fn},"
            f"{100.0 * row.accuracy:.2f},{str(row.fit.converged).lower()},{row.fit.iterations},"
            f"{str(row.fit.separation_flag).lower()},{row.clamped_test_points}"
        )
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, fmt: str = REPORT_FORMATS[0], path: str | Path | None = None) -> str:
    text = render_report(report, fmt)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def emit_curves(config: ExperimentConfig, grid_points: int = CURVE_GRID_POINTS) -> CurveBundle:
    """Fit per ``config`` and evaluate every model over an even delay grid.

    When the preceding :func:`run_experiment` call ran an equal scenario
    config, its fit is reused instead of refitted; each such fit feeds one
    curves call at most. The grid spans the clamped B-spline domain, so each
    curve can be replotted without extrapolation.
    """
    global _last_fit
    grid_points = checked_int("grid_points", grid_points, 2, MAX_COUNT)
    last, _last_fit = _last_fit, None
    report = last[1] if last is not None and last[0] == config else _run(config)
    delays = np.linspace(*report.bspline_domain, grid_points)
    probabilities = {row.model: score_probabilities(row.fit, delays)[0] for row in report.rows}
    return CurveBundle(delays, probabilities, report.config_digest)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the JSON values a model file field may hold, by the name its error message gives them
_JSON_KINDS = {
    "boolean": lambda value: isinstance(value, bool),
    "integer": lambda value: _is_number(value) and isinstance(value, int),
    "nonnegative integer": lambda value: _is_number(value) and isinstance(value, int) and value >= 0,
    "number": _is_number,
    "list of numbers": lambda value: isinstance(value, list) and all(map(_is_number, value)),
    "object or null": lambda value: value is None or isinstance(value, dict),
    "basis kind": lambda value: value in [kind.value for kind in BasisKind],
}


def _field(doc: dict, key: str, kind: str):
    """``doc[key]``; a missing key, or a value not of JSON ``kind`` (a key of ``_JSON_KINDS``), is a ValueError."""
    if key not in doc:
        raise ValueError(f"{key} is missing")
    value = doc[key]
    if not _JSON_KINDS[kind](value):
        raise ValueError(f"{key} must be a JSON {kind}, got {value!r}")
    return value


def _domain(edges: list) -> tuple[float, float]:
    if len(edges) != 2:
        raise ValueError(f"domain must be a JSON list of two numbers, got {edges!r}")
    return float(edges[0]), float(edges[1])


# every field a model file stores, by the class it builds: the model's at the top level, and its
# basis's in the object under "basis" (null for plain logistic regression). Each field has its
# JSON kind, its conversion on load and its conversion on save.
_FILE_FIELDS = {
    LogisticModel: {
        "intercept": ("number", float, float),
        "coefficients": ("list of numbers", lambda values: tuple(map(float, values)), list),
        "converged": ("boolean", bool, bool),
        "iterations": ("nonnegative integer", int, int),
        "separation_flag": ("boolean", bool, bool),
    },
    SplineBasisSpec: {
        "kind": ("basis kind", BasisKind, lambda kind: kind.value),
        "degree": ("integer", int, int),
        "interior_knots": ("list of numbers", lambda values: KnotVector(tuple(values)), list),
        "domain": ("list of numbers", _domain, list),
    },
}


def _to_doc(obj) -> dict:
    """The JSON object of ``obj``'s fields in ``_FILE_FIELDS``."""
    return {key: save(getattr(obj, key)) for key, (_, _, save) in _FILE_FIELDS[type(obj)].items()}


def _from_doc(cls: type, doc: dict, **rest):
    """A ``cls`` built from its fields in ``_FILE_FIELDS``, read from the JSON object ``doc``, and ``rest``."""
    fields = {}
    for key, (kind, load, _) in _FILE_FIELDS[cls].items():
        try:
            fields[key] = load(_field(doc, key, kind))
        except OverflowError:  # an integer literal past the float range
            raise ValueError(f"{key} holds a number beyond the float range") from None
    return cls(**fields, **rest)


def save_model(model: LogisticModel, path: str | Path) -> None:
    """Persist a fitted model with its basis spec as canonical JSON."""
    spec = model.basis_spec
    doc = _to_doc(model)
    doc.update(format=MODEL_FILE_FORMAT, version=MODEL_FILE_VERSION, basis=None if spec is None else _to_doc(spec))
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LogisticModel:
    """Load a model written by :func:`save_model`.

    A file that ``read_json`` cannot read, that is not a model file of this version, or whose field in
    ``_FILE_FIELDS`` is missing, of the wrong JSON kind or out of range is a ModelLoadError naming the file and
    any such field.
    """
    doc = read_json(path, ModelLoadError, "model file")
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FILE_FORMAT:
        raise ModelLoadError(f"{path} is not a model file")
    if not _JSON_KINDS["integer"](doc.get("version")) or doc["version"] != MODEL_FILE_VERSION:
        raise ModelLoadError(
            f"unsupported model file version {doc.get('version')!r}, expected {MODEL_FILE_VERSION}"
        )
    try:
        basis = _field(doc, "basis", "object or null")
        spec = None if basis is None else _from_doc(SplineBasisSpec, basis)
        model = _from_doc(LogisticModel, doc, basis_spec=spec)
    except ValueError as err:
        raise ModelLoadError(f"corrupt model file {path}: {err}") from None
    if not math.isfinite(model.intercept) or not all(math.isfinite(c) for c in model.coefficients):
        raise ModelLoadError(f"corrupt model file {path}: non-finite coefficients")
    dimension = 1 if model.basis_spec is None else model.basis_spec.dimension
    if len(model.coefficients) != dimension:
        raise ModelLoadError(
            f"corrupt model file {path}: {len(model.coefficients)} coefficients for a basis of dimension {dimension}"
        )
    return model
