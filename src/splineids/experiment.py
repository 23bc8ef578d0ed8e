"""End-to-end orchestration: split, five-model comparison, reports, curves,
model persistence.

Knots are always taken from training-set delays only (no test leakage), and
the clamped B-spline domain is the training delay range expanded by 1% of its
span on each side; test delays outside that domain are clamped to the edge
and counted as warnings so every test record stays scored.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateKnotsError, ModelLoadError, SplitError
from .logistic import (
    ConfusionMatrix,
    LogisticModel,
    accuracy,
    build_design_matrix,
    classify,
    confusion_matrix,
    fit_logistic,
    predict_prob,
)
from .simulate import ScenarioConfig, TrafficRecord, generate_dataset, read_csv, scenario_to_dict
from .splines import BasisKind, KnotVector, SplineBasisSpec, quantile_knots

DOMAIN_MARGIN = 0.01  # fraction of the training delay span added per side

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
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    ModelKind.LOGISTIC: "Logistic Regression",
    ModelKind.LINEAR_SPLINE: "Linear Spline",
    ModelKind.QUADRATIC_SPLINE: "Quadratic Spline",
    ModelKind.CUBIC_SPLINE: "Cubic Spline",
    ModelKind.BSPLINE: "B-Spline",
}

ALL_MODELS = tuple(ModelKind)

_FOOTNOTE = (
    "Note: accuracy is computed from the confusion counts as (TP+TN)/N; "
    "counts of 118/120 render as 98.33% (not the 98.30% sometimes quoted "
    "for those counts)."
)


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
        if self.data_csv is not None and self.scenario is not None:
            raise ConfigError("give either data_csv or scenario, not both")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must lie in (0, 1)")
        if self.split_seed < 0:
            raise ConfigError("split_seed must be >= 0")
        probs = tuple(float(p) for p in self.knot_probs)
        object.__setattr__(self, "knot_probs", probs)
        if not probs or any(not 0.0 < p < 1.0 for p in probs) or any(
            q <= p for p, q in zip(probs, probs[1:])
        ):
            raise ConfigError("knot_probs must be strictly increasing in (0, 1)")
        models = tuple(self.models)
        object.__setattr__(self, "models", models)
        if not models or len(set(models)) != len(models):
            raise ConfigError("models must be a nonempty set of distinct model names")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        if self.bspline_degree not in (1, 2, 3):
            raise ConfigError("bspline_degree must be 1, 2 or 3")
        if self.congestion_filter not in ("all", "congested", "uncongested"):
            raise ConfigError("congestion_filter must be all, congested or uncongested")


@dataclass(frozen=True)
class ModelRow:
    model: ModelKind
    cm: ConfusionMatrix
    accuracy: float
    converged: bool
    iterations: int
    separation_flag: bool
    clamped_test_points: int


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
        cols = list(self.probabilities.values())
        for i, delay in enumerate(self.delays):
            row = [f"{delay:.17g}"] + [f"{col[i]:.17g}" for col in cols]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def config_digest(config: ExperimentConfig) -> str:
    payload = {
        "data_csv": config.data_csv,
        "scenario": scenario_to_dict(config.scenario) if config.scenario else None,
        "split_ratio": config.split_ratio,
        "split_seed": config.split_seed,
        "knot_probs": list(config.knot_probs),
        "models": [m.value for m in config.models],
        "threshold": config.threshold,
        "bspline_degree": config.bspline_degree,
        "congestion_filter": config.congestion_filter,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def split_train_test(
    records: Sequence[TrafficRecord], ratio: float, seed: int
) -> tuple[list[TrafficRecord], list[TrafficRecord]]:
    """Seeded shuffle then prefix split; train size = round(ratio * n)."""
    n = len(records)
    if n < 2:
        raise SplitError("need at least 2 records to split")
    n_train = round(ratio * n)
    if n_train < 1 or n_train > n - 1:
        raise SplitError(f"ratio {ratio} leaves an empty side for n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    train = [records[i] for i in perm[:n_train]]
    test = [records[i] for i in perm[n_train:]]
    return train, test


def basis_spec_for(
    kind: ModelKind,
    knots: KnotVector,
    domain: tuple[float, float],
    bspline_degree: int,
) -> SplineBasisSpec | None:
    """Map a model name onto its regression basis (None = raw-delay baseline)."""
    if kind is ModelKind.LOGISTIC:
        return None
    if kind is ModelKind.BSPLINE:
        return SplineBasisSpec(BasisKind.BSPLINE, bspline_degree, knots, domain)
    degree = {
        ModelKind.LINEAR_SPLINE: 1,
        ModelKind.QUADRATIC_SPLINE: 2,
        ModelKind.CUBIC_SPLINE: 3,
    }[kind]
    return SplineBasisSpec(BasisKind.TRUNCATED_POWER, degree, knots, domain)


def load_records(config: ExperimentConfig) -> tuple[list[TrafficRecord], int | None]:
    """The records ``config`` names, and the scenario seed (None for CSV input)."""
    if config.data_csv is not None:
        return read_csv(config.data_csv), None
    scenario = config.scenario if config.scenario is not None else ScenarioConfig()
    return generate_dataset(scenario), scenario.seed


def delays_and_labels(records: Sequence[TrafficRecord]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([r.packet_delay_ms for r in records]), np.array([r.label for r in records])


def _filter_records(records: list[TrafficRecord], which: str) -> list[TrafficRecord]:
    if which == "all":
        return records
    want = which == "congested"
    return [r for r in records if r.congested is want]


@dataclass(frozen=True)
class FittedModels:
    """The models fitted on one training sample, with the knots and domain they share."""

    knots: KnotVector
    domain: tuple[float, float]
    models: dict[ModelKind, LogisticModel]


def fit_models(config: ExperimentConfig, x: np.ndarray, y: np.ndarray) -> FittedModels:
    """Fit each model in ``config.models`` on training delays ``x`` and labels ``y``.

    The knots are the ``config.knot_probs`` quantiles of ``x``; the B-spline
    domain is the range of ``x`` widened by ``DOMAIN_MARGIN`` of its span on
    each side. Models come back in ``ALL_MODELS`` order.
    """
    knots = quantile_knots(x, config.knot_probs)
    lo, hi = float(x.min()), float(x.max())
    margin = DOMAIN_MARGIN * (hi - lo)
    domain = (lo - margin, hi + margin)
    if not (-math.inf < domain[0] < knots[0] and knots[-1] < domain[1] < math.inf):
        raise DegenerateKnotsError(
            f"training delays [{lo}, {hi}] leave no finite domain around knots {knots.values}"
        )
    models = {}
    for kind in ALL_MODELS:
        if kind in config.models:
            spec = basis_spec_for(kind, knots, domain, config.bspline_degree)
            models[kind] = fit_logistic(build_design_matrix(spec, x), y)
    return FittedModels(knots, domain, models)


def score_model(
    model: LogisticModel, x: np.ndarray, y: np.ndarray, threshold: float
) -> tuple[ConfusionMatrix, int]:
    """Confusion counts of ``model`` on delays ``x`` and labels ``y``, and the clamped count.

    B-spline inputs outside the model's domain are clamped to its edge and
    counted, so every record is scored.
    """
    spec = model.basis_spec
    clamped = 0
    if spec is not None and spec.kind is BasisKind.BSPLINE:
        lo, hi = spec.domain
        clamped = int(np.sum((x < lo) | (x > hi)))
        x = np.clip(x, lo, hi)
    probs = predict_prob(model, build_design_matrix(spec, x))
    return confusion_matrix(classify(probs, threshold), y), clamped


def _run(config: ExperimentConfig) -> tuple[ExperimentReport, FittedModels]:
    records, scenario_seed = load_records(config)
    records = _filter_records(records, config.congestion_filter)
    train, test = split_train_test(records, config.split_ratio, config.split_seed)
    fitted = fit_models(config, *delays_and_labels(train))
    test_x, test_y = delays_and_labels(test)

    rows = []
    for kind, model in fitted.models.items():
        cm, clamped = score_model(model, test_x, test_y, config.threshold)
        rows.append(
            ModelRow(
                model=kind,
                cm=cm,
                accuracy=accuracy(cm),
                converged=model.converged,
                iterations=model.iterations,
                separation_flag=model.separation_flag,
                clamped_test_points=clamped,
            )
        )

    report = ExperimentReport(
        rows=tuple(rows),
        n_train=len(train),
        n_test=len(test),
        knots_ms=fitted.knots.values,
        scenario_seed=scenario_seed,
        split_seed=config.split_seed,
        config_digest=config_digest(config),
        bspline_domain=fitted.domain,
    )
    return report, fitted


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the comparison: load/generate, split, fit each model, score the test set."""
    return _run(config)[0]


def render_report(report: ExperimentReport, fmt: str = "text") -> str:
    """Render a report; text mirrors the TP/FP/TN/FN/accuracy table layout."""
    if fmt == "text":
        return _render_text(report)
    if fmt == "csv":
        return _render_csv(report)
    raise ConfigError(f"unknown report format '{fmt}'")


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
            f"  {row.model.display_name}: converged={'yes' if row.converged else 'no'}"
            f" iterations={row.iterations}"
            f" separation={'yes' if row.separation_flag else 'no'}"
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
            f"{100.0 * row.accuracy:.2f},{str(row.converged).lower()},{row.iterations},"
            f"{str(row.separation_flag).lower()},{row.clamped_test_points}"
        )
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, fmt: str = "text", path: str | Path | None = None) -> str:
    text = render_report(report, fmt)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def emit_curves(config: ExperimentConfig, grid_points: int = 200) -> CurveBundle:
    """Fit per ``config`` and evaluate every model over an even delay grid.

    The grid spans the clamped B-spline domain, so each curve can be
    replotted without extrapolation.
    """
    if grid_points < 2:
        raise ConfigError("grid_points must be >= 2")
    report, fitted = _run(config)
    delays = np.linspace(*fitted.domain, grid_points)
    probabilities = {}
    for kind, model in fitted.models.items():
        dm = build_design_matrix(model.basis_spec, delays)
        probabilities[kind] = predict_prob(model, dm)
    return CurveBundle(delays, probabilities, report.config_digest)


def write_curves_csv(bundle: CurveBundle, path: str | Path) -> None:
    Path(path).write_text(bundle.to_csv(), encoding="utf-8")


def _spec_to_dict(spec: SplineBasisSpec | None) -> dict | None:
    if spec is None:
        return None
    return {
        "kind": spec.kind.value,
        "degree": spec.degree,
        "interior_knots": list(spec.interior_knots.values),
        "domain": [spec.domain[0], spec.domain[1]],
    }


def _spec_from_dict(data: dict | None) -> SplineBasisSpec | None:
    if data is None:
        return None
    kinds = {k.value: k for k in BasisKind}
    if data.get("kind") not in kinds:
        raise ModelLoadError(f"unknown basis kind {data.get('kind')!r}")
    return SplineBasisSpec(
        kind=kinds[data["kind"]],
        degree=int(data["degree"]),
        interior_knots=KnotVector(tuple(data["interior_knots"])),
        domain=(float(data["domain"][0]), float(data["domain"][1])),
    )


def save_model(model: LogisticModel, path: str | Path) -> None:
    """Persist a fitted model with its basis spec as canonical JSON."""
    doc = {
        "format": MODEL_FILE_FORMAT,
        "version": MODEL_FILE_VERSION,
        "intercept": model.intercept,
        "coefficients": list(model.coefficients),
        "converged": model.converged,
        "iterations": model.iterations,
        "separation_flag": model.separation_flag,
        "basis": _spec_to_dict(model.basis_spec),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LogisticModel:
    """Load a model written by :func:`save_model`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ModelLoadError(f"cannot read model file {path}: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FILE_FORMAT:
        raise ModelLoadError(f"{path} is not a model file")
    if doc.get("version") != MODEL_FILE_VERSION:
        raise ModelLoadError(
            f"unsupported model file version {doc.get('version')!r}, expected {MODEL_FILE_VERSION}"
        )
    try:
        model = LogisticModel(
            intercept=float(doc["intercept"]),
            coefficients=tuple(float(c) for c in doc["coefficients"]),
            basis_spec=_spec_from_dict(doc["basis"]),
            converged=bool(doc["converged"]),
            iterations=int(doc["iterations"]),
            separation_flag=bool(doc["separation_flag"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ModelLoadError(f"corrupt model file {path}: {err}") from None
    if not math.isfinite(model.intercept) or not all(math.isfinite(c) for c in model.coefficients):
        raise ModelLoadError(f"corrupt model file {path}: non-finite coefficients")
    return model
