"""Design matrices over spline bases, logistic fitting, confusion metrics.

A design matrix is allocated once and its basis columns are filled by
``splines.basis_matrix``, block by block, so building one costs little
more memory than the matrix itself.

The fitter is iteratively reweighted least squares (Newton on the logit
link) with step halving, so the log-likelihood never decreases across
accepted iterations. Quasi-separated data is flagged, not rejected: once
any fitted probability leaves (1e-12, 1 - 1e-12) the iteration stops at
the current coefficients with ``separation_flag`` set.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataError, NumericalError, ShapeError
from .splines import SplineBasisSpec, basis_matrix

MAX_ITERATIONS = 50
LOGLIK_TOL = 1e-8
RIDGE_JITTER = 1e-8
SEPARATION_BAND = 1e-12
_PROB_CLIP = 1e-15
_COND_LIMIT = 1e12
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class DesignMatrix:
    """n x (1 + basis dimension) matrix whose leading column is all ones."""

    matrix: np.ndarray
    basis_spec: SplineBasisSpec | None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] < 1:
            raise ShapeError("design matrix must be 2-D with at least one row")
        if not np.all(m[:, 0] == 1.0):
            raise ShapeError("column 0 must be the intercept column of ones")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class LogisticModel:
    """Fitted intercept + coefficients over the basis columns."""

    intercept: float
    coefficients: tuple[float, ...]
    basis_spec: SplineBasisSpec | None
    converged: bool
    iterations: int
    separation_flag: bool


@dataclass(frozen=True)
class ConfusionMatrix:
    """TP/FP/TN/FN counts with attack as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def build_design_matrix(spec: SplineBasisSpec | None, x: Sequence[float]) -> DesignMatrix:
    """Basis-expand ``x`` and prepend the intercept column.

    ``spec=None`` is the plain-logistic baseline whose sole feature column
    is the raw predictor. Spline bases come from ``basis_matrix``, which
    evaluates whole arrays block by block straight into this matrix and
    matches the scalar ``bspline_blend`` bit for bit. Out-of-domain input
    raises ``OutOfDomainError`` and non-finite entries ``NumericalError``,
    each naming the first offending row.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise EmptyDataError("design matrix needs at least one predictor value")
    m = np.empty((xs.size, 2 if spec is None else 1 + spec.dimension))
    m[:, 0] = 1.0
    if spec is None:
        m[:, 1] = xs
    else:
        basis_matrix(spec, xs, out=m[:, 1:])
    if not np.all(np.isfinite(m)):
        i = int(np.argmin(np.all(np.isfinite(m), axis=1)))
        problem = "basis value overflows" if np.isfinite(xs[i]) else "predictor is not finite"
        raise NumericalError(f"row {i}: {problem} for x={xs[i]}")
    return DesignMatrix(m, spec)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _log_likelihood(y: np.ndarray, p: np.ndarray) -> float:
    q = np.clip(p, SEPARATION_BAND, 1.0 - SEPARATION_BAND)
    return float(np.sum(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)))


def _newton_step(hessian: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    # near-singular normal equations (e.g. intercept + partition-of-unity
    # columns) get one ridge-jittered retry
    try:
        if np.linalg.cond(hessian) < _COND_LIMIT:
            return np.linalg.solve(hessian, gradient)
    except np.linalg.LinAlgError:
        pass
    jittered = hessian + RIDGE_JITTER * np.eye(hessian.shape[0])
    try:
        return np.linalg.solve(jittered, gradient)
    except np.linalg.LinAlgError:
        raise NumericalError("weighted normal equations singular even after ridge jitter")


@dataclass
class IrlsTrace:
    beta: np.ndarray
    converged: bool
    iterations: int
    separated: bool
    loglik: float
    loglik_history: list[float]


def irls(matrix: np.ndarray, y: np.ndarray) -> IrlsTrace:
    """Run IRLS from beta = 0, returning the full iteration trace."""
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(x.shape[1])
    p = _sigmoid(x @ beta)
    ll = _log_likelihood(y, p)
    history = [ll]
    converged = False
    separated = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        gradient = x.T @ (y - p)
        weights = p * (1.0 - p)
        with np.errstate(over="ignore", invalid="ignore"):  # checked on the next line
            hessian = (x * weights[:, None]).T @ x
        if not np.all(np.isfinite(hessian)):
            raise NumericalError("non-finite IRLS working quantities")
        delta = _newton_step(hessian, gradient)

        step = 1.0
        for _ in range(_MAX_HALVINGS):
            beta_new = beta + step * delta
            p_new = _sigmoid(x @ beta_new)
            ll_new = _log_likelihood(y, p_new)
            if ll_new >= ll:
                break
            step *= 0.5
        else:
            converged = True  # no ascent direction left: stationary
            break

        beta, p = beta_new, p_new
        history.append(ll_new)
        if np.any(p <= SEPARATION_BAND) or np.any(p >= 1.0 - SEPARATION_BAND):
            separated = True
            break
        if abs(ll_new - ll) < LOGLIK_TOL:
            ll = ll_new
            converged = True
            break
        ll = ll_new

    return IrlsTrace(beta, converged, iterations, separated, history[-1], history)


def fit_logistic(dm: DesignMatrix, labels: Sequence[int]) -> LogisticModel:
    """Maximum-likelihood logistic fit of binary ``labels`` on ``dm``.

    Single-class label vectors are not an error; they drive the fit into
    the separation stop and come back flagged.
    """
    y = np.asarray(labels, dtype=float)
    if y.ndim != 1 or y.size != dm.n_rows:
        raise ShapeError(f"labels length {y.size} != design rows {dm.n_rows}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")

    trace = irls(dm.matrix, y)
    # a single-class label vector is separated by definition, even if the
    # likelihood plateaus before probabilities reach the band
    single_class = bool(np.all(y == y[0]))
    return LogisticModel(
        intercept=float(trace.beta[0]),
        coefficients=tuple(float(b) for b in trace.beta[1:]),
        basis_spec=dm.basis_spec,
        converged=trace.converged,
        iterations=trace.iterations,
        separation_flag=trace.separated or single_class,
    )


def predict_prob(model: LogisticModel, dm: DesignMatrix) -> np.ndarray:
    """Per-row probability sigma(intercept + row . coefficients), kept inside (0, 1)."""
    if dm.n_cols != 1 + len(model.coefficients):
        raise ShapeError(
            f"design has {dm.n_cols} columns, model expects {1 + len(model.coefficients)}"
        )
    beta = np.concatenate([[model.intercept], model.coefficients])
    p = _sigmoid(dm.matrix @ beta)
    return np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)


def classify(probs: Sequence[float], threshold: float = 0.5) -> np.ndarray:
    """Hard labels: attack (1) iff p >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return (np.asarray(probs, dtype=float) >= threshold).astype(int)


def confusion_matrix(predicted: Sequence[int], actual: Sequence[int]) -> ConfusionMatrix:
    pred = np.asarray(predicted, dtype=int)
    act = np.asarray(actual, dtype=int)
    if pred.shape != act.shape:
        raise ShapeError(f"predicted {pred.shape} and actual {act.shape} differ")
    if not (np.all((pred == 0) | (pred == 1)) and np.all((act == 0) | (act == 1))):
        raise ValueError("labels must be 0 or 1")
    return ConfusionMatrix(
        tp=int(np.sum((pred == 1) & (act == 1))),
        fp=int(np.sum((pred == 1) & (act == 0))),
        tn=int(np.sum((pred == 0) & (act == 0))),
        fn=int(np.sum((pred == 0) & (act == 1))),
    )


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyDataError("accuracy of an empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total
