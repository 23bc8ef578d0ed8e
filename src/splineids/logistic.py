"""Design matrices over spline bases, logistic fitting, confusion metrics.

A design matrix is allocated once and its basis columns are filled by
``splines.basis_matrix``, block by block, so building one costs little
more memory than the matrix itself. ``build_design_matrix`` writes the
intercept column itself and checks the entries for non-finite values.

The fitter is iteratively reweighted least squares (Newton on the logit
link) with step halving, so the log-likelihood never decreases across
accepted iterations. It fits grouped binomial data: row i of the design
stands for ``n_i`` trials at one predictor value, ``y_i`` of them
successes. Rows that share a value may be grouped this way without
changing the log-likelihood, its gradient or its Hessian, so the fit is
the one on the rows one by one; ``experiment.fit_sample`` fits each model
on the distinct training delays as (trials, successes). Without trials,
each row is one trial and ``y`` holds 0/1 labels.

Each step is one minimum-norm solve of the weighted normal equations
(``np.linalg.lstsq``) with no ridge retry; it is exact for the
rank-deficient design of an intercept plus a partition-of-unity B-spline
basis. The log-likelihood the step compares is the unclipped
``y.eta - n.softplus(eta)``. The one reported for the returned
coefficients is ``-sum(y softplus(-eta) + (n - y) softplus(eta))``: the
same value, as a sum of nonnegative terms, which does not cancel on
near-separated fits.

Once any fitted probability reaches the band (p <= 1e-12 or
p >= 1 - 1e-12) the iteration stops at the current coefficients with
``separation_flag`` set. The flag means only that a probability reached
the band; it is no proof of separation: plain logistic regression on
overlapping classes can get it too.

Every score of a fitted model, on test records, on scored files and on the
curve grid, goes through ``score_probabilities``. It scores a spline model
from its local polynomial pieces (``LogisticModel.pieces``), with no design
matrix, when every |x| lies within the pieces' reach, where the design
path's predictor is provably finite, and their predictor comes out finite;
otherwise, and for the plain model, it scores through
``build_design_matrix`` and ``predict_prob``, which raise or clip as they do
for any input. Both paths end in the same ``clipped_sigmoid``.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyDataError, InsufficientDataError, NumericalError, ShapeError
from .splines import BasisKind, SplineBasisSpec, basis_matrix

MAX_ITERATIONS = 50
LOGLIK_TOL = 1e-8
SEPARATION_BAND = 1e-12
_PROB_CLIP = 1e-15
_MAX_HALVINGS = 30
# a bound on |eta| and on every design entry, far inside the float range, below which the design
# path's linear predictor is finite, rounding included
_ETA_LIMIT = 1e300
# per degree d, the d + 1 points on [0, 1] at which a B-spline piece's eta is sampled, and the inverse
# of their Vandermonde matrix, in exact rationals, which turns those samples into c_m * h**m on a piece
# of width h. The points are the Chebyshev extreme points (1 - cos(j pi / d)) / 2, in exact binary
# fractions; as they hold both breaks, c_0 is the design's eta at the left break. The constants are
# written out, not inverted on import, which would load LAPACK code that IRLS does not use
_PIECE_NODES = {1: np.array([0.0, 1.0]), 2: np.array([0.0, 0.5, 1.0]), 3: np.array([0.0, 0.25, 0.75, 1.0])}
_PIECE_INVERSE = {
    1: np.array([[1.0, 0.0], [-1.0, 1.0]]),
    2: np.array([[1.0, 0.0, 0.0], [-3.0, 4.0, -1.0], [2.0, -4.0, 2.0]]),
    3: np.array([[3, 0, 0, 0], [-19, 24, -8, 3], [32, -56, 40, -16], [-16, 32, -32, 16]]) / 3.0,
}


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
        if not (m[:, 0] == 1.0).all():
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

    @cached_property
    def pieces(self) -> tuple:
        """A spline model's linear predictor as local polynomial pieces, read-only, derived on first use.

        eta is one polynomial of the basis degree d on each piece between the
        domain ends and the interior knots (de Boor's pp-form). The tuple is
        (knots, left, coefficients, reach): the interior knots; each piece's
        left break; and the (d + 1) x pieces array whose row m holds c_m, so
        that eta(x) = sum_m c_m (x - left)**m on the piece
        ``np.searchsorted(knots, x, side="right")``. A truncated-power eta
        is that polynomial on the first and last pieces past the domain too,
        and its terms are expanded about each left break exactly; a B-spline
        eta is sampled on each piece (``_bspline_pieces``), as
        ``score_probabilities`` clamps its input to the domain. ``reach`` is a
        bound on |x| within which every design entry and |eta| stay below
        ``_ETA_LIMIT``, from max|beta|, the dimension and the domain, so the
        design path's eta is finite there; it is -inf, so that the pieces
        serve no input, when a coefficient is not finite. The instance keeps the arrays outside its dataclass
        fields, so model files, ``==`` and ``hash`` are unchanged.
        """
        spec = self.basis_spec
        lo, hi = spec.domain
        edge = max(abs(lo), abs(hi))
        beta = np.array((self.intercept, *self.coefficients))
        # every entry is at most (1 + |x| + edge)**d: |x|**j for j <= d, and (x - knot)_+**d for a knot
        # inside the domain; B-spline entries are at most 1. A NaN beta makes scale and reach NaN
        scale = float(np.max(np.abs(beta), initial=1.0))
        reach = (max(_ETA_LIMIT / scale - 1.0, 0.0) / spec.dimension) ** (1.0 / spec.degree) - 1.0 - edge
        knots = np.array(spec.interior_knots.values)
        breaks = np.concatenate(((lo,), knots, (hi,)))
        left = breaks[:-1]
        with np.errstate(all="ignore"):  # a non-finite coefficient sets reach to -inf below
            if spec.kind is BasisKind.TRUNCATED_POWER:
                coefficients = _truncated_power_pieces(beta, spec.degree, knots, left)
            else:
                coefficients = _bspline_pieces(spec, beta, breaks)
        if not np.isfinite(coefficients).all():
            reach = -math.inf
        for array in (knots, left, coefficients):
            array.setflags(write=False)
        return knots, left, coefficients, reach


def _truncated_power_pieces(beta: np.ndarray, d: int, knots: np.ndarray, left: np.ndarray) -> np.ndarray:
    """c_m of each piece, exactly: about the piece's left break L, x**j is sum_m C(j, m) L**(j - m) u**m,
    and (x - k)_+**d, on the pieces right of knot k, is sum_m C(d, m) (L - k)**(d - m) u**m."""
    gap = left[:, None] - knots  # pieces x knots
    on = gap >= 0.0
    rows = []
    for m in range(d + 1):
        row = sum(math.comb(j, m) * beta[j] * left ** (j - m) for j in range(m, d + 1))
        rows.append(row + math.comb(d, m) * (np.where(on, gap ** (d - m), 0.0) @ beta[d + 1 :]))
    return np.array(rows)


def _bspline_pieces(spec: SplineBasisSpec, beta: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """c_m of each piece from eta at the piece's ``_PIECE_NODES``, through ``basis_matrix``."""
    d = spec.degree
    s = _PIECE_NODES[d]
    # a convex combination with binary-fraction weights: each node lies on its piece, the end nodes
    # on the breaks themselves
    nodes = breaks[:-1, None] * (1.0 - s) + breaks[1:, None] * s
    eta = beta[0] + basis_matrix(spec, nodes.ravel()) @ beta[1:]
    return _PIECE_INVERSE[d] @ eta.reshape(nodes.shape).T / np.diff(breaks) ** np.arange(d + 1)[:, None]


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
    matches the scalar ``bspline_blend`` bit for bit. Out-of-domain input,
    NaN included for a B-spline basis, raises ``OutOfDomainError`` and
    non-finite entries ``NumericalError``, each naming the first offending
    row.
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
    finite = np.isfinite(m)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        problem = "basis value overflows" if np.isfinite(xs[i]) else "predictor is not finite"
        raise NumericalError(f"row {i}: {problem} for x={xs[i]}")
    return DesignMatrix(m, spec)


def _sigmoid(eta: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """sigma(eta) from ``e = exp(-|eta|)``, which never overflows."""
    if e is None:
        e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _loglik_and_prob(y: np.ndarray, n: float | np.ndarray, eta: np.ndarray) -> tuple[float, np.ndarray]:
    """Unclipped ``y.eta - n.logaddexp(0, eta)`` and sigma(eta), sharing one exp."""
    e = np.exp(-np.abs(eta))
    ll = float(y @ eta - (n * (np.maximum(eta, 0.0) + np.log1p(e))).sum())
    return ll, _sigmoid(eta, e)


def _exact_loglik(y: np.ndarray, n: float | np.ndarray, eta: np.ndarray) -> float:
    """``-sum(y softplus(-eta) + (n - y) softplus(eta))``, each softplus ``max(t, 0) + log1p(exp(-|t|))``."""
    log1p_e = np.log1p(np.exp(-np.abs(eta)))
    return -float((y * (np.maximum(-eta, 0.0) + log1p_e) + (n - y) * (np.maximum(eta, 0.0) + log1p_e)).sum())


@dataclass
class IrlsTrace:
    """An IRLS run: ``loglik`` is ``_exact_loglik`` at ``beta``; ``loglik_history`` holds what the step compared."""

    beta: np.ndarray
    converged: bool
    iterations: int
    separated: bool
    loglik: float
    loglik_history: list[float]


def irls(matrix: np.ndarray, y: np.ndarray, trials: np.ndarray | None = None) -> IrlsTrace:
    """Run IRLS from beta = 0 on ``y`` successes in ``trials`` (None: one a row), returning the full trace."""
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    n = 1.0 if trials is None else np.asarray(trials, dtype=float)  # a product by 1.0 is exact
    beta = np.zeros(x.shape[1])
    eta = x @ beta
    ll, p = _loglik_and_prob(y, n, eta)
    history = [ll]
    converged = False
    separated = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        mean = n * p
        gradient = x.T @ (y - mean)
        weights = mean * (1.0 - p)
        with np.errstate(over="ignore", invalid="ignore"):  # checked on the next line
            hessian = (x * weights[:, None]).T @ x
        if not np.isfinite(hessian).all():
            raise NumericalError("non-finite IRLS working quantities")
        delta = np.linalg.lstsq(hessian, gradient, rcond=None)[0]

        step = 1.0
        for _ in range(_MAX_HALVINGS):
            beta_new = beta + step * delta
            eta_new = x @ beta_new
            ll_new, p_new = _loglik_and_prob(y, n, eta_new)
            if ll_new >= ll:
                break
            step *= 0.5
        else:
            converged = True  # no ascent direction left: stationary
            break

        beta, eta, p = beta_new, eta_new, p_new
        history.append(ll_new)
        # an accepted p holds no NaN (a NaN log-likelihood fails ll_new >= ll),
        # so its extremes decide the band test
        if p.min() <= SEPARATION_BAND or p.max() >= 1.0 - SEPARATION_BAND:
            separated = True
            break
        if abs(ll_new - ll) < LOGLIK_TOL:
            converged = True
            break
        ll = ll_new

    return IrlsTrace(beta, converged, iterations, separated, _exact_loglik(y, n, eta), history)


def binary_labels(labels: Sequence[int]) -> np.ndarray:
    """``labels`` as floats, each of which must be 0 or 1."""
    y = np.asarray(labels, dtype=float)
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    return y


def fit_logistic(dm: DesignMatrix, labels: Sequence[int], trials: Sequence[int] | None = None) -> LogisticModel:
    """Maximum-likelihood logistic fit of binary ``labels`` on ``dm``.

    With ``trials``, row i of ``dm`` stands for ``trials[i]`` records and
    ``labels[i]`` counts the attacks among them, a whole number from 0 to
    ``trials[i]``; the fit is the one on those records row by row. Labels
    of one class (no attack, or only attacks) have no maximum-likelihood
    fit and raise :class:`InsufficientDataError`.
    """
    if trials is None:
        y, n = binary_labels(labels), 1.0
    else:
        y, n = np.asarray(labels, dtype=float), np.asarray(trials, dtype=float)
    if y.ndim != 1 or y.size != dm.n_rows:
        raise ShapeError(f"labels length {y.size} != design rows {dm.n_rows}")
    if np.shape(n) not in ((), y.shape):
        raise ShapeError(f"trials length {np.size(n)} != design rows {dm.n_rows}")
    if not ((0.0 <= y) & (y <= n) & (y == np.floor(y))).all():
        raise ValueError("successes must be whole numbers from 0 to their trials")
    if not y.any() or (y == n).all():
        raise InsufficientDataError(f"every training label is {int(y.any())}; a fit needs both classes, 0 and 1")

    trace = irls(dm.matrix, y, trials)
    return LogisticModel(
        intercept=float(trace.beta[0]),
        coefficients=tuple(float(b) for b in trace.beta[1:]),
        basis_spec=dm.basis_spec,
        converged=trace.converged,
        iterations=trace.iterations,
        separation_flag=trace.separated,
    )


def predict_prob(model: LogisticModel, dm: DesignMatrix) -> np.ndarray:
    """Per-row probability sigma(intercept + row . coefficients), kept inside (0, 1).

    A linear predictor that overflows to +-inf gives a clipped probability;
    the first row whose predictor is NaN raises ``NumericalError``.
    """
    if dm.n_cols != 1 + len(model.coefficients):
        raise ShapeError(
            f"design has {dm.n_cols} columns, model expects {1 + len(model.coefficients)}"
        )
    beta = np.array((model.intercept, *model.coefficients))
    with np.errstate(over="ignore", invalid="ignore"):
        eta = dm.matrix @ beta
    nan = np.isnan(eta)
    if nan.any():
        raise NumericalError(f"row {int(nan.argmax())}: linear predictor is not a number")
    return clipped_sigmoid(eta)


def clipped_sigmoid(eta: np.ndarray) -> np.ndarray:
    """sigma(eta) clipped to [1e-15, 1 - 1e-15]; a predictor of +-inf gives a clipped end."""
    p = _sigmoid(eta)
    return np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP, out=p)


def score_probabilities(model: LogisticModel, x: Sequence[float]) -> tuple[np.ndarray, int]:
    """``model``'s attack probabilities at delays ``x``, and how many inputs it clamped to its domain.

    Only a B-spline model clamps ``x`` to its domain; truncated-power end pieces extrapolate past it.
    The pieces score when they serve every x (see the module docstring), else the design does.
    """
    x = np.asarray(x, dtype=float)
    spec = model.basis_spec
    clamped = 0
    if spec is not None and spec.kind is BasisKind.BSPLINE:
        lo, hi = spec.domain
        clamped = int(np.sum((x < lo) | (x > hi)))
        x = np.clip(x, lo, hi)
    if spec is not None:
        knots, left, coefficients, reach = model.pieces
        # NaN fails both comparisons
        if x.ndim == 1 and x.size and -reach <= x.min() and x.max() <= reach:
            piece = np.searchsorted(knots, x, side="right")
            u = x - left[piece]
            eta = coefficients[-1][piece]
            with np.errstate(all="ignore"):  # a non-finite eta goes to the design path
                for c in coefficients[-2::-1]:
                    eta *= u
                    eta += c[piece]
            if np.isfinite(eta).all():
                return clipped_sigmoid(eta), clamped
    return predict_prob(model, build_design_matrix(spec, x)), clamped


def classify(probs: Sequence[float], threshold: float = 0.5) -> np.ndarray:
    """Hard labels: attack (1) iff p >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return (np.asarray(probs, dtype=float) >= threshold).astype(int)


def confusion_matrix(predicted: Sequence[int], actual: Sequence[int]) -> ConfusionMatrix:
    """Counts over every element of two equal-shape arrays of 0/1 labels."""
    pred = np.asarray(predicted, dtype=int)
    act = np.asarray(actual, dtype=int)
    if pred.shape != act.shape:
        raise ShapeError(f"predicted {pred.shape} and actual {act.shape} differ")
    # only 0 and 1 have no bit set but bit 0 (a negative int sets its high bits)
    if np.any((pred | act) & ~1):
        raise ValueError("labels must be 0 or 1")
    # cell 2 * predicted + actual: 0 tn, 1 fn, 2 fp, 3 tp
    tn, fn, fp, tp = np.bincount((2 * pred + act).ravel(), minlength=4).tolist()
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyDataError("accuracy of an empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total
