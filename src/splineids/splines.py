"""Knots, quantiles, interpolating spline constructors, and regression bases.

Piecewise polynomials are stored with coefficients of the global variable x
(a + b*x + c*x**2 + d*x**3), so coefficients can be read off directly for a
given interval. The interpolating constructors build each piece in local
form about its left break, and one expansion turns all pieces into global-x
rows at once. All evaluators treat the final breakpoint as included (closed
right edge).

Every regression-basis spec, truncated-power or B-spline, expands to the
clamped B-spline basis of its spline space, and that basis alone checks the
domain and the knots.

Regression bases are evaluated on whole arrays by ``basis_matrix``, a block
of rows at a time; its entries match the scalar references (``bspline_blend``
and Python's ``float ** int``) bit for bit. The kernels work on functions x
points and write the matrix through its transpose: a basis has only 1-9
functions, so a points-last layout gives each ufunc call one long inner loop
rather than one short loop per point.
"""

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadIndexError,
    DegenerateKnotsError,
    EmptySampleError,
    InsufficientDataError,
    InvalidAbscissaeError,
    OutOfDomainError,
)


@dataclass(frozen=True)
class KnotVector:
    """Nondecreasing sequence of real breakpoints."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValueError("knot vector must hold at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("knots must be finite")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("knots must be nondecreasing")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    @property
    def strictly_increasing(self) -> bool:
        return all(b > a for a, b in zip(self.values, self.values[1:]))


@dataclass(frozen=True)
class InterpolationData:
    """Interpolation nodes (x, y) with strictly increasing x."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise InsufficientDataError("interpolation needs at least two points")
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
            raise InvalidAbscissaeError("interpolation points must be finite")
        if any(pts[i + 1][0] <= pts[i][0] for i in range(len(pts) - 1)):
            raise InvalidAbscissaeError("x values must be strictly increasing")

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Interval-wise polynomial with rows (a, b, c, d), one per interval.

    Unused high-order slots hold zeros, e.g. a degree-2 fit stores d = 0.
    """

    breakpoints: KnotVector
    coefficients: tuple[tuple[float, float, float, float], ...]
    degree: int

    def __post_init__(self):
        rows = tuple(tuple(float(c) for c in row) for row in self.coefficients)
        object.__setattr__(self, "coefficients", rows)
        if self.degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        if not self.breakpoints.strictly_increasing:
            raise ValueError("breakpoints must be strictly increasing")
        if len(rows) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one coefficient row per interval")
        if any(len(row) != 4 for row in rows):
            raise ValueError("coefficient rows must be (a, b, c, d)")

    def piece_value(self, i: int, x: float) -> float:
        a, b, c, d = self.coefficients[i]
        return ((d * x + c) * x + b) * x + a

    def piece_derivative(self, i: int, x: float) -> float:
        _, b, c, d = self.coefficients[i]
        return (3.0 * d * x + 2.0 * c) * x + b

    def piece_second_derivative(self, i: int, x: float) -> float:
        _, _, c, d = self.coefficients[i]
        return 6.0 * d * x + 2.0 * c

    def continuity_defect(self, order: int = 0) -> float:
        """Largest left/right mismatch of the given derivative order at interior breakpoints."""
        eval_by_order = {
            0: self.piece_value,
            1: self.piece_derivative,
            2: self.piece_second_derivative,
        }
        f = eval_by_order[order]
        worst = 0.0
        for i in range(1, len(self.breakpoints) - 1):
            x = self.breakpoints[i]
            worst = max(worst, abs(f(i - 1, x) - f(i, x)))
        return worst


def quantile(sample: Sequence[float], p: float) -> float:
    """Linearly interpolated quantile of ``sample`` at probability ``p``.

    Sorts ascending and interpolates between adjacent order statistics:
    with h = (n-1)*p the result is s[floor(h)] + (h-floor(h)) *
    (s[floor(h)+1] - s[floor(h)]). Returns the minimum at p=0 and the
    maximum at p=1.
    """
    n = len(sample)
    if n == 0:
        raise EmptySampleError("quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return _sorted_quantile(sorted(float(v) for v in sample), p)


def _sorted_quantile(s: Sequence[float], p: float) -> float:
    h = (len(s) - 1) * p
    lo = math.floor(h)
    frac = h - lo
    if frac == 0.0:
        return s[lo]
    # min() guards the one-ulp lerp overshoot near the segment's right end
    return min(s[lo] + frac * (s[lo + 1] - s[lo]), s[lo + 1])


def quantile_knots(sample: Sequence[float], probs: Sequence[float]) -> KnotVector:
    """Knot vector at the given sample quantiles (must come out strictly increasing).

    The sample is sorted once; each knot equals ``quantile(sample, p)``.
    """
    probs = tuple(float(p) for p in probs)
    if not probs:
        raise ValueError("probs must be nonempty")
    if any(not 0.0 < p < 1.0 for p in probs):
        raise ValueError("probs must lie strictly inside (0, 1)")
    if any(q <= p for p, q in zip(probs, probs[1:])):
        raise ValueError("probs must be strictly increasing")
    if len(sample) == 0:
        raise EmptySampleError("quantile of an empty sample")
    # a stable sort orders ties (0.0, -0.0) as sorted() does in quantile(); the memoryview hands
    # out only the order statistics a knot reads, each as a Python float
    s = memoryview(np.sort(np.asarray(sample, dtype=float), kind="stable"))
    knots = [_sorted_quantile(s, p) for p in probs]
    if any(b <= a for a, b in zip(knots, knots[1:])):
        raise DegenerateKnotsError(
            f"quantiles {probs} of the sample coincide: {knots}"
        )
    return KnotVector(tuple(knots))


def _from_local_pieces(xs, ys, b, c, d, degree: int) -> PiecewisePolynomial:
    """The piecewise polynomial whose piece i is ys[i] + b*u + c*u**2 + d*u**3, u = x - xs[i].

    Expands every local piece about its left break to global-x (a, b, c, d)
    rows at once; ``b``, ``c`` and ``d`` hold one entry per interval.
    """
    x0 = xs[:-1]
    rows = np.column_stack(
        (ys[:-1] - x0 * (b - x0 * (c - x0 * d)), b - x0 * (2.0 * c - 3.0 * d * x0), c - 3.0 * d * x0, d)
    )
    return PiecewisePolynomial(KnotVector(tuple(xs)), rows.tolist(), degree)


def fit_quadratic_spline(data: InterpolationData) -> PiecewisePolynomial:
    """Interpolating quadratic spline, C1 at interior nodes, linear final piece.

    The construction propagates node slopes m from the right: the last
    interval has zero curvature, so m[-1] is its secant, and each earlier
    piece matches its right neighbour's slope at the shared node, which gives
    m[i] = 2*secant[i] - m[i+1] and the quadratic coefficient
    (secant[i] - m[i])/h[i].
    """
    if len(data.points) < 3:
        raise InsufficientDataError("quadratic spline needs at least 3 points")
    xs = np.asarray(data.xs, dtype=float)
    ys = np.asarray(data.ys, dtype=float)
    h = np.diff(xs)
    secant = np.diff(ys) / h
    m = secant.copy()
    for i in range(len(m) - 2, -1, -1):
        m[i] = 2.0 * secant[i] - m[i + 1]
    return _from_local_pieces(xs, ys, m, (secant - m) / h, np.zeros_like(h), degree=2)


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Thomas algorithm for a tridiagonal system; inputs are copied."""
    n = len(diag)
    b = np.array(diag, dtype=float)
    c = np.array(upper, dtype=float)
    d = np.array(rhs, dtype=float)
    for i in range(1, n):
        w = lower[i - 1] / b[i - 1]
        b[i] -= w * c[i - 1]
        d[i] -= w * d[i - 1]
    x = np.empty(n)
    x[-1] = d[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - c[i] * x[i + 1]) / b[i]
    return x


def fit_natural_cubic_spline(data: InterpolationData) -> PiecewisePolynomial:
    """Natural interpolating cubic spline via the second-derivative system.

    Interior second derivatives M_i solve the tridiagonal system

        h[i-1]*M[i-1] + 2*(h[i-1]+h[i])*M[i] + h[i]*M[i+1]
            = 6*((y[i+1]-y[i])/h[i] - (y[i]-y[i-1])/h[i-1])

    with M[0] = M[n] = 0. About its left break, piece i has the slope
    secant[i] - h[i]*(2*M[i] + M[i+1])/6, the quadratic coefficient M[i]/2
    and the cubic coefficient (M[i+1] - M[i])/(6*h[i]).
    """
    if len(data.points) < 3:
        raise InsufficientDataError("cubic spline needs at least 3 points")
    xs = np.asarray(data.xs, dtype=float)
    ys = np.asarray(data.ys, dtype=float)
    h = np.diff(xs)
    secant = np.diff(ys) / h
    off = h[1:-1]
    m = np.zeros(len(xs))
    m[1:-1] = _solve_tridiagonal(off, 2.0 * (h[:-1] + h[1:]), off, 6.0 * np.diff(secant))
    b = secant - h * (2.0 * m[:-1] + m[1:]) / 6.0
    return _from_local_pieces(xs, ys, b, m[:-1] / 2.0, np.diff(m) / (6.0 * h), degree=3)


def eval_piecewise(poly: PiecewisePolynomial, x: float) -> float:
    """Evaluate ``poly`` at ``x``; the final breakpoint belongs to the last piece, and NaN lies outside."""
    bp = poly.breakpoints.values
    if not bp[0] <= x <= bp[-1]:
        raise OutOfDomainError(f"x={x} outside [{bp[0]}, {bp[-1]}]")
    i = bisect.bisect_right(bp, x) - 1
    if i == len(bp) - 1:
        i -= 1
    return poly.piece_value(i, x)


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped B-spline basis: order k, boundary knots repeated k times."""

    order: int
    extended_knots: KnotVector

    def __post_init__(self):
        k = self.order
        t = self.extended_knots.values
        if k < 1:
            raise ValueError("order must be >= 1")
        if len(t) < 2 * k:
            raise ValueError("extended knot vector too short for this order")
        if len(set(t[:k])) != 1 or len(set(t[-k:])) != 1:
            raise ValueError("boundary knots must each repeat `order` times")
        if t[k - 1] >= t[len(t) - k]:
            raise ValueError("clamped domain must have positive width")

    @classmethod
    def clamped(cls, order: int, interior: Iterable[float], domain: tuple[float, float]) -> "BSplineBasis":
        lo, hi = float(domain[0]), float(domain[1])
        interior = tuple(float(v) for v in interior)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("domain must be finite with min < max")
        if not math.isfinite(hi - lo):
            raise ValueError("domain width max - min must be finite")
        if any(b <= a for a, b in zip(interior, interior[1:])):
            raise ValueError("interior knots must be strictly increasing")
        if any(not lo < v < hi for v in interior):
            raise ValueError("interior knots must lie strictly inside the domain")
        return cls(order, KnotVector((lo,) * order + interior + (hi,) * order))

    @property
    def n_functions(self) -> int:
        return len(self.extended_knots) - self.order


def _blend(t: tuple[float, ...], i: int, k: int, x: float) -> float:
    # two-term recursion, any 0/0 term defined as 0 (repeated clamped knots)
    if k == 1:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    value = 0.0
    den = t[i + k - 1] - t[i]
    if den != 0.0:
        value += (x - t[i]) / den * _blend(t, i, k - 1, x)
    den = t[i + k] - t[i + 1]
    if den != 0.0:
        value += (t[i + k] - x) / den * _blend(t, i + 1, k - 1, x)
    return value


def bspline_blend(basis: BSplineBasis, i: int, k: int, t: float) -> float:
    """Normalized blending value N_{i,k}(t) on the basis's extended knots.

    ``k`` is the order: k=1 gives the half-open interval indicator, higher
    orders follow the two-term recursion with the 0/0 := 0 convention.
    """
    if k < 1:
        raise BadIndexError(f"order k must be >= 1, got {k}")
    n_funcs = len(basis.extended_knots) - k
    if not 0 <= i < n_funcs:
        raise BadIndexError(f"index {i} out of range for order {k} ({n_funcs} functions)")
    return _blend(basis.extended_knots.values, i, k, float(t))


class BasisKind(Enum):
    TRUNCATED_POWER = "truncated_power"
    BSPLINE = "bspline"


@dataclass(frozen=True)
class SplineBasisSpec:
    """Declarative description of a regression basis over one predictor.

    Either kind spans the splines of ``degree`` on ``interior_knots`` over
    ``domain`` and expands to that space's clamped B-spline basis
    (``bspline_basis``), which checks the domain and the knots. B-spline
    bases are clamped to ``domain``; truncated-power bases evaluate outside
    it. Dimension excludes the intercept: degree + #knots for
    truncated-power, #knots + degree + 1 for B-splines.
    """

    kind: BasisKind
    degree: int
    interior_knots: KnotVector
    domain: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))
        if self.degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        self.bspline_basis()  # checks the domain and the knots

    @property
    def dimension(self) -> int:
        n_knots = len(self.interior_knots)
        if self.kind is BasisKind.TRUNCATED_POWER:
            return self.degree + n_knots
        return n_knots + self.degree + 1

    def bspline_basis(self) -> BSplineBasis:
        """The clamped B-spline basis of this spec's spline space, of either kind; it checks the domain and knots."""
        return BSplineBasis.clamped(self.degree + 1, self.interior_knots.values, self.domain)

    @cached_property
    def kernel_constants(self) -> tuple:
        """The basis kernel's per-spec arrays, read-only, computed on first use.

        Truncated powers: the exponent column (1, ..., d) and the knot
        column. B-splines: the extended-knot column and, for each order
        k = 2, ..., degree + 1, a pair of arrays: the left and the right
        denominators, each with 0 replaced by 1. The instance keeps
        them outside its dataclass fields, so ``==``, ``hash`` and the
        fields are unchanged.
        """
        if self.kind is BasisKind.TRUNCATED_POWER:
            return _read_only(np.arange(1, self.degree + 1)[:, None]), _read_only(
                np.asarray(self.interior_knots.values)[:, None]
            )
        t = np.asarray(self.bspline_basis().extended_knots.values)
        levels = []
        for k in range(2, self.degree + 2):
            m = len(t) - k
            dens = (t[k - 1 : k - 1 + m] - t[:m], t[k : k + m] - t[1 : 1 + m])
            levels.append(tuple(_read_only(np.where(den == 0.0, 1.0, den)[:, None]) for den in dens))
        return _read_only(t[:, None]), tuple(levels)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# rows per kernel pass: the temporaries stay small next to a 100k-row matrix
_BLOCK_ROWS = 2048


def _truncated_power_block(spec: SplineBasisSpec, x: np.ndarray, out: np.ndarray) -> None:
    # np.float_power calls C pow() as Python's float ** int does; np.power
    # takes a multiply shortcut for small integer exponents that can differ
    # by one ulp
    d = spec.degree
    exponents, knots = spec.kernel_constants
    np.float_power(x, exponents, out=out.T[:d])
    np.float_power(np.maximum(x - knots, 0.0), d, out=out.T[d:])


def _bspline_block(spec: SplineBasisSpec, x: np.ndarray, out: np.ndarray) -> None:
    # Cox-de Boor over every x and every function at once, with _blend's
    # arithmetic and no masks. It equals _blend bit for bit, signed zeros
    # included: every N is nonnegative and never -0.0; a zero denominator
    # (stored as 1) only meets an N that is exactly 0, as its support is
    # empty; the two terms are both -0.0 only if x < t_i and x > t_{i+k},
    # which cannot happen, so each sum is the +0.0 that _blend returns
    tc, levels = spec.kernel_constants
    n = ((tc[:-1] <= x) & (x < tc[1:])).astype(float)
    for k, (left_den, right_den) in enumerate(levels, start=2):
        m = len(tc) - k
        n_next = (x - tc[:m]) / left_den * n[:m]
        n_next += (tc[k : k + m] - x) / right_den * n[1 : 1 + m]
        n = n_next
    out.T[:] = n
    # the exact right domain edge evaluates as the left limit; there every
    # half-open level-1 indicator is 0, so its row is already all +0.0
    out[x == spec.domain[1], -1] = 1.0


def basis_matrix(spec: SplineBasisSpec, xs: Sequence[float], out: np.ndarray | None = None) -> np.ndarray:
    """Regression-basis values (intercept not included), one row per x.

    The kernel works on whole arrays, ``_BLOCK_ROWS`` rows at a time, and
    writes each block straight into ``out`` (allocated when None), so its
    temporaries do not grow with len(xs). The temporaries are functions x
    points and each block is written through ``out``'s transpose, so numpy's
    inner loops run along the block's points, not along a basis's 1-9
    functions, which costs one loop per point. The kernel's constants
    (``SplineBasisSpec.kernel_constants``) are computed once per spec
    object, on its first call, so the blocks do only per-point arithmetic;
    reuse a spec to reuse them. It matches the scalar
    references bit for bit: truncated-power entries are Python's ``x**j`` and
    ``max(x - k, 0.0)**d``; B-spline rows are ``bspline_blend`` of every
    function, except that the exact right domain edge gives the unit last
    row (the left limit), so every row sums to 1. Entries that overflow are
    inf. B-spline input outside the domain, NaN included, raises
    ``OutOfDomainError`` naming the first offending row.
    """
    x = np.asarray(xs, dtype=float)
    if spec.kind is BasisKind.TRUNCATED_POWER:
        kernel = _truncated_power_block
    else:
        kernel = _bspline_block
        lo, hi = spec.domain
        outside = np.flatnonzero(~((lo <= x) & (x <= hi)))  # NaN too
        if outside.size:
            i = outside[0]
            raise OutOfDomainError(f"row {i}: x={x[i]} outside B-spline domain [{lo}, {hi}]")
    if out is None:
        out = np.empty((x.size, spec.dimension))
    with np.errstate(over="ignore"):
        for start in range(0, x.size, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            kernel(spec, x[start:stop], out[start:stop])
    return out


def basis_row(spec: SplineBasisSpec, x: float) -> np.ndarray:
    """Regression-basis values at ``x``: the one-row case of ``basis_matrix``.

    Truncated-power entries: (x, ..., x**d, (x-k_1)_+**d, ..., (x-k_K)_+**d).
    B-spline entries: (N_0k(x), ..., N_nk(x)); the exact right domain edge
    evaluates as the left-limit so the row still sums to 1.
    """
    return basis_matrix(spec, [float(x)])[0]
