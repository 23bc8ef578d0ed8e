import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineids.errors import (
    BadIndexError,
    DegenerateKnotsError,
    EmptySampleError,
    InsufficientDataError,
    InvalidAbscissaeError,
    OutOfDomainError,
)
from splineids.experiment import save_model
from splineids.logistic import LogisticModel
from splineids.splines import (
    _BLOCK_ROWS,
    BasisKind,
    BSplineBasis,
    InterpolationData,
    KnotVector,
    PiecewisePolynomial,
    SplineBasisSpec,
    basis_matrix,
    basis_row,
    bspline_blend,
    eval_piecewise,
    fit_natural_cubic_spline,
    fit_quadratic_spline,
    quantile,
    quantile_knots,
)


# ---------------------------------------------------------------------------
# independent oracles: dense solves of the full condition systems, kept apart
# from the production constructors (which propagate slopes / solve moments)

def dense_quadratic_oracle(xs, ys):
    """Solve interpolation + C1 + zero-final-curvature conditions directly."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    n = len(xs) - 1
    a = np.zeros((3 * n, 3 * n))
    r = np.zeros(3 * n)
    row = 0
    for i in range(n):
        for xv, yv in ((xs[i], ys[i]), (xs[i + 1], ys[i + 1])):
            a[row, 3 * i : 3 * i + 3] = (1.0, xv, xv * xv)
            r[row] = yv
            row += 1
    for i in range(n - 1):
        xv = xs[i + 1]
        a[row, 3 * i + 1 : 3 * i + 3] = (1.0, 2.0 * xv)
        a[row, 3 * (i + 1) + 1 : 3 * (i + 1) + 3] = (-1.0, -2.0 * xv)
        row += 1
    a[row, 3 * (n - 1) + 2] = 1.0
    return np.linalg.solve(a, r).reshape(n, 3)


def dense_natural_cubic_oracle(xs, ys):
    """Solve interpolation + C1 + C2 + natural-boundary conditions directly."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    n = len(xs) - 1
    a = np.zeros((4 * n, 4 * n))
    r = np.zeros(4 * n)
    row = 0
    for i in range(n):
        for xv, yv in ((xs[i], ys[i]), (xs[i + 1], ys[i + 1])):
            a[row, 4 * i : 4 * i + 4] = (1.0, xv, xv * xv, xv**3)
            r[row] = yv
            row += 1
    for i in range(n - 1):
        xv = xs[i + 1]
        a[row, 4 * i + 1 : 4 * i + 4] = (1.0, 2.0 * xv, 3.0 * xv * xv)
        a[row, 4 * (i + 1) + 1 : 4 * (i + 1) + 4] = (-1.0, -2.0 * xv, -3.0 * xv * xv)
        row += 1
        a[row, 4 * i + 2 : 4 * i + 4] = (2.0, 6.0 * xv)
        a[row, 4 * (i + 1) + 2 : 4 * (i + 1) + 4] = (-2.0, -6.0 * xv)
        row += 1
    a[row, 2:4] = (2.0, 6.0 * xs[0])
    row += 1
    a[row, 4 * (n - 1) + 2 : 4 * (n - 1) + 4] = (2.0, 6.0 * xs[-1])
    return np.linalg.solve(a, r).reshape(n, 4)


def interp(points):
    return InterpolationData(tuple(points))


def spaced_abscissae(rng, n, lo, hi, min_gap):
    # global-x coefficients are ill-conditioned for tiny intervals, so random
    # datasets keep a sane node spacing
    while True:
        xs = np.sort(rng.uniform(lo, hi, n))
        if np.all(np.diff(xs) >= min_gap):
            return xs


# ---------------------------------------------------------------------------
# quantiles and knots

class TestQuantile:
    def test_median_of_1_to_100(self):
        assert quantile(range(1, 101), 0.5) == pytest.approx(50.5, abs=1e-12)

    def test_single_element(self):
        assert quantile([7], 0.9) == 7

    def test_p_zero_is_minimum(self):
        assert quantile([3, 1, 2], 0.0) == 1

    def test_p_one_is_maximum(self):
        assert quantile([3, 1, 2], 1.0) == 3

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            quantile([], 0.5)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([1, 2], 1.5)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.floats(0.0, 1.0),
    )
    def test_matches_numpy_linear_method(self, sample, p):
        assert quantile(sample, p) == pytest.approx(
            float(np.quantile(sample, p, method="linear")), rel=1e-12, abs=1e-9
        )

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_monotone_in_p(self, sample, p, q):
        p, q = min(p, q), max(p, q)
        assert quantile(sample, p) <= quantile(sample, q)


class TestQuantileKnots:
    def test_quartiles_of_1_to_100(self):
        kv = quantile_knots(range(1, 101), (0.25, 0.50, 0.75))
        assert kv.values == pytest.approx((25.75, 50.5, 75.25), abs=1e-12)

    def test_constant_sample_degenerates(self):
        with pytest.raises(DegenerateKnotsError):
            quantile_knots([5, 5, 5, 5], (0.25, 0.50, 0.75))

    def test_single_prob_is_median(self):
        sample = [9.0, 2.0, 4.0, 7.0, 1.0]
        kv = quantile_knots(sample, (0.5,))
        assert kv.values == (quantile(sample, 0.5),)

    def test_probs_must_increase_within_unit_interval(self):
        with pytest.raises(ValueError):
            quantile_knots([1, 2, 3], (0.5, 0.25))
        with pytest.raises(ValueError):
            quantile_knots([1, 2, 3], (0.0, 0.5))

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            quantile_knots([], (0.5,))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=5, unique=True),
    )
    def test_sorting_once_matches_quantile_exactly(self, sample, probs):
        # float.hex tells -0.0 from 0.0, so this is bit-for-bit
        probs = sorted(probs)
        want = tuple(quantile(sample, p) for p in probs)
        if any(b <= a for a, b in zip(want, want[1:])):
            with pytest.raises(DegenerateKnotsError):
                quantile_knots(sample, probs)
        else:
            got = quantile_knots(sample, probs).values
            assert [v.hex() for v in got] == [v.hex() for v in want]


class TestKnotVector:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            KnotVector((2.0, 1.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KnotVector(())

    def test_allows_ties(self):
        kv = KnotVector((0.0, 0.0, 1.0))
        assert not kv.strictly_increasing


# ---------------------------------------------------------------------------
# interpolating constructors

class TestQuadraticSpline:
    def test_worked_example_exact(self):
        poly = fit_quadratic_spline(interp([(-1, 0), (0, 1), (1, 3)]))
        a1, b1, c1, d1 = poly.coefficients[0]
        a2, b2, c2, d2 = poly.coefficients[1]
        assert abs(a1 - 1) < 1e-12 and abs(b1 - 2) < 1e-12 and abs(c1 - 1) < 1e-12
        assert abs(a2 - 1) < 1e-12 and abs(b2 - 2) < 1e-12 and abs(c2) < 1e-12
        assert d1 == 0.0 and d2 == 0.0

    def test_collinear_data_gives_the_line(self):
        poly = fit_quadratic_spline(interp([(0, 0), (1, 1), (2, 2)]))
        for row in poly.coefficients:
            assert row == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-12)

    def test_against_dense_oracle(self):
        xs, ys = [0, 1, 2, 3], [0, 1, 4, 9]
        poly = fit_quadratic_spline(interp(zip(xs, ys)))
        expected = dense_quadratic_oracle(xs, ys)
        # frozen from the oracle: (0,1,0), (2,-3,2), (-6,5,0)
        assert expected == pytest.approx(
            np.array([[0.0, 1.0, 0.0], [2.0, -3.0, 2.0], [-6.0, 5.0, 0.0]]), abs=1e-12
        )
        got = np.array([row[:3] for row in poly.coefficients])
        assert got == pytest.approx(expected, abs=1e-10)

    def test_random_data_against_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs = spaced_abscissae(rng, 5, -4, 4, 0.3)
            ys = rng.uniform(-5, 5, 5)
            poly = fit_quadratic_spline(interp(zip(xs, ys)))
            got = np.array([row[:3] for row in poly.coefficients])
            assert got == pytest.approx(dense_quadratic_oracle(xs, ys), rel=1e-8, abs=1e-8)

    def test_final_piece_curvature_is_exactly_zero(self):
        poly = fit_quadratic_spline(interp([(0, 0), (1, 5), (2, -1), (4, 2)]))
        assert poly.coefficients[-1][2] == 0.0

    def test_continuity_and_interpolation(self):
        xs, ys = [0.0, 0.7, 1.1, 2.5, 3.0], [1.0, -2.0, 0.5, 4.0, 4.2]
        poly = fit_quadratic_spline(interp(zip(xs, ys)))
        assert poly.continuity_defect(0) < 1e-9
        assert poly.continuity_defect(1) < 1e-9
        for x, y in zip(xs, ys):
            assert eval_piecewise(poly, x) == pytest.approx(y, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_quadratic_spline(interp([(0, 0), (1, 1)]))


class TestNaturalCubicSpline:
    def test_midpoint_value_from_moment_system(self):
        poly = fit_natural_cubic_spline(interp([(0, 0), (1, 1), (2, 0)]))
        assert eval_piecewise(poly, 0.5) == pytest.approx(0.6875, abs=1e-12)

    def test_collinear_data_gives_the_line(self):
        poly = fit_natural_cubic_spline(interp([(0, 0), (1, 1), (2, 2)]))
        assert eval_piecewise(poly, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_exact_at_nodes(self):
        poly = fit_natural_cubic_spline(interp([(0, 0), (1, 1), (2, 0)]))
        assert eval_piecewise(poly, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_random_data_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            xs = spaced_abscissae(rng, 6, -4, 4, 0.3)
            ys = rng.uniform(-5, 5, 6)
            poly = fit_natural_cubic_spline(interp(zip(xs, ys)))
            got = np.array(poly.coefficients)
            assert got == pytest.approx(dense_natural_cubic_oracle(xs, ys), rel=1e-7, abs=1e-7)

    def test_interpolation_continuity_and_natural_boundary(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            xs = spaced_abscissae(rng, 6, 0, 10, 0.3)
            ys = rng.uniform(-5, 5, 6)
            poly = fit_natural_cubic_spline(interp(zip(xs, ys)))
            for x, y in zip(xs, ys):
                assert eval_piecewise(poly, x) == pytest.approx(y, abs=1e-9)
            assert poly.continuity_defect(0) < 1e-9
            assert poly.continuity_defect(1) < 1e-9
            assert poly.continuity_defect(2) < 1e-9
            assert abs(poly.piece_second_derivative(0, xs[0])) < 1e-9
            assert abs(poly.piece_second_derivative(len(xs) - 2, xs[-1])) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_natural_cubic_spline(interp([(0, 0), (1, 1)]))

    def test_duplicate_abscissae(self):
        with pytest.raises(InvalidAbscissaeError):
            interp([(0, 0), (0, 1), (1, 2)])


class TestEvalPiecewise:
    paper_poly = PiecewisePolynomial(
        KnotVector((-1.0, 0.0, 1.0)),
        ((1.0, 2.0, 1.0, 0.0), (1.0, 2.0, 0.0, 0.0)),
        degree=2,
    )

    def test_worked_coefficients_at_minus_half(self):
        assert eval_piecewise(self.paper_poly, -0.5) == pytest.approx(0.25, abs=1e-12)

    def test_first_breakpoint_uses_first_piece(self):
        assert eval_piecewise(self.paper_poly, -1.0) == pytest.approx(0.0, abs=1e-12)

    def test_final_breakpoint_is_included(self):
        assert eval_piecewise(self.paper_poly, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_out_of_domain(self):
        for x in (-1.5, 1.5, math.nan):
            with pytest.raises(OutOfDomainError, match=f"^x={x} outside"):
                eval_piecewise(self.paper_poly, x)


# ---------------------------------------------------------------------------
# B-spline blending functions

class TestBsplineBlend:
    simple = BSplineBasis(1, KnotVector((0.0, 1.0, 2.0)))

    def test_order_one_indicator_inside(self):
        assert bspline_blend(self.simple, 0, 1, 0.5) == 1.0

    def test_order_one_indicator_outside(self):
        assert bspline_blend(self.simple, 1, 1, 0.5) == 0.0

    def test_order_two_hand_recursion(self):
        assert bspline_blend(self.simple, 0, 2, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_bad_index(self):
        with pytest.raises(BadIndexError):
            bspline_blend(self.simple, 2, 1, 0.5)
        with pytest.raises(BadIndexError):
            bspline_blend(self.simple, -1, 1, 0.5)
        with pytest.raises(BadIndexError):
            bspline_blend(self.simple, 0, 0, 0.5)

    def test_repeated_knots_use_zero_over_zero_rule(self):
        basis = BSplineBasis.clamped(3, (1.0,), (0.0, 2.0))
        # values at the clamped left edge: first function is 1, rest 0
        vals = [bspline_blend(basis, i, 3, 0.0) for i in range(basis.n_functions)]
        assert vals[0] == pytest.approx(1.0, abs=1e-15)
        assert all(v == 0.0 for v in vals[1:])

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_against_scipy_basis(self, order):
        scipy_interp = pytest.importorskip("scipy.interpolate")
        basis = BSplineBasis.clamped(order, (2.0, 4.5, 7.0), (0.0, 10.0))
        t = np.array(basis.extended_knots.values)
        for i in range(basis.n_functions):
            coeffs = np.zeros(basis.n_functions)
            coeffs[i] = 1.0
            reference = scipy_interp.BSpline(t, coeffs, order - 1)
            for x in np.linspace(0.01, 9.99, 57):
                assert bspline_blend(basis, i, order, x) == pytest.approx(
                    float(reference(x)), abs=1e-12
                )

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_local_support_exact_and_nonnegative(self, order):
        basis = BSplineBasis.clamped(order, (3.0, 5.0, 6.0), (1.0, 9.0))
        t = basis.extended_knots.values
        for i in range(basis.n_functions):
            for x in np.linspace(0.0, 10.0, 201):
                v = bspline_blend(basis, i, order, x)
                assert v >= 0.0
                assert v <= 1.0 + 1e-12
                if not t[i] <= x < t[i + order]:
                    assert v == 0.0


@settings(max_examples=60, deadline=None)
@given(
    knots=st.lists(
        st.floats(0.05, 0.95), min_size=1, max_size=5, unique=True
    ),
    order=st.integers(2, 4),
)
def test_partition_of_unity_random_clamped_bases(knots, order):
    basis = BSplineBasis.clamped(order, sorted(knots), (0.0, 1.0))
    for x in np.linspace(0.0, 1.0, 101, endpoint=False):
        total = sum(bspline_blend(basis, i, order, x) for i in range(basis.n_functions))
        assert abs(total - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# regression basis rows

def tp_spec(degree, knots, domain=(0.0, 10.0)):
    return SplineBasisSpec(BasisKind.TRUNCATED_POWER, degree, KnotVector(knots), domain)


def bs_spec(degree, knots, domain):
    return SplineBasisSpec(BasisKind.BSPLINE, degree, KnotVector(knots), domain)


class TestBasisRow:
    def test_truncated_power_degree_one(self):
        row = basis_row(tp_spec(1, (2.0, 4.0)), 3.0)
        assert row == pytest.approx([3.0, 1.0, 0.0])

    def test_truncated_power_degree_three(self):
        row = basis_row(tp_spec(3, (1.0,)), 2.0)
        assert row == pytest.approx([2.0, 4.0, 8.0, 1.0])

    def test_truncated_power_unrestricted_domain(self):
        row = basis_row(tp_spec(1, (2.0, 4.0)), -50.0)
        assert row == pytest.approx([-50.0, 0.0, 0.0])

    def test_bspline_left_edge_is_unit_row(self):
        row = basis_row(bs_spec(3, (1.0, 1.5, 2.0), (0.0, 3.0)), 0.0)
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    def test_bspline_right_edge_is_left_limit(self):
        spec = bs_spec(3, (1.0, 1.5, 2.0), (0.0, 3.0))
        row = basis_row(spec, 3.0)
        assert row[-1] == 1.0
        assert np.all(row[:-1] == 0.0)
        near = basis_row(spec, 3.0 - 1e-9)
        assert near == pytest.approx(row, abs=1e-6)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_bspline_rows_sum_to_one(self, degree):
        spec = bs_spec(degree, (2.0, 5.0, 7.5), (0.0, 10.0))
        for x in np.linspace(0.0, 10.0, 1000):
            assert abs(basis_row(spec, x).sum() - 1.0) < 1e-10

    def test_bspline_out_of_domain(self):
        spec = bs_spec(3, (1.0, 2.0), (0.0, 3.0))
        with pytest.raises(OutOfDomainError):
            basis_row(spec, -0.01)
        with pytest.raises(OutOfDomainError):
            basis_row(spec, 3.01)
        with pytest.raises(OutOfDomainError, match="x=nan"):
            basis_row(spec, math.nan)

    def test_dimensions(self):
        assert len(basis_row(tp_spec(2, (1.0, 2.0, 3.0)), 0.5)) == 5
        assert tp_spec(2, (1.0, 2.0, 3.0)).dimension == 5
        spec = bs_spec(3, (1.0, 1.5, 2.0), (0.0, 3.0))
        assert len(basis_row(spec, 0.5)) == 7
        assert spec.dimension == 7

    def test_spec_rejects_knots_outside_domain(self):
        with pytest.raises(ValueError):
            bs_spec(2, (0.0, 1.0), (0.0, 3.0))
        with pytest.raises(ValueError):
            tp_spec(1, (11.0,))


# each bad spec: degree, interior knots, domain and the message its check raises
BAD_SPECS = {
    "degree_0": (0, (2.0,), (0.0, 10.0), "degree must be 1, 2 or 3"),
    "degree_4": (4, (2.0,), (0.0, 10.0), "degree must be 1, 2 or 3"),
    "domain_to_inf": (1, (2.0,), (0.0, math.inf), "domain must be finite with min < max"),
    "domain_from_nan": (1, (1.0,), (math.nan, 2.0), "domain must be finite with min < max"),
    "domain_reversed": (1, (1.0,), (2.0, 0.0), "domain must be finite with min < max"),
    "domain_width_overflows": (1, (0.0,), (-1e308, 1e308), "domain width max - min must be finite"),
    "repeated_knot": (1, (2.0, 2.0), (0.0, 10.0), "interior knots must be strictly increasing"),
    "repeated_knot_outside": (1, (12.0, 12.0), (0.0, 10.0), "interior knots must be strictly increasing"),
    "knot_on_domain_edge": (1, (0.0, 5.0), (0.0, 10.0), "interior knots must lie strictly inside the domain"),
    "knot_outside_domain": (1, (5.0, 11.0), (0.0, 10.0), "interior knots must lie strictly inside the domain"),
}

# each bad B-spline basis: order, extended knots and the message its check raises
BAD_BASES = {
    "order_0": (0, (0.0, 1.0), "order must be >= 1"),
    "too_short": (2, (0.0, 0.0, 1.0), "extended knot vector too short for this order"),
    "unclamped_ends": (2, (0.0, 1.0, 2.0, 2.0), "boundary knots must each repeat `order` times"),
    "zero_width": (2, (0.0, 0.0, 0.0, 0.0), "clamped domain must have positive width"),
}


class TestBasisChecks:
    @pytest.mark.parametrize("kind", list(BasisKind))
    @pytest.mark.parametrize("case", BAD_SPECS)
    def test_bad_spec_raises_its_message(self, kind, case):
        degree, knots, domain, message = BAD_SPECS[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SplineBasisSpec(kind, degree, KnotVector(knots), domain)

    @pytest.mark.parametrize("case", [case for case in BAD_SPECS if not case.startswith("degree")])
    def test_clamped_basis_makes_the_spec_checks(self, case):
        # a spec leaves its domain and knot checks to the clamped basis of its space
        degree, knots, domain, message = BAD_SPECS[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BSplineBasis.clamped(degree + 1, knots, domain)

    @pytest.mark.parametrize("case", BAD_BASES)
    def test_bad_basis_raises_its_message(self, case):
        order, knots, message = BAD_BASES[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BSplineBasis(order, KnotVector(knots))


def _arrays(value):
    """Every array in a nest of tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for item in value for a in _arrays(item)]


class TestKernelConstants:
    @pytest.mark.parametrize("kind", list(BasisKind))
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_reused_and_equal_specs_give_bit_identical_matrices(self, kind, degree):
        def spec():
            return SplineBasisSpec(kind, degree, KnotVector((2.0, 5.0, 7.5)), (0.0, 10.0))

        x = np.random.default_rng(degree).uniform(0.0, 10.0, 2 * _BLOCK_ROWS + 1)
        # the edges and a knot on each side of both block boundaries
        x[[0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS]] = (0.0, 10.0, 5.0, 2.0, 10.0)
        reused = spec()
        first = basis_matrix(reused, x)
        assert first.shape == (x.size, reused.dimension)
        assert basis_matrix(reused, x).tobytes() == first.tobytes()
        assert basis_matrix(spec(), x).tobytes() == first.tobytes()
        # a cache filled by a one-row call serves the blocks as well
        warmed = spec()
        basis_row(warmed, 1.0)
        assert basis_matrix(warmed, x).tobytes() == first.tobytes()

    @pytest.mark.parametrize("spec", [tp_spec(2, (1.0, 2.0)), bs_spec(3, (1.0, 1.5, 2.0), (0.0, 3.0))])
    def test_constants_are_computed_once_and_read_only(self, spec):
        constants = spec.kernel_constants
        assert spec.kernel_constants is constants
        for array in _arrays(constants):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_cache_leaves_fields_equality_hash_and_model_files_alone(self, tmp_path):
        spec, twin = bs_spec(3, (1.0, 1.5, 2.0), (0.0, 3.0)), bs_spec(3, (1.0, 1.5, 2.0), (0.0, 3.0))
        model = LogisticModel(0.5, tuple(range(spec.dimension)), spec, True, 4, False)
        save_model(model, tmp_path / "before.json")
        hashed = hash(spec)
        basis_matrix(spec, [0.0, 1.2, 3.0])
        assert [f.name for f in dataclasses.fields(spec)] == ["kind", "degree", "interior_knots", "domain"]
        assert spec == twin and hash(spec) == hash(twin) == hashed
        save_model(model, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_degree_one_span_equivalence_least_squares():
    # piecewise-linear functions over the same interior knots live in both
    # spaces; a least-squares fit in the other basis must reproduce them
    knots = (2.0, 5.0, 8.0)
    domain = (0.0, 10.0)
    tp = tp_spec(1, knots, domain)
    bs = bs_spec(1, knots, domain)
    rng = np.random.default_rng(3)
    xs = np.linspace(0.0, 10.0, 60)
    grid = np.linspace(0.0, 10.0, 100)

    for _ in range(5):
        coef = rng.uniform(-3, 3, 1 + tp.dimension)  # intercept + basis
        tp_design = np.array([np.concatenate([[1.0], basis_row(tp, x)]) for x in xs])
        target = tp_design @ coef

        bs_design = np.array([basis_row(bs, x) for x in xs])
        fit, *_ = np.linalg.lstsq(bs_design, target, rcond=None)

        for x in grid:
            want = float(np.concatenate([[1.0], basis_row(tp, x)]) @ coef)
            got = float(basis_row(bs, x) @ fit)
            assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_truncated_power_spec_expands_to_the_bspline_basis_of_its_space(degree):
    knots, domain = (2.0, 5.0, 8.0), (0.0, 10.0)
    tp, bs = tp_spec(degree, knots, domain), bs_spec(degree, knots, domain)
    assert tp.bspline_basis() == bs.bspline_basis()
    # the truncated-power design, intercept included, lies in the span of the B-spline design
    xs = np.linspace(0.0, 10.0, 200)
    tp_design = np.column_stack([np.ones_like(xs), basis_matrix(tp, xs)])
    bs_design = basis_matrix(bs, xs)
    fit, *_ = np.linalg.lstsq(bs_design, tp_design, rcond=None)
    residual = np.abs(bs_design @ fit - tp_design).max(axis=0)
    assert np.all(residual <= 1e-12 * np.abs(tp_design).max(axis=0)), residual
