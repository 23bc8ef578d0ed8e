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
from splineids.splines import (
    BasisKind,
    BSplineBasis,
    InterpolationData,
    KnotVector,
    PiecewisePolynomial,
    SplineBasisSpec,
    basis_row,
    bspline_blend,
    eval_linear_interpolant,
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

class TestLinearInterpolant:
    data = interp([(0, 0), (1, 2), (2, 0)])

    def test_segment_midpoint(self):
        assert eval_linear_interpolant(self.data, 0.5) == pytest.approx(1.0)

    def test_exact_at_node(self):
        assert eval_linear_interpolant(self.data, 1.0) == 2.0

    def test_right_endpoint_returns_last_value(self):
        assert eval_linear_interpolant(self.data, 2.0) == 0.0

    def test_exact_at_every_node(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            xs = spaced_abscissae(rng, 6, -5, 5, 0.05)
            ys = rng.uniform(-10, 10, 6)
            data = interp(zip(xs, ys))
            for x, y in zip(xs, ys):
                assert eval_linear_interpolant(data, x) == pytest.approx(y, abs=1e-9)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            eval_linear_interpolant(self.data, -0.1)
        with pytest.raises(OutOfDomainError):
            eval_linear_interpolant(self.data, 2.1)


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
        with pytest.raises(OutOfDomainError):
            eval_piecewise(self.paper_poly, 1.5)


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
