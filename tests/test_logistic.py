import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splineids import logistic
from splineids.errors import EmptyDataError, InsufficientDataError, NumericalError, OutOfDomainError, ShapeError
from splineids.experiment import ALL_MODELS, ExperimentConfig, fit_sample, group_sample, split_train_test
from splineids.logistic import (
    LOGLIK_TOL,
    MAX_ITERATIONS,
    SEPARATION_BAND,
    _MAX_HALVINGS,
    ConfusionMatrix,
    DesignMatrix,
    IrlsTrace,
    LogisticModel,
    _sigmoid,
    accuracy,
    build_design_matrix,
    classify,
    confusion_matrix,
    fit_logistic,
    irls,
    predict_prob,
)
from splineids.simulate import ScenarioConfig, generate_dataset
from splineids.splines import _BLOCK_ROWS, BasisKind, KnotVector, SplineBasisSpec, bspline_blend


def tp_spec(degree, knots, domain=(0.0, 10.0)):
    return SplineBasisSpec(BasisKind.TRUNCATED_POWER, degree, KnotVector(knots), domain)


def bs_spec(degree, knots, domain):
    return SplineBasisSpec(BasisKind.BSPLINE, degree, KnotVector(knots), domain)


def ulps_after(x, n):
    """``x`` and the ``n - 1`` floats that follow it."""
    values = [x]
    for _ in range(n - 1):
        values.append(float(np.nextafter(values[-1], np.inf)))
    return values


def logistic_labels(rng, x):
    """Labels at ``x`` drawn from a bounded logit, so the two classes overlap."""
    eta = -2.0 + 0.8 * x - 1.2 * np.maximum(x - 4.0, 0.0) + 0.9 * np.maximum(x - 7.0, 0.0)
    return (rng.uniform(size=x.size) < 1.0 / (1.0 + np.exp(-eta))).astype(int)


def logistic_sample(rng, n=200):
    """Overlapping two-class sample on [0, 10]."""
    x = rng.uniform(0.0, 10.0, n)
    return x, logistic_labels(rng, x)


class TestBuildDesignMatrix:
    def test_baseline_layout(self):
        dm = build_design_matrix(None, (10.0, 20.0))
        assert dm.matrix.shape == (2, 2)
        assert np.array_equal(dm.matrix, [[1.0, 10.0], [1.0, 20.0]])

    def test_truncated_power_row(self):
        dm = build_design_matrix(tp_spec(1, (2.0, 4.0)), (3.0,))
        assert np.allclose(dm.matrix, [[1.0, 3.0, 1.0, 0.0]])

    def test_bspline_dimension(self):
        spec = bs_spec(3, (1.0, 1.5, 2.0), (0.0, 3.0))
        dm = build_design_matrix(spec, np.linspace(0.0, 3.0, 9))
        assert dm.matrix.shape == (9, 8)  # 1 + (3 knots + degree + 1)

    @pytest.mark.parametrize("spec", [None, tp_spec(2, (2.0, 4.0)), bs_spec(3, (2.0, 4.0), (0.0, 6.0))])
    def test_built_design_equals_a_checked_construction(self, spec):
        dm = build_design_matrix(spec, np.linspace(0.0, 6.0, 13))
        checked = DesignMatrix(dm.matrix.copy(), spec)
        assert np.array_equal(dm.matrix, checked.matrix) and dm.basis_spec is spec
        assert dm.matrix.dtype == np.float64 and not dm.matrix.flags.writeable

    def test_empty_input(self):
        with pytest.raises(EmptyDataError):
            build_design_matrix(None, ())

    def test_out_of_domain_reports_row(self):
        spec = bs_spec(2, (1.0,), (0.0, 2.0))
        with pytest.raises(OutOfDomainError, match="row 1"):
            build_design_matrix(spec, (1.0, 5.0))

    def test_nan_is_outside_the_bspline_domain(self):
        spec = bs_spec(3, (1.0, 2.0), (0.0, 3.0))
        with pytest.raises(OutOfDomainError, match=r"^row 2: x=nan outside B-spline domain \[0\.0, 3\.0\]$"):
            build_design_matrix(spec, (1.0, 2.0, np.nan, 5.0))

    def test_overflow_reports_row(self):
        with pytest.raises(NumericalError, match="row 1: basis value overflows"):
            build_design_matrix(tp_spec(3, (1.0,)), (2.0, 1e200, 1e300))

    @pytest.mark.parametrize(
        "spec, bad",
        [(None, np.inf), (None, np.nan), (tp_spec(3, (1.0, 2.0)), np.nan)],
        ids=["logistic_inf", "logistic_nan", "truncated_power_nan"],
    )
    def test_non_finite_predictor_reports_row(self, spec, bad):
        # a truncated-power basis has no domain to check, so a NaN predictor gives a row of NaN
        with pytest.raises(NumericalError, match=f"^row 2: predictor is not finite for x={bad}$"):
            build_design_matrix(spec, (1.0, 2.0, bad))

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(BasisKind),
        degree=st.integers(1, 3),
        knot_fracs=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5, unique=True),
        lo=st.floats(-100.0, 100.0),
        width=st.floats(0.5, 100.0),
        extra_rows=st.integers(1, _BLOCK_ROWS - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_references_bit_for_bit(self, kind, degree, knot_fracs, lo, width, extra_rows, seed):
        hi = lo + width
        knots = sorted(lo + f * width for f in knot_fracs)
        assume(lo < knots[0] and knots[-1] < hi and all(a < b for a, b in zip(knots, knots[1:])))
        spec = SplineBasisSpec(kind, degree, KnotVector(tuple(knots)), (lo, hi))
        special = [*knots, lo, hi, float(np.nextafter(hi, lo))]
        rng = np.random.default_rng(seed)
        n_random = 2 * _BLOCK_ROWS + extra_rows - len(special)  # three blocks, the last one partial
        xs = rng.permutation(np.concatenate([special, rng.uniform(lo, hi, n_random)]))

        if kind is BasisKind.BSPLINE:
            basis = spec.bspline_basis()
            edge_row = [0.0] * (basis.n_functions - 1) + [1.0]
            want = [
                edge_row if x == hi else [bspline_blend(basis, i, basis.order, x) for i in range(basis.n_functions)]
                for x in xs.tolist()
            ]
        else:
            want = [
                [x**j for j in range(1, degree + 1)] + [max(x - k, 0.0) ** degree for k in knots]
                for x in xs.tolist()
            ]
        want = np.column_stack([np.ones(xs.size), np.array(want)])
        got = build_design_matrix(spec, xs).matrix
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 where the reference has it

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize(
        "knots, domain",
        [
            ((2.5e-7, 5e-7, 7.5e-7), (0.0, 1e-6)),
            ((1e6 - 0.5, 1e6 + 0.25), (1e6 - 1.0, 1e6 + 1.0)),
            ((1e6 + 2e-7, 1e6 + 5e-7), (1e6, 1e6 + 1e-6)),
            (tuple(ulps_after(0.5, 4)), (0.0, 1.0)),
            (tuple(ulps_after(-3.0, 3)), (-3.5, -2.75)),
        ],
        ids=["width_1e-6", "offset_1e6", "width_1e-6_at_1e6", "knots_1_ulp_apart", "knots_1_ulp_apart_below_0"],
    )
    def test_bspline_edge_cases_match_the_scalar_reference_bit_for_bit(self, degree, knots, domain):
        # the cases the bounded hypothesis property above does not draw: tiny widths, large offsets,
        # knots ulps apart, and every point where a level-1 indicator switches
        spec = bs_spec(degree, knots, domain)
        basis = spec.bspline_basis()
        lo, hi = domain
        interior = np.array(knots)
        xs = np.concatenate([
            basis.extended_knots.values,
            np.nextafter(interior, -np.inf),
            np.nextafter(interior, np.inf),
            [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)],
            np.random.default_rng(degree).uniform(lo, hi, 200),
        ])
        edge_row = [0.0] * (basis.n_functions - 1) + [1.0]
        want = [
            edge_row if x == hi else [bspline_blend(basis, i, basis.order, x) for i in range(basis.n_functions)]
            for x in xs.tolist()
        ]
        want = np.column_stack([np.ones(xs.size), np.array(want)])
        got = build_design_matrix(spec, xs).matrix
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize(
        "spec",
        [None, tp_spec(3, (2.0, 5.0, 8.0)), bs_spec(3, (2.0, 5.0, 8.0), (0.0, 10.0))],
        ids=["logistic", "cubic", "bspline"],
    )
    def test_peak_allocation_stays_near_the_matrix(self, spec):
        x = np.random.default_rng(0).uniform(0.0, 10.0, 100_000)
        tracemalloc.start()
        try:
            dm = build_design_matrix(spec, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * dm.matrix.nbytes


class TestFitLogistic:
    def test_symmetric_data_centers_at_half(self):
        x = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
        y = np.array([0, 0, 1, 1, 0, 1])
        model = fit_logistic(build_design_matrix(None, x), y)
        p0 = predict_prob(model, build_design_matrix(None, [0.0]))[0]
        assert p0 == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_labels_are_rejected(self, label):
        # one class has no maximum-likelihood fit
        dm = build_design_matrix(None, np.linspace(-0.2, 0.2, 6))
        message = f"^every training label is {label}; a fit needs both classes, 0 and 1$"
        with pytest.raises(InsufficientDataError, match=message):
            fit_logistic(dm, np.full(6, label))

    def test_label_shape_mismatch(self):
        dm = build_design_matrix(None, (1.0, 2.0, 3.0))
        with pytest.raises(ShapeError):
            fit_logistic(dm, (0, 1))

    def test_nonbinary_labels_rejected(self):
        dm = build_design_matrix(None, (1.0, 2.0))
        with pytest.raises(ValueError):
            fit_logistic(dm, (0, 2))

    @pytest.mark.parametrize(
        "successes, trials",
        [((0, 3, 1), (2, 2, 1)), ((0, -1, 1), (2, 2, 1)), ((0, 0.5, 1), (2, 2, 1)), ((0, np.nan, 1), (2, 2, 1))],
        ids=["above_trials", "negative", "fractional", "nan"],
    )
    def test_successes_must_be_whole_numbers_up_to_their_trials(self, successes, trials):
        dm = build_design_matrix(None, (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="^successes must be whole numbers from 0 to their trials$"):
            fit_logistic(dm, successes, trials)

    def test_trials_shape_mismatch(self):
        dm = build_design_matrix(None, (1.0, 2.0, 3.0))
        with pytest.raises(ShapeError, match="trials length 2"):
            fit_logistic(dm, (0, 1, 1), (1, 2))

    @pytest.mark.parametrize("label, successes", [(0, (0, 0, 0)), (1, (2, 1, 3))])
    def test_grouped_labels_of_one_class_are_rejected(self, label, successes):
        dm = build_design_matrix(None, (1.0, 2.0, 3.0))
        message = f"^every training label is {label}; a fit needs both classes, 0 and 1$"
        with pytest.raises(InsufficientDataError, match=message):
            fit_logistic(dm, successes, (2, 1, 3))

    def test_grouped_fit_is_the_fit_on_the_rows_one_by_one(self):
        x = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 0.5])
        y = np.array([0, 0, 1, 1, 0, 1, 1])
        ungrouped = fit_logistic(build_design_matrix(None, x), y)
        grouped = fit_logistic(build_design_matrix(None, (-1.0, 0.5, 1.0)), (1, 1, 2), (3, 1, 3))
        assert (grouped.iterations, grouped.converged, grouped.separation_flag) == (
            ungrouped.iterations,
            ungrouped.converged,
            ungrouped.separation_flag,
        )
        assert grouped.intercept == pytest.approx(ungrouped.intercept, rel=1e-12)
        assert grouped.coefficients == pytest.approx(ungrouped.coefficients, rel=1e-12)

    def test_loglik_nondecreasing_across_iterations(self):
        rng = np.random.default_rng(23)
        x, y = logistic_sample(rng)
        dm = build_design_matrix(tp_spec(2, (3.0, 5.0, 7.0)), x)
        trace = irls(dm.matrix, y.astype(float))
        assert trace.converged and not trace.separated
        diffs = np.diff(trace.loglik_history)
        assert np.all(diffs >= 0.0)

    def test_gradient_vanishes_at_converged_optimum(self):
        rng = np.random.default_rng(31)
        x, y = logistic_sample(rng)
        dm = build_design_matrix(tp_spec(1, (4.0, 7.0)), x)
        model = fit_logistic(dm, y)
        assert model.converged and not model.separation_flag

        beta = np.concatenate([[model.intercept], model.coefficients])
        p = 1.0 / (1.0 + np.exp(-(dm.matrix @ beta)))
        grad = dm.matrix.T @ (y - p)
        assert np.max(np.abs(grad)) < 1e-6

        # central finite differences on the log-likelihood agree with it
        def loglik(b):
            eta = dm.matrix @ b
            return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

        h = 1e-6
        for j in range(len(beta)):
            e = np.zeros_like(beta)
            e[j] = h
            fd = (loglik(beta + e) - loglik(beta - e)) / (2.0 * h)
            assert fd == pytest.approx(grad[j], rel=1e-4, abs=1e-6)

    def test_no_ascent_step_left_stops_as_stationary(self):
        # a solve that returns the negated gradient, a descent direction, makes all _MAX_HALVINGS halvings fail
        rng = np.random.default_rng(31)
        x, y = logistic_sample(rng)
        matrix = build_design_matrix(tp_spec(1, (4.0, 7.0)), x).matrix
        with mock.patch.object(np.linalg, "lstsq", lambda hessian, gradient, rcond: (-gradient,)):
            trace = irls(matrix, y.astype(float))
        assert (trace.iterations, trace.converged, trace.separated) == (1, True, False)
        assert len(trace.loglik_history) == 1
        assert np.array_equal(trace.beta, np.zeros(matrix.shape[1]))

    @pytest.mark.parametrize("seed", [1, 42])
    def test_reported_loglik_is_the_exact_loglik_of_the_returned_beta(self, seed):
        config = ExperimentConfig()
        train, _ = split_train_test(generate_dataset(ScenarioConfig(seed=seed)), config.split_ratio, config.split_seed)
        x, y = train.packet_delay_ms, train.label
        models = fit_sample(config, group_sample(config, x, y))
        for kind in ALL_MODELS:
            dm = build_design_matrix(models[kind].basis_spec, x)
            trace = irls(dm.matrix, y.astype(float))
            eta = dm.matrix @ trace.beta
            exact = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
            assert trace.loglik == pytest.approx(exact, rel=1e-12, abs=0.0), kind

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_reported_loglik_agrees_with_an_exact_sum_on_separable_designs(self, degree):
        # the difference y.eta - sum(softplus(eta)) of two large sums cancels on these fits
        spec = tp_spec(degree, (2.0, 5.0, 8.0))
        for seed in range(70):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0.0, 10.0, 200)
            y = (x > rng.uniform(3.0, 7.0)).astype(float)
            matrix = build_design_matrix(spec, x).matrix
            trace = irls(matrix, y)
            eta = matrix @ trace.beta
            terms = np.maximum(np.where(y == 1.0, -eta, eta), 0.0) + np.log1p(np.exp(-np.abs(eta)))
            assert trace.loglik == pytest.approx(-math.fsum(terms.tolist()), rel=1e-13, abs=0.0), seed


# The earlier irls step, with the np.sum/np.all/np.any wrappers and the
# elementwise band test, kept verbatim as the oracle for the leaner step.
def _oracle_loglik_and_prob(y: np.ndarray, eta: np.ndarray) -> tuple[float, np.ndarray]:
    """Unclipped ``y.eta - sum(logaddexp(0, eta))`` and sigma(eta), sharing one exp."""
    e = np.exp(-np.abs(eta))
    ll = float(y @ eta - np.sum(np.maximum(eta, 0.0) + np.log1p(e)))
    return ll, _sigmoid(eta, e)


def _oracle_irls(matrix: np.ndarray, y: np.ndarray) -> IrlsTrace:
    """Run IRLS from beta = 0, returning the full iteration trace."""
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(x.shape[1])
    ll, p = _oracle_loglik_and_prob(y, x @ beta)
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
        delta = np.linalg.lstsq(hessian, gradient, rcond=None)[0]

        step = 1.0
        for _ in range(_MAX_HALVINGS):
            beta_new = beta + step * delta
            ll_new, p_new = _oracle_loglik_and_prob(y, x @ beta_new)
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
            converged = True
            break
        ll = ll_new

    return IrlsTrace(beta, converged, iterations, separated, history[-1], history)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_irls_matches_the_oracle(matrix, y):
    got, want = irls(matrix, y), _oracle_irls(matrix, y)
    assert _bits(got.beta) == _bits(want.beta)
    assert (got.iterations, got.converged, got.separated) == (want.iterations, want.converged, want.separated)
    # loglik is worked out at the returned beta without the cancelling y.eta; the history is what the step compared
    assert _bits(got.loglik_history) == _bits(want.loglik_history)
    return want


def _first_iterate_probabilities(matrix, y):
    """The accepted probabilities after the oracle's first IRLS step."""
    with mock.patch.dict(globals(), MAX_ITERATIONS=1):
        beta = _oracle_irls(matrix, y).beta
    return _sigmoid(matrix @ beta)


class TestIrlsOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        basis=st.sampled_from(["plain", "tp1", "tp2", "tp3", "bs1", "bs2", "bs3"]),
        separable=st.booleans(),
        band_edge=st.sampled_from([None, "low", "high"]),
        n=st.integers(20, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_earlier_step_bit_for_bit(self, basis, separable, band_edge, n, seed):
        rng = np.random.default_rng(seed)
        x, y = logistic_sample(rng, n)
        x[:2] = (0.0, 10.0)  # the B-spline domain's edges
        if separable:
            y = (x > rng.uniform(3.0, 7.0)).astype(int)
        knots = (2.0, 5.0, 8.0)
        spec = {
            "plain": None,
            **{f"tp{d}": tp_spec(d, knots) for d in (1, 2, 3)},
            **{f"bs{d}": bs_spec(d, knots, (0.0, 10.0)) for d in (1, 2, 3)},
        }[basis]
        matrix, yf = build_design_matrix(spec, x).matrix, y.astype(float)

        if band_edge is not None:
            # a band whose edge is the smallest or the largest first-step probability
            # (1 - (1 - p) == p exactly for p >= 0.5) stops both at iteration 1 only
            # if the band test includes its edge
            p1 = _first_iterate_probabilities(matrix, yf)
            band = float(p1.min() if band_edge == "low" else 1.0 - p1.max())
            assume(band < 0.5)
            with mock.patch.object(logistic, "SEPARATION_BAND", band), mock.patch.dict(globals(), SEPARATION_BAND=band):
                want = assert_irls_matches_the_oracle(matrix, yf)
            assert want.separated and want.iterations == 1
        else:
            assert_irls_matches_the_oracle(matrix, yf)

    @pytest.mark.parametrize("seed", [1, 2, 42])
    def test_default_scenario_fits_match_the_earlier_step(self, seed):
        config = ExperimentConfig()
        train, _ = split_train_test(
            generate_dataset(ScenarioConfig(n_records=600, seed=seed)), config.split_ratio, config.split_seed
        )
        x, y = train.packet_delay_ms, train.label
        models = fit_sample(config, group_sample(config, x, y))
        for kind in ALL_MODELS:
            matrix = build_design_matrix(models[kind].basis_spec, x).matrix
            assert_irls_matches_the_oracle(matrix, y.astype(float))


class TestGroupedIrls:
    @settings(max_examples=60, deadline=None)
    @given(
        basis=st.sampled_from(["plain", "tp1", "tp2", "tp3", "bs1", "bs2", "bs3"]),
        n_distinct=st.integers(8, 120),
        max_repeats=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grouped_fit_equals_the_fit_on_the_expanded_rows(self, basis, n_distinct, max_repeats, seed):
        rng = np.random.default_rng(seed)
        # distinct values on a 0.01 grid, each repeated 1 to max_repeats times, in shuffled order
        values = np.unique(np.concatenate([[0.0, 10.0], rng.integers(1, 1000, n_distinct) / 100.0]))
        x = rng.permutation(np.repeat(values, rng.integers(1, max_repeats + 1, values.size)))
        y = logistic_labels(rng, x).astype(float)
        assume(0.0 < y.sum() < y.size)
        knots = (2.0, 5.0, 8.0)
        spec = {
            "plain": None,
            **{f"tp{d}": tp_spec(d, knots) for d in (1, 2, 3)},
            **{f"bs{d}": bs_spec(d, knots, (0.0, 10.0)) for d in (1, 2, 3)},
        }[basis]
        distinct, inverse = np.unique(x, return_inverse=True)
        trials, successes = np.bincount(inverse), np.bincount(inverse, weights=y)
        grouped_matrix, matrix = build_design_matrix(spec, distinct).matrix, build_design_matrix(spec, x).matrix

        def fits(iterations=MAX_ITERATIONS):
            with mock.patch.object(logistic, "MAX_ITERATIONS", iterations):
                return irls(grouped_matrix, successes, trials), irls(matrix, y)

        def gap(grouped, ungrouped):
            """The largest gap between the two fits' probabilities at the distinct values."""
            probabilities = [_sigmoid(grouped_matrix @ fit.beta) for fit in (grouped, ungrouped)]
            return float(np.abs(np.subtract(*probabilities)).max())

        grouped, ungrouped = fits()
        assert (grouped.iterations, grouped.converged, grouped.separated) == (
            ungrouped.iterations,
            ungrouped.converged,
            ungrouped.separated,
        )
        if basis != "tp3":  # the cubic truncated-power design is the ill-conditioned one
            # the same iterates up to rounding, until the last step
            assert all(gap(*fits(k)) <= 1e-9 for k in range(1, grouped.iterations))
            # the last step starts where the log-likelihood is flat to its last bits, so rounding decides
            # which of its halvings passes ll_new >= ll; the ungrouped fit on its rows in another order
            # moves as far
            assert gap(grouped, ungrouped) <= 1e-6

    def test_one_trial_a_row_is_the_ungrouped_fit_bit_for_bit(self):
        rng = np.random.default_rng(5)
        x, y = logistic_sample(rng)
        matrix, yf = build_design_matrix(tp_spec(2, (3.0, 5.0, 7.0)), x).matrix, y.astype(float)
        got, want = irls(matrix, yf, np.ones(yf.size)), irls(matrix, yf)
        assert _bits(got.beta) == _bits(want.beta) and _bits(got.loglik_history) == _bits(want.loglik_history)
        assert _bits([got.loglik]) == _bits([want.loglik])


class TestPredictProb:
    def test_sigma_zero_is_half(self):
        m = LogisticModel(0.0, (1.0,), None, True, 1, False)
        p = predict_prob(m, build_design_matrix(None, [0.0]))
        assert p[0] == pytest.approx(0.5, abs=1e-15)

    def test_sigma_one(self):
        m = LogisticModel(-1.0, (2.0,), None, True, 1, False)
        p = predict_prob(m, build_design_matrix(None, [1.0]))
        assert p[0] == pytest.approx(0.7310585786, abs=1e-9)

    def test_zero_coefficients_give_half_everywhere(self):
        m = LogisticModel(0.0, (0.0,), None, True, 1, False)
        p = predict_prob(m, build_design_matrix(None, np.linspace(-5, 5, 11)))
        assert np.all(p == 0.5)

    def test_probabilities_stay_inside_unit_interval(self):
        m = LogisticModel(0.0, (1000.0,), None, True, 1, False)
        p = predict_prob(m, build_design_matrix(None, (-5.0, 5.0)))
        assert 0.0 < p[0] < p[1] < 1.0

    def test_dimension_mismatch(self):
        m = LogisticModel(0.0, (1.0, 2.0), None, True, 1, False)
        with pytest.raises(ShapeError):
            predict_prob(m, build_design_matrix(None, [0.0]))


def _two_branch_sigmoid(eta):
    """The earlier masked form of sigma, kept as the reference."""
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    def test_matches_the_two_branch_form_bit_for_bit(self):
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf]
        eta = np.concatenate([special, rng.normal(0.0, 30.0, 100_000), rng.uniform(-800.0, 800.0, 100_000)])
        want = _two_branch_sigmoid(eta)
        got = _sigmoid(eta)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestClassify:
    def test_boundary_probability_is_attack(self):
        assert classify([0.5], 0.5).tolist() == [1]

    def test_below_threshold(self):
        assert classify([0.49], 0.5).tolist() == [0]

    def test_high_probability(self):
        assert classify([0.99], 0.5).tolist() == [1]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            classify([0.5], 0.0)

    @given(
        st.lists(st.floats(0.001, 0.999), min_size=1, max_size=40),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    def test_raising_threshold_never_adds_positives(self, probs, t1, t2):
        t1, t2 = min(t1, t2), max(t1, t2)
        labels = [i % 2 for i in range(len(probs))]
        low = confusion_matrix(classify(probs, t1), labels)
        high = confusion_matrix(classify(probs, t2), labels)
        assert high.tp <= low.tp
        assert high.fp <= low.fp


class TestConfusionMatrix:
    def test_perfect_predictions(self):
        actual = [1] * 62 + [0] * 58
        cm = confusion_matrix(actual, actual)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (62, 0, 58, 0)

    def test_reference_counts(self):
        actual = [1] * 61 + [0] * 59
        predicted = [1] * 61 + [1] + [0] * 58
        cm = confusion_matrix(predicted, actual)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (61, 1, 58, 0)

    def test_all_false_positives(self):
        cm = confusion_matrix([1] * 5, [0] * 5)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 5, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion_matrix([0, 1], [0])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    def test_counts_sum_to_n_and_accuracy_in_unit_interval(self, pairs):
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        cm = confusion_matrix(predicted, actual)
        assert cm.total == len(pairs)
        assert 0.0 <= accuracy(cm) <= 1.0


    @given(st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)), max_size=60), st.booleans())
    def test_counts_match_a_per_element_reference(self, pairs, as_arrays):
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        if as_arrays:
            predicted, actual = np.array(predicted, dtype=np.int64), np.array(actual, dtype=np.int8)
        if any(v not in (0, 1) for pair in pairs for v in pair):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                confusion_matrix(predicted, actual)
            return
        cm = confusion_matrix(predicted, actual)
        want = tuple(sum(pair == cell for pair in pairs) for cell in ((1, 1), (1, 0), (0, 0), (0, 1)))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == want
        assert all(type(count) is int for count in (cm.tp, cm.fp, cm.tn, cm.fn))

    @pytest.mark.parametrize("bad", [2, -1])
    @pytest.mark.parametrize("side", [0, 1])
    def test_values_other_than_zero_and_one_raise(self, bad, side):
        args = [[0, 1, 1, 0], [1, 0, 1, 0]]
        args[side][2] = bad
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            confusion_matrix(*args)

    def test_two_dimensional_inputs_count_every_element(self):
        cm = confusion_matrix(np.array([[1, 0, 1], [1, 0, 0]]), np.array([[1, 1, 0], [1, 0, 0]]))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_inputs_count_nothing(self, shape):
        cm = confusion_matrix(np.zeros(shape, dtype=int), np.zeros(shape, dtype=int))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, 0, 0)


class TestAccuracy:
    def test_table_row_9917(self):
        assert accuracy(ConfusionMatrix(61, 1, 58, 0)) == pytest.approx(119 / 120)
        assert f"{100 * accuracy(ConfusionMatrix(61, 1, 58, 0)):.2f}%" == "99.17%"

    def test_table_row_9583(self):
        assert f"{100 * accuracy(ConfusionMatrix(59, 3, 56, 2)):.2f}%" == "95.83%"

    def test_perfect(self):
        assert accuracy(ConfusionMatrix(10, 0, 10, 0)) == 1.0

    def test_empty(self):
        with pytest.raises(EmptyDataError):
            accuracy(ConfusionMatrix(0, 0, 0, 0))
