import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splineids.errors import EmptyDataError, NumericalError, OutOfDomainError, ShapeError
from splineids.logistic import (
    ConfusionMatrix,
    LogisticModel,
    accuracy,
    build_design_matrix,
    classify,
    confusion_matrix,
    fit_logistic,
    irls,
    predict_prob,
)
from splineids.splines import _BLOCK_ROWS, BasisKind, KnotVector, SplineBasisSpec, bspline_blend


def tp_spec(degree, knots, domain=(0.0, 10.0)):
    return SplineBasisSpec(BasisKind.TRUNCATED_POWER, degree, KnotVector(knots), domain)


def bs_spec(degree, knots, domain):
    return SplineBasisSpec(BasisKind.BSPLINE, degree, KnotVector(knots), domain)


def logistic_sample(rng, n=200):
    """Overlapping two-class sample: labels drawn from a bounded logit."""
    x = rng.uniform(0.0, 10.0, n)
    eta = -2.0 + 0.8 * x - 1.2 * np.maximum(x - 4.0, 0.0) + 0.9 * np.maximum(x - 7.0, 0.0)
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    return x, y


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

    def test_empty_input(self):
        with pytest.raises(EmptyDataError):
            build_design_matrix(None, ())

    def test_out_of_domain_reports_row(self):
        spec = bs_spec(2, (1.0,), (0.0, 2.0))
        with pytest.raises(OutOfDomainError, match="row 1"):
            build_design_matrix(spec, (1.0, 5.0))

    def test_overflow_reports_row(self):
        with pytest.raises(NumericalError, match="row 1: basis value overflows"):
            build_design_matrix(tp_spec(3, (1.0,)), (2.0, 1e200, 1e300))

    def test_non_finite_predictor_reports_row(self):
        with pytest.raises(NumericalError, match="row 2: predictor is not finite"):
            build_design_matrix(None, (1.0, 2.0, np.inf))

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

    def test_all_positive_labels_flag_separation(self):
        x = np.linspace(-0.2, 0.2, 6)
        model = fit_logistic(build_design_matrix(None, x), np.ones(6, dtype=int))
        assert model.separation_flag
        probs = predict_prob(model, build_design_matrix(None, x))
        assert np.all(probs > 0.99)

    def test_label_shape_mismatch(self):
        dm = build_design_matrix(None, (1.0, 2.0, 3.0))
        with pytest.raises(ShapeError):
            fit_logistic(dm, (0, 1))

    def test_nonbinary_labels_rejected(self):
        dm = build_design_matrix(None, (1.0, 2.0))
        with pytest.raises(ValueError):
            fit_logistic(dm, (0, 2))

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
