"""Background sampling, ANOVA effects, and deviation decomposition."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devexplain.anova import (
    DATASET_RESAMPLED,
    PRIOR_SAMPLED,
    BackgroundSample,
    _Coalitions,
    decompose_deviation,
    draw_background,
    f_zero,
    first_order_effect,
    second_order_effect,
)
from devexplain.attribution import ExplainSettings, explain, report_to_json
from devexplain.dataset import Dataset
from devexplain.errors import ValidationError
from devexplain.mixtures import FeaturePriors, GaussianMixture1D
from devexplain.models import GbtParams, fit_gbt

TABLE_OBS = np.array([-2.5, -1.7, -2.0])
TABLE_REF = np.array([7.97, 7.94, -0.11])


class ConstantModel:
    """Stub: ignores x entirely."""

    def __init__(self, c: float, d_x: int):
        self.c = c
        self.d_x = d_x

    def predict_batch(self, x):
        return np.full(x.shape[0], self.c)


class ProductModel:
    """Stub: f(x) = x0 * x1."""

    d_x = 2

    def predict_batch(self, x):
        return x[:, 0] * x[:, 1]


class CountingModel:
    """Stub: f(x) = sum_i (i + 1) x_i, counting its predict_batch calls."""

    def __init__(self, d_x: int):
        self.d_x = d_x
        self.calls = 0

    def predict_batch(self, x):
        self.calls += 1
        return x @ np.arange(1.0, self.d_x + 1)


def standard_normal_priors(d: int) -> FeaturePriors:
    gmm = GaussianMixture1D(components=((1.0, 0.0, 1.0),))
    return FeaturePriors(per_feature=(gmm,) * d)


class TestDrawBackground:
    def test_single_prior_row(self, exact_priors):
        bg = draw_background(exact_priors, 1, seed=0)
        assert bg.points.shape == (1, 3)
        assert bg.source == PRIOR_SAMPLED
        assert bg.np_used == 1

    def test_resample_rows_come_from_data(self, fixture_data):
        bg = draw_background(fixture_data, 50, seed=1)
        assert bg.source == DATASET_RESAMPLED
        rows = {tuple(r) for r in fixture_data.features}
        assert all(tuple(r) in rows for r in bg.points)

    def test_prior_column_means(self, exact_priors, trimodal_spec):
        n = 10_000
        bg = draw_background(exact_priors, n, seed=2)
        for i, mix in enumerate(trimodal_spec.feature_specs):
            sigma = math.sqrt(
                float(np.dot(mix.weights, mix.stds**2 + mix.means**2)) - mix.mean() ** 2
            )
            assert abs(bg.points[:, i].mean() - mix.mean()) <= 4 * sigma / math.sqrt(n)

    def test_deterministic(self, exact_priors):
        a = draw_background(exact_priors, 20, seed=9)
        b = draw_background(exact_priors, 20, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_np_domain(self, exact_priors):
        with pytest.raises(ValidationError):
            draw_background(exact_priors, 0, seed=0)

    def test_source_type_checked(self):
        with pytest.raises(ValidationError):
            draw_background([[1.0, 2.0]], 5, seed=0)

    def test_background_validation(self):
        with pytest.raises(ValidationError):
            BackgroundSample(points=np.array([[np.inf]]), source=PRIOR_SAMPLED, seed=0)
        with pytest.raises(ValidationError):
            BackgroundSample(points=np.ones((2, 1)), source="elsewhere", seed=0)


class TestFZero:
    def test_constant_model(self, exact_priors):
        bg = draw_background(exact_priors, 100, seed=0)
        assert f_zero(ConstantModel(2.5, 3), bg) == 2.5

    def test_linear_closed_form(self, linear_outlier, exact_priors, trimodal_spec):
        bg = draw_background(exact_priors, 4000, seed=3)
        preds = linear_outlier.predict_batch(bg.points)
        stderr = preds.std(ddof=1) / math.sqrt(bg.np_used)
        closed = linear_outlier.intercept + float(
            np.dot(
                linear_outlier.coefficients,
                [m.mean() for m in trimodal_spec.feature_specs],
            )
        )
        assert abs(f_zero(linear_outlier, bg) - closed) <= 4 * stderr

    def test_resampled_grand_mean_tracks_label_mean(self, linear_outlier, outlier_data):
        # predictions at resampled rows estimate the label mean; allow 4 sigma
        bg = draw_background(outlier_data, 2000, seed=4)
        label_mean = float(outlier_data.labels.mean())
        mc_bound = 4 * float(outlier_data.labels.std()) / math.sqrt(2000)
        assert abs(f_zero(linear_outlier, bg) - label_mean) <= mc_bound

    def test_dimension_check(self, linear_outlier):
        bg = draw_background(standard_normal_priors(2), 10, seed=0)
        with pytest.raises(ValidationError):
            f_zero(linear_outlier, bg)


class TestFirstOrderEffect:
    def test_linear_is_exact(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 500, seed=5)
        for i in range(3):
            est, stderr = first_order_effect(linear_outlier, bg, i, 8.0)
            coef = linear_outlier.coefficients[i]
            closed = coef * (8.0 - bg.points[:, i].mean())
            assert est == pytest.approx(closed, abs=1e-10)
            # summand is coef * (8 - x_i) per row, so its stderr is known too
            expected_se = abs(coef) * bg.points[:, i].std(ddof=1) / math.sqrt(500)
            assert stderr == pytest.approx(expected_se, rel=1e-9)

    def test_constant_model_zero(self, exact_priors):
        bg = draw_background(exact_priors, 100, seed=6)
        est, stderr = first_order_effect(ConstantModel(7.0, 3), bg, 0, 3.0)
        assert est == 0.0
        assert stderr == 0.0

    def test_gbt_against_large_sample_oracle(self, gbt10k, exact_priors):
        small = draw_background(exact_priors, 1000, seed=7)
        est, stderr = first_order_effect(gbt10k, small, 0, 8.0)
        big = draw_background(exact_priors, 200_000, seed=8)
        oracle, _ = first_order_effect(gbt10k, big, 0, 8.0)
        assert abs(est - oracle) <= 4 * stderr

    def test_single_row_stderr_is_inf(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 1, seed=0)
        _, stderr = first_order_effect(linear_outlier, bg, 0, 1.0)
        assert stderr == math.inf

    def test_validation(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 10, seed=0)
        # a bool would pin every feature (x[:, True]), a float is no index
        for feature in (3, -1, True, 0.5):
            with pytest.raises(ValidationError):
                first_order_effect(linear_outlier, bg, feature, 1.0)
        with pytest.raises(ValidationError):
            second_order_effect(linear_outlier, bg, 0, 1.0, 8.0, 8.0)
        with pytest.raises(ValidationError):
            first_order_effect(linear_outlier, bg, 0, math.nan)


class TestSecondOrderEffect:
    def test_linear_vanishes(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 500, seed=9)
        est, _ = second_order_effect(linear_outlier, bg, 0, 1, 8.0, -2.0)
        assert abs(est) <= 1e-12

    def test_product_model_interaction(self):
        priors = standard_normal_priors(2)
        bg = draw_background(priors, 5000, seed=10)
        v0, v1 = 1.5, -2.0
        est, stderr = second_order_effect(ProductModel(), bg, 0, 1, v0, v1)
        # per-row summand collapses to v0*v1 - v0*x1 - x0*v1 + x0*x1
        m0 = bg.points[:, 0].mean()
        m1 = bg.points[:, 1].mean()
        corr = float(np.mean(bg.points[:, 0] * bg.points[:, 1]))
        closed = v0 * v1 - v0 * m1 - m0 * v1 + corr
        assert est == pytest.approx(closed, abs=1e-9)
        assert stderr > 0.01

    def test_same_feature_rejected(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 10, seed=0)
        with pytest.raises(ValidationError):
            second_order_effect(linear_outlier, bg, 1, 1, 0.0, 0.0)


class TestCoalitions:
    def test_release_keeps_only_batches_a_later_point_pins(self, exact_priors):
        # rows 0-2, then a reference: rows 0 and 1 share x0, rows 0 and 2
        # share (x1, x2), row 1 and the reference share x2
        points = np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 6.0], [7.0, 2.0, 3.0], [0.0, 0.0, 6.0]])
        every = [c for size in range(4) for c in itertools.combinations(range(3), size)]
        bg = draw_background(exact_priors, 5, seed=0)
        for q in range(3):
            model = CountingModel(3)
            coalitions = _Coalitions(model, bg, points)
            for p in range(q + 1):
                for c in every:
                    coalitions.rows(points[p], c)
            coalitions.release(q)
            for p in range(q + 1):
                for c in every:
                    kept = any(
                        np.array_equal(points[later, list(c)], points[p, list(c)])
                        for later in range(q + 1, len(points))
                    )
                    calls = model.calls
                    coalitions.rows(points[p], c)
                    assert (model.calls == calls) == kept, (q, p, c)
                    # drop a batch this check predicted again, as before it
                    coalitions.release(q)


class TestDecomposeDeviation:
    def test_identity_case(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 200, seed=11)
        x = np.array([1.0, 2.0, 3.0])
        decomp = decompose_deviation(linear_outlier, bg, x, x, 5.0, 5.0, order=2)
        assert decomp.total_delta == 0.0
        assert np.all(decomp.first_order == 0.0)
        assert np.all(decomp.second_order == 0.0)
        assert decomp.residual == 0.0

    def test_table_outlier_first_order(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 4000, seed=12)
        decomp = decompose_deviation(
            linear_outlier, bg, TABLE_OBS, TABLE_REF, -6.2, 15.7
        )
        assert decomp.total_delta == pytest.approx(-21.9)
        assert decomp.first_order == pytest.approx([-10.47, -9.64, -1.89], abs=1e-6)
        # the residual is exactly the y-vs-f mismatch at the two anchor points
        mismatch = (-6.2 - 15.7) - (
            float(linear_outlier.predict_batch(TABLE_OBS[None])[0])
            - float(linear_outlier.predict_batch(TABLE_REF[None])[0])
        )
        assert decomp.residual == pytest.approx(mismatch, abs=1e-6)
        assert decomp.residual == pytest.approx(0.1, abs=1e-3)

    def test_second_order_upper_triangular(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 300, seed=13)
        decomp = decompose_deviation(
            linear_outlier, bg, TABLE_OBS, TABLE_REF, -6.2, 15.7, order=2
        )
        assert decomp.second_order.shape == (3, 3)
        assert np.all(np.abs(decomp.second_order) <= 1e-10)
        lower = np.tril_indices(3)
        assert np.all(decomp.second_order[lower] == 0.0)

    def test_closure_is_by_construction(self, gbt10k, outlier_data):
        bg = draw_background(outlier_data, 750, seed=14)
        x_obs, y_obs = outlier_data.row(17)
        x_ref, y_ref = outlier_data.row(901)
        for order in (1, 2):
            decomp = decompose_deviation(
                gbt10k, bg, x_obs, x_ref, y_obs, y_ref, order=order
            )
            assert decomp.residual == decomp.total_delta - decomp.term_sum()
            assert decomp.term_sum() + decomp.residual == pytest.approx(
                decomp.total_delta, abs=1e-12
            )

    def test_stderr_paired(self, gbt10k, outlier_data):
        # common random numbers: the error bar of delta is the stderr of the
        # per-row differences between the observation and reference terms
        bg = draw_background(outlier_data, 400, seed=15)
        x_obs, y_obs = outlier_data.row(3)
        x_ref, y_ref = outlier_data.row(77)
        decomp = decompose_deviation(
            gbt10k, bg, x_obs, x_ref, y_obs, y_ref, order=2
        )

        def pinned(x, features):
            pts = bg.points.copy()
            for f in features:
                pts[:, f] = x[f]
            return gbt10k.predict_batch(pts)

        def paired_stderr(diffs):
            return diffs.std(ddof=1) / math.sqrt(bg.np_used)

        for i in range(3):
            diffs = pinned(x_obs, [i]) - pinned(x_ref, [i])
            assert decomp.stderr_first_order[i] == pytest.approx(
                paired_stderr(diffs)
            )
            for j in range(i + 1, 3):
                diffs = (
                    pinned(x_obs, [i, j]) - pinned(x_obs, [i]) - pinned(x_obs, [j])
                ) - (
                    pinned(x_ref, [i, j]) - pinned(x_ref, [i]) - pinned(x_ref, [j])
                )
                assert decomp.stderr_second_order[i, j] == pytest.approx(
                    paired_stderr(diffs)
                )

    @pytest.mark.parametrize("order, calls", [(1, 7), (2, 13)])
    def test_each_coalition_predicted_once(self, exact_priors, order, calls):
        # the plain rows once, then each singleton (and pair) at x_obs and x_ref
        bg = draw_background(exact_priors, 20, seed=17)
        model = CountingModel(3)
        decompose_deviation(model, bg, TABLE_OBS, TABLE_REF, 1.0, 0.0, order=order)
        assert model.calls == calls

    def test_non_finite_pin_rejected(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 10, seed=0)
        x_ref = np.array([1.0, math.inf, 0.0])
        with pytest.raises(ValidationError, match="finite"):
            decompose_deviation(linear_outlier, bg, TABLE_OBS, x_ref, 0.0, 0.0)

    def test_validation(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 10, seed=0)
        with pytest.raises(ValidationError):
            decompose_deviation(
                linear_outlier, bg, [1.0, 2.0], [1.0, 2.0, 3.0], 0.0, 0.0
            )
        with pytest.raises(ValidationError):
            decompose_deviation(
                linear_outlier, bg, TABLE_OBS, TABLE_REF, 0.0, 0.0, order=3
            )

    def test_report_json_decomposition(self, linear_outlier, exact_priors, outlier_data):
        # the appended outlier row is TABLE_OBS
        last = outlier_data.n - 1
        explain_settings = ExplainSettings(seed=16, np_count=50, bg_source="prior")
        report = explain(
            linear_outlier, exact_priors, outlier_data, last, "mean", explain_settings
        )
        doc = report_to_json(report)["decomposition"]
        assert doc["np_used"] == 50
        assert doc["second_order"] is None


@pytest.fixture(scope="module")
def small_gbt(synth10k):
    rows = slice(0, 300)
    data = Dataset(
        features=synth10k.features[rows],
        labels=synth10k.labels[rows],
        feature_names=synth10k.feature_names,
    )
    return fit_gbt(data, GbtParams(n_trees=20, max_depth=3))


def pin_vectors(d: int):
    value = st.floats(-4.0, 12.0, allow_nan=False, allow_infinity=False)
    return st.lists(value, min_size=d, max_size=d).map(np.array)


class TestDecomposeMatchesEffects:
    """decompose_deviation's terms are the per-term estimators' differences."""

    @staticmethod
    def check(model, bg, x_obs, x_ref):
        decomp = decompose_deviation(model, bg, x_obs, x_ref, 1.0, 0.0, order=2)
        d = bg.d_x
        for i in range(d):
            est_obs, _ = first_order_effect(model, bg, i, float(x_obs[i]))
            est_ref, _ = first_order_effect(model, bg, i, float(x_ref[i]))
            assert decomp.first_order[i] == est_obs - est_ref
            for j in range(i + 1, d):
                est_obs, _ = second_order_effect(
                    model, bg, i, j, float(x_obs[i]), float(x_obs[j])
                )
                est_ref, _ = second_order_effect(
                    model, bg, i, j, float(x_ref[i]), float(x_ref[j])
                )
                assert decomp.second_order[i, j] == est_obs - est_ref

    @settings(max_examples=25, deadline=None)
    @given(x_obs=pin_vectors(3), x_ref=pin_vectors(3))
    def test_small_gbt(self, small_gbt, exact_priors, x_obs, x_ref):
        bg = draw_background(exact_priors, 50, seed=18)
        self.check(small_gbt, bg, x_obs, x_ref)

    @settings(max_examples=25, deadline=None)
    @given(x_obs=pin_vectors(2), x_ref=pin_vectors(2))
    def test_product_model(self, x_obs, x_ref):
        bg = draw_background(standard_normal_priors(2), 50, seed=19)
        self.check(ProductModel(), bg, x_obs, x_ref)
