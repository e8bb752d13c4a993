"""Responsible scores, Shapley axioms, and the explain pipeline."""

import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from devexplain import attribution
from devexplain.anova import BackgroundSample, PRIOR_SAMPLED, decompose_deviation, draw_background
from devexplain.attribution import (
    ExplainSettings,
    explain,
    explain_many,
    mean_based_scores_equal_shap_check,
    report_rows,
    report_to_json,
    responsible_scores,
    shapley_values,
)
from devexplain.dataset import Dataset
from devexplain.errors import ValidationError
from devexplain.inverse import default_budget
from devexplain.mixtures import FeaturePriors, GaussianMixture1D, fit_priors
from devexplain.models import fit_linear, predict


class StubModel:
    """Closed-form model over integer-friendly values."""

    def __init__(self, fn, d_x):
        self.fn = fn
        self.d_x = d_x

    kind = "stub"

    def predict_batch(self, x):
        return self.fn(np.atleast_2d(x))

    def predict_one(self, x):
        return float(self.fn(np.asarray(x)[None, :])[0])


def constant_model(c, d):
    return StubModel(lambda x: np.full(x.shape[0], c), d)


def integer_background(d, n=64, seed=0):
    # integer-valued floats keep every mean exact, so axiom checks can be bitwise
    rng = np.random.default_rng(seed)
    pts = rng.integers(-4, 5, size=(n, d)).astype(float)
    return BackgroundSample(points=pts, source=PRIOR_SAMPLED, seed=seed)


@pytest.fixture(scope="module")
def fixture_model(fixture_data):
    return fit_linear(fixture_data)


@pytest.fixture(scope="module")
def fixture_priors(fixture_data):
    return fit_priors(fixture_data, 6, 0)


@pytest.fixture(scope="module")
def mode_report(fixture_model, fixture_priors, fixture_data):
    settings = ExplainSettings(seed=3, np_count=400, budget_runs=12)
    return explain(
        fixture_model, fixture_priors, fixture_data, 19, ("mode", 0), settings
    )


class TestResponsibleScores:
    def test_closure(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 300, seed=0)
        decomp = decompose_deviation(
            linear_outlier,
            bg,
            [-2.5, -1.7, -2.0],
            [7.97, 7.94, -0.11],
            -6.2,
            15.7,
            order=2,
        )
        scores = responsible_scores(decomp, 0.05, 3.0, "mode", 0)
        total = float(scores.first_order.sum()) + float(scores.second_order.sum())
        assert total + scores.residual_share == pytest.approx(1.0, abs=1e-9)
        assert not scores.degenerate
        assert scores.reference_kind == "mode"
        assert scores.mode_index == 0

    def test_degenerate_flag(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 100, seed=1)
        x = np.array([1.0, 2.0, 3.0])
        decomp = decompose_deviation(linear_outlier, bg, x, x + 0.001, 10.0, 10.001)
        scores = responsible_scores(decomp, 0.05, 3.0, "mean")
        assert scores.degenerate
        assert np.all(np.isnan(scores.first_order))
        assert math.isnan(scores.residual_share)
        assert scores.second_order is None

    def test_threshold_uses_label_scale(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 100, seed=2)
        x = np.array([0.0, 0.0, 0.0])
        decomp = decompose_deviation(linear_outlier, bg, x, x, 1.0, 0.0)
        assert responsible_scores(decomp, 0.05, 3.0, "mean").degenerate is False
        assert responsible_scores(decomp, 0.05, 100.0, "mean").degenerate is True

    def test_validation(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 10, seed=0)
        x = np.zeros(3)
        decomp = decompose_deviation(linear_outlier, bg, x, x, 5.0, 0.0)
        for tau in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                responsible_scores(decomp, tau, 3.0, "mean")
        with pytest.raises(ValidationError):
            responsible_scores(decomp, 0.05, -1.0, "mean")


class TestShapleyValues:
    def test_linear_closed_form(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 400, seed=3)
        x_obs = np.array([-2.5, -1.7, -2.0])
        shap = shapley_values(linear_outlier, bg, x_obs)
        expected = linear_outlier.coefficients * (x_obs - bg.points.mean(axis=0))
        assert shap.values == pytest.approx(expected, abs=1e-9)
        assert shap.base_value == pytest.approx(
            float(linear_outlier.predict_batch(bg.points).mean())
        )

    def test_constant_model_is_all_zero(self):
        bg = integer_background(3)
        shap = shapley_values(constant_model(7.0, 3), bg, [1.0, 2.0, 3.0])
        assert np.all(shap.values == 0.0)

    def test_dummy_feature_is_exactly_zero(self):
        model = StubModel(lambda x: 2.0 * x[:, 0] + 3.0 * x[:, 2], 3)
        bg = integer_background(3)
        shap = shapley_values(model, bg, [1.0, 5.0, 2.0])
        assert shap.values[1] == 0.0

    def test_symmetry_is_bitwise(self):
        model = StubModel(lambda x: x[:, 0] + x[:, 1] + 0.5 * x[:, 2] ** 2, 3)
        bg = integer_background(3, seed=4)
        pts = bg.points.copy()
        pts[:, 1] = pts[:, 0]
        twin_bg = BackgroundSample(points=pts, source=PRIOR_SAMPLED, seed=4)
        shap = shapley_values(model, twin_bg, [2.0, 2.0, -1.0])
        assert shap.values[0] == shap.values[1]

    def test_efficiency(self, gbt10k, outlier_data):
        bg = draw_background(outlier_data, 250, seed=5)
        x_obs = outlier_data.features[42]
        shap = shapley_values(gbt10k, bg, x_obs)
        total = math.fsum(shap.values)
        assert total == pytest.approx(
            predict(gbt10k, x_obs) - shap.base_value, abs=1e-9
        )

    def test_dimension_limit(self):
        d = 21
        bg = BackgroundSample(points=np.ones((2, d)), source=PRIOR_SAMPLED, seed=0)
        with pytest.raises(ValidationError):
            shapley_values(constant_model(0.0, d), bg, np.ones(d))

    def test_length_mismatch(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 10, seed=0)
        with pytest.raises(ValidationError):
            shapley_values(linear_outlier, bg, [1.0, 2.0])


@pytest.fixture(scope="module")
def mean_report(linear_outlier, exact_priors, outlier_data):
    settings = ExplainSettings(seed=11, np_count=1000)
    return explain(
        linear_outlier, exact_priors, outlier_data, 10000, "mean", settings
    )


class TestExplainMeanReference:
    def test_reference_is_the_data_mean(self, mean_report, outlier_data):
        assert np.array_equal(mean_report.x_ref, outlier_data.features.mean(axis=0))
        assert mean_report.y_ref == float(outlier_data.labels.mean())
        assert mean_report.reference_kind == "mean"
        assert mean_report.mode_index is None
        assert mean_report.z_m is None
        assert mean_report.map_result is None

    def test_outlier_z(self, mean_report, outlier_data):
        labels = outlier_data.labels
        expected = (-6.2 - labels.mean()) / labels.std()
        assert mean_report.z == pytest.approx(expected)
        assert mean_report.z < -3

    def test_score_closure(self, mean_report):
        scores = mean_report.scores
        assert not scores.degenerate
        assert float(scores.first_order.sum()) + scores.residual_share == pytest.approx(
            1.0, abs=1e-9
        )

    def test_scores_match_shap_for_linear(self, linear_outlier, mean_report):
        gap = mean_based_scores_equal_shap_check(linear_outlier, mean_report)
        assert gap <= 0.05

    def test_settings_echo(self, mean_report):
        assert mean_report.settings["seed"] == 11
        assert mean_report.settings["np"] == 1000
        assert mean_report.settings["budget"] is None
        assert mean_report.settings["bg_source"] == "resample"

    def test_degenerate_near_mean_row(
        self, linear_outlier, exact_priors, outlier_data
    ):
        labels = outlier_data.labels
        idx = int(np.argmin(np.abs(labels - labels.mean())))
        settings = ExplainSettings(seed=12, np_count=200)
        report = explain(
            linear_outlier, exact_priors, outlier_data, idx, "mean", settings
        )
        assert report.scores.degenerate
        assert np.all(np.isnan(report.scores.first_order))
        doc = report_to_json(report)
        assert doc["scores"]["first_order"] == [None, None, None]
        assert doc["scores"]["residual_share"] is None
        rows = report_rows(doc)
        assert all(row["score"] == "" for row in rows)

    def test_report_is_deterministic(
        self, linear_outlier, exact_priors, outlier_data
    ):
        settings = ExplainSettings(seed=13, np_count=300)
        docs = [
            json.dumps(
                report_to_json(
                    explain(
                        linear_outlier,
                        exact_priors,
                        outlier_data,
                        10000,
                        "mean",
                        settings,
                    )
                ),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert docs[0] == docs[1]

    def test_prior_background_source(self, linear_outlier, exact_priors, outlier_data):
        settings = ExplainSettings(seed=14, np_count=200, bg_source="prior")
        report = explain(
            linear_outlier, exact_priors, outlier_data, 10000, "mean", settings
        )
        assert report.settings["bg_source"] == "prior"
        assert not report.scores.degenerate


class TestExplainModeReference:
    def test_mode_reference_fields(self, mode_report):
        assert mode_report.reference_kind == "mode"
        assert mode_report.mode_index == 0
        assert mode_report.z_m is not None
        assert mode_report.map_result is not None
        # densest label bump in the bundled river data sits below the mean,
        # in the cluster of low discharge years (exact spot varies with the
        # mixture seed this pipeline derives internally)
        assert 11.5 <= mode_report.y_ref <= 13.3

    def test_reference_point_hits_the_mode(self, mode_report, fixture_model):
        f_ref = predict(fixture_model, mode_report.x_ref)
        assert abs(f_ref - mode_report.y_ref) <= 0.1

    def test_near_mean_row_is_not_degenerate_against_a_mode(self, mode_report):
        # the same row is degenerate against the mean (next test): the mode
        # reference restores a usable total deviation
        assert not mode_report.scores.degenerate
        total = float(mode_report.scores.first_order.sum())
        assert total + mode_report.scores.residual_share == pytest.approx(
            1.0, abs=1e-9
        )

    def test_same_row_is_degenerate_against_the_mean(
        self, fixture_model, fixture_priors, fixture_data
    ):
        settings = ExplainSettings(seed=3, np_count=400)
        report = explain(
            fixture_model, fixture_priors, fixture_data, 19, "mean", settings
        )
        assert report.scores.degenerate

    def test_budget_echoed(self, mode_report, fixture_priors):
        # budget_runs replaces only the restart count of the default budget
        assert mode_report.settings["budget"] == {
            **asdict(default_budget(fixture_priors)),
            "n_runs": 12,
        }

    def test_missing_mode_names_the_stage(
        self, fixture_model, fixture_priors, fixture_data
    ):
        settings = ExplainSettings(seed=3, np_count=50)
        with pytest.raises(ValidationError, match="^label-mixture: mode 99"):
            explain(
                fixture_model, fixture_priors, fixture_data, 19, ("mode", 99), settings
            )


class RecordingModel(StubModel):
    """Stub f(x) = x0 + 2 x1 + 3 x2 + x0 x1 that keeps a digest of every
    batch it predicts."""

    def __init__(self):
        super().__init__(lambda x: x @ np.arange(1.0, 4.0) + x[:, 0] * x[:, 1], 3)
        self.batches = []

    def predict_batch(self, x):
        self.batches.append(hashlib.blake2b(x.tobytes() + repr(x.shape).encode()).digest())
        return super().predict_batch(x)


class TestExplainMany:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_each_coalition_predicted_once_per_batch(
        self, fixture_priors, fixture_data, order, rows
    ):
        d = 3
        pairs = d * (d - 1) // 2
        # residuals once; the plain rows and the reference-side coalitions
        # once; each row's own singletons (and pairs) once
        expected = 1 + (1 + d + (pairs if order == 2 else 0)) + rows * (
            d + (pairs if order == 2 else 0)
        )
        if order == 1:
            # the Shapley coalitions the decomposition did not pin
            expected += rows * (2**d - 2 - d)
        settings = ExplainSettings(seed=5, np_count=40, order=order)
        model = RecordingModel()
        [batch] = explain_many(
            model, fixture_priors, fixture_data, range(rows), ["mean"], settings
        )
        assert len(model.batches) == expected
        assert len(set(model.batches)) == expected
        for index, report in enumerate(batch):
            solo = explain(model, fixture_priors, fixture_data, index, "mean", settings)
            assert report_to_json(report) == report_to_json(solo)

    @pytest.mark.parametrize("order", [1, 2])
    def test_shared_pinned_values_predicted_once(self, order):
        # rows 0 and 3 are equal, rows 0, 1 and 4 share x0, rows 0 and 2
        # share (x1, x2), row 2 ends its pins' last use before row 4 reuses
        # another; the reference (the column means) shares none of them
        features = np.array([
            [1.0, 2.0, 3.0],
            [1.0, 5.0, 6.0],
            [7.0, 2.0, 3.0],
            [1.0, 2.0, 3.0],
            [1.0, -0.0, 0.5],
            [4.0, 0.0, 0.5],
        ])
        data = Dataset(features=features, labels=np.arange(6.0) ** 2, feature_names=("a", "b", "c"))
        priors = FeaturePriors(tuple(
            GaussianMixture1D(components=((1.0, 0.0, 1.0),)) for _ in range(3)
        ))
        settings = ExplainSettings(seed=2, np_count=4, order=order)
        model = RecordingModel()
        [batch] = explain_many(model, priors, data, range(6), ["mean"], settings)
        # -0.0 and 0.0 pin different bits, so they stay apart
        assert len(model.batches) == len(set(model.batches))
        for index, report in enumerate(batch):
            solo = explain(model, priors, data, index, "mean", settings)
            assert json.dumps(report_to_json(report)) == json.dumps(report_to_json(solo))

    def test_one_public_decomposition_and_shapley_per_row(
        self, fixture_model, fixture_priors, fixture_data, monkeypatch
    ):
        calls = []
        for name in ("decompose_deviation", "shapley_values", "select_k"):

            def counted(*args, _name=name, _public=getattr(attribution, name), **kwargs):
                calls.append(_name)
                return _public(*args, **kwargs)

            monkeypatch.setattr(attribution, name, counted)
        settings = ExplainSettings(seed=5, np_count=40, order=2, budget_runs=3)
        for references, fits in [
            (["mean"], []),
            ([("mode", 0), "mean"], ["select_k"]),
            # the label mixture is fitted once, however many mode references
            ([("mode", 0), ("mode", 1)], ["select_k"]),
        ]:
            calls.clear()
            batch = explain_many(
                fixture_model, fixture_priors, fixture_data, range(3), references, settings
            )
            assert [len(reports) for reports in batch] == [3] * len(references)
            # Shapley runs once, after the first decomposition pinned the row's coalitions
            row = ["decompose_deviation", "shapley_values"]
            row += ["decompose_deviation"] * (len(references) - 1)
            assert calls == fits + row * 3, references

    def test_matches_single_calls(self, fixture_model, fixture_priors, fixture_data):
        # work shared across rows and across references must not change any report
        settings = ExplainSettings(seed=3, np_count=200, budget_runs=12)
        for references in ([("mode", 0)], [("mode", 0), "mean"]):
            batch = explain_many(
                fixture_model, fixture_priors, fixture_data, [2, 19], references, settings
            )
            assert len(batch) == len(references)
            for reference, reports in zip(references, batch):
                assert [r.observation_index for r in reports] == [2, 19]
                for report in reports:
                    solo = explain(
                        fixture_model, fixture_priors, fixture_data,
                        report.observation_index, reference, settings,
                    )
                    assert json.dumps(
                        report_to_json(report), sort_keys=True
                    ) == json.dumps(report_to_json(solo), sort_keys=True)

    def test_empty_indices(self, fixture_model, fixture_priors, fixture_data):
        settings = ExplainSettings(seed=0, np_count=10)
        assert explain_many(
            fixture_model, fixture_priors, fixture_data, [], ["mean", ("mode", 0)], settings
        ) == [[], []]

    def test_any_bad_index_rejected(self, fixture_model, fixture_priors, fixture_data):
        settings = ExplainSettings(seed=0, np_count=10)
        with pytest.raises(ValidationError):
            explain_many(
                fixture_model, fixture_priors, fixture_data, [0, 99], ["mean"], settings
            )


class TestExplainValidation:
    @pytest.mark.parametrize(
        "reference",
        ["median", ("mode", -1), ("mode", 1.5), 42, ("mean", 0, 1)],
    )
    def test_bad_reference(
        self, linear_outlier, exact_priors, outlier_data, reference
    ):
        settings = ExplainSettings(seed=0, np_count=10)
        with pytest.raises(ValidationError):
            explain(
                linear_outlier, exact_priors, outlier_data, 0, reference, settings
            )

    def test_priors_must_match_the_data_width(
        self, linear_outlier, exact_priors, outlier_data
    ):
        narrow = FeaturePriors(exact_priors.per_feature[:2])
        settings = ExplainSettings(seed=0, np_count=10)
        with pytest.raises(ValidationError, match="^priors cover 2 features, data has 3"):
            explain(linear_outlier, narrow, outlier_data, 0, "mean", settings)

    def test_index_out_of_range(self, linear_outlier, exact_priors, outlier_data):
        settings = ExplainSettings(seed=0, np_count=10)
        with pytest.raises(ValidationError):
            explain(
                linear_outlier, exact_priors, outlier_data, 10001, "mean", settings
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"np_count": 0},
            {"order": 3},
            {"k_max": 0},
            {"bg_source": "elsewhere"},
            {"np_count": 1},  # no standard error from one background row
            {"budget_runs": 0},
            {"degeneracy_tau": 0.0},
            {"degeneracy_tau": -1.0},
            {"degeneracy_tau": math.nan},
            {"degeneracy_tau": math.inf},
        ],
    )
    def test_settings_domain(self, kwargs):
        with pytest.raises(ValidationError):
            ExplainSettings(seed=0, **kwargs)


class TestShapCheckGuards:
    def test_rejects_nonlinear_model(self, gbt10k):
        # kind is checked before the report is touched
        with pytest.raises(ValidationError):
            mean_based_scores_equal_shap_check(gbt10k, None)

    def test_rejects_mode_reference(self, fixture_model, mode_report):
        with pytest.raises(ValidationError):
            mean_based_scores_equal_shap_check(fixture_model, mode_report)

    def test_rejects_degenerate_scores(
        self, fixture_model, fixture_priors, fixture_data
    ):
        settings = ExplainSettings(seed=3, np_count=200)
        report = explain(
            fixture_model, fixture_priors, fixture_data, 19, "mean", settings
        )
        assert report.scores.degenerate
        with pytest.raises(ValidationError):
            mean_based_scores_equal_shap_check(fixture_model, report)


class TestReportRows:
    def test_one_row_per_feature(self, linear_outlier, exact_priors, outlier_data):
        settings = ExplainSettings(seed=20, np_count=100)
        report = explain(
            linear_outlier, exact_priors, outlier_data, 10000, "mean", settings
        )
        rows = report_rows(report_to_json(report))
        assert [r["feature"] for r in rows] == list(report.feature_names)
        for i, row in enumerate(rows):
            assert row["observation_index"] == 10000
            assert row["delta"] == report.decomposition.first_order[i]
            assert row["shap"] == report.shap.values[i]
            assert row["mode_index"] == ""
            assert row["z_m"] == ""

    def test_json_schema_field(self, linear_outlier, exact_priors, outlier_data):
        settings = ExplainSettings(seed=21, np_count=50)
        report = explain(
            linear_outlier, exact_priors, outlier_data, 0, "mean", settings
        )
        doc = report_to_json(report)
        assert doc["schema"] == 1
        assert json.dumps(doc, sort_keys=True)
