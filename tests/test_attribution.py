"""Responsible scores, Shapley axioms, and the explain pipeline."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devexplain import anova, attribution
from devexplain.anova import BackgroundSample, decompose_deviation, draw_background
from devexplain.attribution import (
    ExplainSettings,
    explain,
    explain_many,
    mean_based_scores_equal_shap_check,
    responsible_scores,
    shapley_values,
)
from devexplain.dataset import (
    Dataset,
    generate_synthetic,
    report_rows,
    report_to_json,
    trimodal_benchmark_spec,
)
from devexplain.errors import ValidationError
from devexplain.inverse import default_budget
from devexplain.mixtures import FeaturePriors, GaussianMixture1D, fit_priors
from devexplain.models import GbtParams, LinearModel, fit_gbt, fit_linear, predict


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
    return BackgroundSample(points=pts)


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
        twin_bg = BackgroundSample(points=pts)
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
        bg = BackgroundSample(points=np.ones((2, d)))
        with pytest.raises(ValidationError):
            shapley_values(constant_model(0.0, d), bg, np.ones(d))

    def test_length_mismatch(self, linear_outlier, exact_priors):
        bg = draw_background(exact_priors, 10, seed=0)
        with pytest.raises(ValidationError):
            shapley_values(linear_outlier, bg, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_observation(self, linear_outlier, exact_priors, bad):
        bg = draw_background(exact_priors, 10, seed=0)
        with pytest.raises(ValidationError, match="non-finite"):
            shapley_values(linear_outlier, bg, [1.0, bad, 2.0])


@st.composite
def stub_functions(draw, m):
    """f of an n x m array: linear, a sum of column products, or a small
    GBT fitted to random labels."""
    kind = draw(st.sampled_from(["linear", "products", "gbt"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "linear":
        w, b = rng.normal(size=m), rng.normal()
        return lambda x: b + x @ w
    if kind == "products":
        terms = [(rng.normal(), rng.random(m) < 0.5) for _ in range(3)]
        return lambda x: sum(c * np.prod(x[:, cols], axis=1) for c, cols in terms)
    train = Dataset(
        features=rng.normal(size=(40, m)),
        labels=rng.normal(size=40),
        feature_names=tuple(f"x{i}" for i in range(m)),
    )
    return fit_gbt(train, GbtParams(n_trees=5, max_depth=2)).predict_batch


@st.composite
def backgrounds(draw, d):
    """2-30 background rows and an observation, of one random scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-2, 1e2))
    n = draw(st.integers(2, 30))
    return rng.normal(0.0, scale, size=(n, d)), rng.normal(0.0, scale, size=d)


def shapley_of(fn, points, x_obs):
    bg = BackgroundSample(points=points)
    return shapley_values(StubModel(fn, len(x_obs)), bg, x_obs)


class TestShapleyAxioms:
    """Efficiency, dummy and symmetry over random models and backgrounds."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 5), data=st.data())
    def test_efficiency(self, d, data):
        fn = data.draw(stub_functions(d))
        points, x_obs = data.draw(backgrounds(d))
        shap = shapley_of(fn, points, x_obs)
        # the largest |f| over every coalition's pinned rows
        scale = 0.0
        for mask in range(1 << d):
            pinned = points.copy()
            coalition = [i for i in range(d) if mask >> i & 1]
            pinned[:, coalition] = x_obs[coalition]
            scale = max(scale, float(np.abs(fn(pinned)).max()))
        gap = math.fsum(shap.values) - (float(fn(x_obs[None, :])[0]) - shap.base_value)
        assert abs(gap) <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 5), data=st.data())
    def test_ignored_feature_is_exactly_zero(self, d, data):
        ignored = data.draw(st.integers(0, d - 1))
        used = [i for i in range(d) if i != ignored]
        fn = data.draw(stub_functions(d - 1))
        points, x_obs = data.draw(backgrounds(d))
        shap = shapley_of(lambda x: fn(x[:, used]), points, x_obs)
        assert shap.values[ignored] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 5), data=st.data())
    def test_twin_features_are_bitwise_equal(self, d, data):
        i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        rest = [k for k in range(d) if k not in (i, j)]
        # f reads the pair only through x_i + x_j and x_i * x_j, which
        # round the same either way round
        fn = data.draw(stub_functions(d))
        points, x_obs = data.draw(backgrounds(d))
        points[:, j], x_obs[j] = points[:, i], x_obs[i]

        def twin(x):
            return fn(np.column_stack([x[:, i] + x[:, j], x[:, i] * x[:, j], x[:, rest]]))

        shap = shapley_of(twin, points, x_obs)
        assert shap.values[i] == shap.values[j]


@pytest.fixture(scope="module")
def mean_report(linear_outlier, exact_priors, outlier_data):
    settings = ExplainSettings(seed=11, np_count=1000)
    return explain(
        linear_outlier, exact_priors, outlier_data, 10000, "mean", settings
    )


def loop_shapley(fn, points, x_obs):
    """The enumeration shapley_values first shipped with, as an oracle: v(S)
    per mask, then per feature a list of weighted marginals summed by fsum."""
    d = x_obs.size
    v = np.empty(1 << d)
    for mask in range(1 << d):
        coalition = [i for i in range(d) if mask >> i & 1]
        pinned = points.copy()
        pinned[:, coalition] = x_obs[coalition]
        v[mask] = float(np.mean(fn(pinned)))
    fact = [math.factorial(i) for i in range(d + 1)]
    weight = [fact[s] * fact[d - s - 1] / fact[d] for s in range(d)]
    values = np.empty(d)
    for i in range(d):
        contrib = []
        for mask in range(1 << d):
            if mask >> i & 1:
                continue
            s = mask.bit_count()
            contrib.append(weight[s] * (v[mask | (1 << i)] - v[mask]))
        values[i] = math.fsum(contrib)
    return values


class TestShapleyBits:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 7), data=st.data())
    def test_values_match_the_loop_oracle_bitwise(self, d, data):
        points, x_obs = data.draw(backgrounds(d))
        if d > 1 and data.draw(st.booleans()):
            ignored = data.draw(st.integers(0, d - 1))
            used = [i for i in range(d) if i != ignored]
            fn = data.draw(stub_functions(d - 1))
            model = StubModel(lambda x: fn(x[:, used]), d)
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            model = LinearModel(float(rng.normal()), rng.normal(size=d))
        shap = shapley_values(model, BackgroundSample(points=points), x_obs)
        oracle = loop_shapley(model.predict_batch, points, x_obs)
        assert shap.values.tobytes() == oracle.tobytes()


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
        # no residuals (a mean reference runs no MAP search); the plain rows
        # and the reference-side coalitions once; each row's own coalitions,
        # every one of the 2**d Shapley pins but the plain rows, once
        expected = (1 + d + (pairs if order == 2 else 0)) + rows * (2**d - 1)
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

    @pytest.mark.parametrize("call", ["shapley_values", "explain_many"])
    def test_peak_below_one_full_table(self, call):
        # a point's 2**d coalitions over NP background rows would take
        # 2**d * NP * 8 bytes (6.6 MB here) as one table; no pass builds one
        d, np_count = 12, 200
        rng = np.random.default_rng(0)
        model = LinearModel(0.5, rng.normal(size=d))
        data = Dataset(
            features=rng.normal(size=(np_count, d)),
            labels=rng.normal(size=np_count),
            feature_names=tuple(f"x{i}" for i in range(d)),
        )
        settings = ExplainSettings(seed=0, np_count=np_count)
        bg = draw_background(data, np_count, seed=0)
        tracemalloc.start()
        try:
            if call == "shapley_values":
                shapley_values(model, bg, data.features[0])
            else:
                explain_many(model, None, data, [0], ["mean"], settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << d) * np_count * 8

    def test_priors_read_only_by_the_map_search_and_a_prior_background(
        self, fixture_model, fixture_priors, fixture_data
    ):
        settings = ExplainSettings(seed=5, np_count=40)
        without = explain(fixture_model, None, fixture_data, 3, "mean", settings)
        with_priors = explain(fixture_model, fixture_priors, fixture_data, 3, "mean", settings)
        assert report_to_json(without) == report_to_json(with_priors)
        for reference, bg_source in ((("mode", 0), "resample"), ("mean", "prior")):
            with pytest.raises(ValidationError, match="needs priors"):
                explain(
                    fixture_model, None, fixture_data, 3, reference,
                    replace(settings, bg_source=bg_source),
                )

    @pytest.mark.parametrize("order", [1, 2])
    def test_shared_pinned_values_predicted_per_row(self, order):
        # rows 0 and 3 are equal, rows 0, 1 and 4 share x0, rows 0 and 2
        # share (x1, x2), rows 4 and 5 pin -0.0 and 0.0: each row still gets a
        # table of its own, and only the plain rows are predicted once for all
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
        d, rows, refs = 3, 6, 1
        reference_side = sum(math.comb(d, k) for k in range(1, order + 1))
        assert len(model.batches) == 1 + rows * (2**d - 1) + refs * reference_side
        for index, report in enumerate(batch):
            solo = explain(model, priors, data, index, "mean", settings)
            assert json.dumps(report_to_json(report)) == json.dumps(report_to_json(solo))

    def test_one_table_per_row_and_per_reference(
        self, fixture_model, fixture_priors, fixture_data, monkeypatch
    ):
        calls = []

        def spy(name, inner):
            def spied(*args, **kwargs):
                out = inner(*args, **kwargs)
                calls.append((name, args, kwargs, out))
                return out

            return spied

        monkeypatch.setattr(anova._Coalitions, "table", spy("table", anova._Coalitions.table))
        for name in ("_shapley", "_decompose", "select_k"):
            monkeypatch.setattr(attribution, name, spy(name, getattr(attribution, name)))
        settings = ExplainSettings(seed=5, np_count=40, order=2, budget_runs=3)
        d = fixture_data.d_x
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
            # a pass over the coalitions of order-many features per reference,
            # then per row one pass over all of them: Shapley reads its means,
            # every decomposition its rows of at most order features
            row = ["table", "_shapley"] + ["_decompose"] * len(references)
            assert [name for name, *_ in calls] == (
                fits + ["table"] * len(references) + row * 3
            ), references
            tables = [(args[2], kwargs) for name, args, kwargs, _ in calls if name == "table"]
            assert tables == [(2, {})] * len(references) + [(d, {"keep": 2})] * 3
            ref_rows = [out[1] for *_, out in calls[len(fits):][: len(references)]]
            assert all(rows.shape == (1 + d + math.comb(d, 2), 40) for rows in ref_rows)
            for name, args, _, out in calls[len(fits) + len(references):]:
                if name == "table":
                    (v, rows), refs_read = out, iter(ref_rows)
                    assert v.shape == (1 << d,) and rows.shape == ref_rows[0].shape
                elif name == "_shapley":
                    assert args[0] is v
                else:
                    assert args[0] is rows and args[1] is next(refs_read)

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

    def test_too_many_features_refused_before_any_stage(self, monkeypatch):
        d = 21
        rng = np.random.default_rng(0)
        data = Dataset(
            features=rng.normal(size=(30, d)),
            labels=rng.normal(size=30),
            feature_names=tuple(f"x{i}" for i in range(d)),
        )
        priors = FeaturePriors(tuple(
            GaussianMixture1D(components=((1.0, 0.0, 1.0),)) for _ in range(d)
        ))
        ran = []
        for name in ("residual_stats", "select_k", "direct_search_map", "draw_background"):

            def refused(*args, _name=name, **kwargs):
                ran.append(_name)
                raise AssertionError(f"{_name} ran")

            monkeypatch.setattr(attribution, name, refused)
        settings = ExplainSettings(seed=0, np_count=10, budget_runs=50, bg_source="prior")
        with pytest.raises(ValidationError, match="d_x <= 20, got 21"):
            explain_many(
                LinearModel(0.0, np.ones(d)), priors, data, [0], [("mode", 0), "mean"], settings
            )
        assert ran == []

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

    @pytest.mark.parametrize(("n_rows", "size"), [(2, 2), (57, 57), (2000, 2000), (10001, 2000)])
    def test_background_size(self, n_rows, size):
        # the one default of the library and the CLI: every row, at most 2,000
        assert ExplainSettings(seed=0).background_size(n_rows) == size
        assert ExplainSettings(seed=0, np_count=7).background_size(n_rows) == 7

    def test_default_background_needs_two_rows(self):
        with pytest.raises(ValidationError, match="np_count must be >= 2"):
            ExplainSettings(seed=0).background_size(1)


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


@pytest.fixture(scope="module")
def noisy_trimodal():
    """300 trimodal rows with label noise, and the mean-reference reports of
    rows 0-9 under a linear model fitted to them."""
    data = generate_synthetic(replace(trimodal_benchmark_spec(), label_noise_std=1.0), 300, 3)
    return data, mean_reports(data)


def mean_reports(data):
    settings = ExplainSettings(seed=3, np_count=200)
    return explain_many(fit_linear(data), None, data, range(10), ["mean"], settings)[0]


class TestMeanReferenceUnderRelabelling:
    # Reordering the feature columns and mapping the labels y -> a y + c
    # (a > 0) must permute the scores, permute the Shapley values and scale
    # them by a, and leave z alone, up to rounding.  The gaps grow with
    # |c| / a, as the shifted labels round at eps |c|.  Over 300 random draws
    # of this range, its corners and all six orders, a sweep saw at most
    # 2.4e-11 in the scores, 2.4e-13 in the Shapley values relative to the
    # row's largest, and 1.1e-13 in z; each bound is ten times that.
    @settings(max_examples=25, deadline=None)
    @given(
        order=st.permutations(range(3)),
        a=st.floats(0.25, 4.0),
        c=st.floats(-1000.0, 1000.0),
    )
    def test_scores_follow_the_features_and_the_label_map(self, noisy_trimodal, order, a, c):
        data, base = noisy_trimodal
        order = list(order)
        changed = Dataset(
            features=data.features[:, order],
            labels=a * data.labels + c,
            feature_names=tuple(data.feature_names[i] for i in order),
        )
        for before, after in zip(base, mean_reports(changed)):
            scores = after.scores.first_order - before.scores.first_order[order]
            assert np.max(np.abs(scores)) <= 2.5e-10
            shap = a * before.shap.values[order]
            assert np.max(np.abs(after.shap.values - shap)) <= 2.5e-12 * np.max(np.abs(shap))
            assert abs(after.z - before.z) <= 1.1e-12


RELABEL_SETTINGS = ExplainSettings(seed=3, np_count=500, k_max=4)


def linear_mode_reports(data):
    """Rows 0-9 against mode 0 under a linear model, priors fitted at seed 3."""
    return explain_many(fit_linear(data), fit_priors(data, 4, 3), data, range(10),
                        [("mode", 0)], RELABEL_SETTINGS)[0]


def gbt_mean_reports(data):
    """Rows 0-9 against the mean under a 30-tree GBT."""
    return explain_many(fit_gbt(data, GbtParams(n_trees=30)), None, data, range(10),
                        ["mean"], RELABEL_SETTINGS)[0]


@pytest.fixture(scope="module")
def trimodal2k():
    """The benchmark's 2,000 trimodal rows (data seed 3), and their linear
    mode and GBT mean reports."""
    data = generate_synthetic(trimodal_benchmark_spec(), 2000, 3)
    return data, linear_mode_reports(data), gbt_mean_reports(data)


def relabelled(data, order, a, c):
    return Dataset(
        features=data.features[:, order],
        labels=a * data.labels + c,
        feature_names=tuple(data.feature_names[i] for i in order),
    )


class TestReferencesUnderRelabelling:
    """The linear mode and the GBT mean references of the same 2,000 rows
    under reordered columns and mapped labels.  Each bound is ten times the
    worst gap of a sweep; the cases below lie in its ranges."""

    # All six column orders times eight shifts c in [-1000, 1000] (a = 1) saw
    # at most 1.07e-5 in the scores and 7.7e-6 in x_ref, 7.0e-14 in the
    # Shapley values relative to the row's largest, 3.0e-14 in z, 5.8e-10 in
    # z_m and 9.3e-10 in y_ref.  The scores and x_ref move because
    # fit_priors seeds each column by its position, so a reordered prior is
    # refitted from another seed and EM stops at its 1e-8 relative
    # tolerance.  A scale a != 1 is left out: the stop test is relative to
    # the log-likelihood, which y -> a y shifts by n ln a, so a = 2 stops
    # the label fit at another step and moves y_ref by 4.4e-3 relative.
    @pytest.mark.parametrize(
        "order, c",
        [((1, 2, 0), 0.0), ((2, 0, 1), 1000.0), ((0, 2, 1), -1000.0),
         ((1, 0, 2), 371.5), ((2, 1, 0), -42.25)],
    )
    def test_linear_mode_reference(self, trimodal2k, order, c):
        data, base, _ = trimodal2k
        order = list(order)
        for before, after in zip(base, linear_mode_reports(relabelled(data, order, 1.0, c))):
            assert np.max(np.abs(after.scores.first_order - before.scores.first_order[order])) <= 1.1e-4
            assert np.max(np.abs(after.x_ref - before.x_ref[order])) <= 7.7e-5
            shap = before.shap.values[order]
            assert np.max(np.abs(after.shap.values - shap)) <= 7e-13 * np.max(np.abs(shap))
            assert abs(after.z - before.z) <= 3e-13
            assert abs(after.z_m - before.z_m) <= 5.8e-9
            assert abs(after.y_ref - (before.y_ref + c)) <= 9.3e-9

    # All six orders at the corners a in {0.25, 4}, c in {-1000, 1000}, and
    # 300 draws of (order, a in [0.25, 4], c in [-1000, 1000]), saw at most
    # 5.9e-13 in the scores, 4.8e-13 in the Shapley values relative to the
    # row's largest and 9.7e-14 in z: the 30 trees split no tie that the
    # column order decides (tree 64 of the default 300-tree fit does).
    @pytest.mark.parametrize(
        "order, a, c",
        [((2, 0, 1), 1.0, 0.0), ((0, 1, 2), 0.25, -1000.0), ((1, 2, 0), 4.0, 1000.0),
         ((2, 1, 0), 0.25, 1000.0), ((1, 0, 2), 3.1, -640.0), ((0, 2, 1), 4.0, -1000.0)],
    )
    def test_gbt_mean_reference(self, trimodal2k, order, a, c):
        data, _, base = trimodal2k
        order = list(order)
        for before, after in zip(base, gbt_mean_reports(relabelled(data, order, a, c))):
            assert np.max(np.abs(after.scores.first_order - before.scores.first_order[order])) <= 5.9e-12
            shap = a * before.shap.values[order]
            assert np.max(np.abs(after.shap.values - shap)) <= 4.8e-12 * np.max(np.abs(shap))
            assert abs(after.z - before.z) <= 9.7e-13
