"""Log-posterior objective, restart budgeting, and multistart MAP search."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devexplain import inverse
from devexplain.attribution import ExplainSettings, explain, report_to_json
from devexplain.dataset import _json_doc, load_csv, river_fixture_path
from devexplain.errors import NumericalError, SearchFailureError, ValidationError
from devexplain.inverse import (
    PosteriorObjective,
    SearchBudget,
    default_budget,
    dedup_radius,
    direct_search_map,
    local_maximize,
    log_posterior,
    required_runs,
)
from devexplain.mixtures import (
    FeaturePriors,
    GaussianMixture1D,
    fit_priors,
    log_density,
    log_prior,
    modes,
    select_k,
)
from devexplain.models import (
    LinearModel,
    clamp_sigma_e_squared,
    fit_linear,
    model_from_json,
    predict,
    residual_stats,
)

PAPER_POINT = np.array([7.97, 7.94, -0.11])
LATTICE = [np.array(p, dtype=float) for p in itertools.product((0.0, 4.0, 8.0), repeat=3)]


@pytest.fixture(scope="module")
def sigma2(linear_outlier, outlier_data):
    stats = residual_stats(linear_outlier, outlier_data)
    return clamp_sigma_e_squared(stats.sigma_e_squared, outlier_data.labels)


@pytest.fixture(scope="module")
def objective(linear_outlier, exact_priors, sigma2):
    return PosteriorObjective(
        model=linear_outlier, priors=exact_priors, y_target=15.7, sigma_e_squared=sigma2
    )


def gaussian_priors(mus, stds) -> FeaturePriors:
    return FeaturePriors(
        per_feature=tuple(
            GaussianMixture1D(components=((1.0, m, s * s),)) for m, s in zip(mus, stds)
        )
    )


def gaussian_map_oracle(model, mus, stds, y_target, sigma2):
    """Closed-form MAP for a linear model under independent Gaussian priors."""
    mus = np.asarray(mus, dtype=float)
    theta = model.coefficients
    d = np.asarray(stds, dtype=float) ** 2
    gain = (y_target - predict(model, mus)) / (sigma2 + theta @ (d * theta))
    return mus + d * theta * gain


class TestLogPosterior:
    def test_zero_misfit_leaves_only_prior(self, linear_outlier, exact_priors, sigma2):
        x = np.array([5.0, 6.0, 2.0])
        obj = PosteriorObjective(
            model=linear_outlier,
            priors=exact_priors,
            y_target=predict(linear_outlier, x),
            sigma_e_squared=sigma2,
        )
        assert log_posterior(obj, x) == pytest.approx(
            log_prior(exact_priors, x), rel=1e-12
        )

    def test_objective_reads_log_prior_exactly(self, linear_outlier, exact_priors, sigma2):
        # at zero misfit the MAP objective is the log-prior, bit for bit
        for x in np.random.default_rng(0).uniform(-2.0, 10.0, size=(20, 3)):
            obj = PosteriorObjective(
                model=linear_outlier,
                priors=exact_priors,
                y_target=predict(linear_outlier, x),
                sigma_e_squared=sigma2,
            )
            assert log_posterior(obj, x) == log_prior(exact_priors, x)

    def test_reported_map_beats_coarse_lattice(self, objective):
        reported = log_posterior(objective, PAPER_POINT)
        assert all(reported >= log_posterior(objective, p) for p in LATTICE)

    def test_sigma_must_be_positive(self, linear_outlier, exact_priors):
        with pytest.raises(ValidationError):
            PosteriorObjective(
                model=linear_outlier,
                priors=exact_priors,
                y_target=0.0,
                sigma_e_squared=0.0,
            )

    def test_length_check(self, objective):
        with pytest.raises(ValidationError):
            log_posterior(objective, [1.0, 2.0])


@st.composite
def mixture_priors(draw, d, min_std):
    """1-3-component priors on d features with stds >= min_std."""
    per_feature = []
    for _ in range(d):
        k = draw(st.integers(1, 3))
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
        means = draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
        stds = draw(st.lists(st.floats(min_std, 3.0), min_size=k, max_size=k))
        total = math.fsum(raw)
        per_feature.append(
            GaussianMixture1D(
                components=tuple((r / total, m, s * s) for r, m, s in zip(raw, means, stds))
            )
        )
    return FeaturePriors(per_feature)


@st.composite
def linear_objectives(draw, priors):
    """A linear model on 1-3 features under ``priors(d)``, sigma_e^2 from
    1e-10 (the clamped ridge) to 3, and a starting point."""
    d = draw(st.integers(1, 3))
    model = LinearModel(
        intercept=draw(st.floats(-5.0, 5.0)),
        coefficients=draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)),
    )
    obj = PosteriorObjective(
        model=model,
        priors=draw(priors(d)),
        y_target=draw(st.floats(-10.0, 10.0)),
        sigma_e_squared=10.0 ** draw(st.floats(-10.0, 0.5)),
    )
    x0 = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)))
    return obj, x0


def one_component_priors(d):
    floats = st.floats(-5.0, 5.0), st.floats(0.2, 3.0)
    return st.builds(gaussian_priors, *(st.lists(f, min_size=d, max_size=d) for f in floats))


class TestEmAscent:
    @settings(max_examples=200, deadline=None)
    @given(case=linear_objectives(one_component_priors))
    def test_gaussian_priors_reach_the_closed_form(self, case):
        obj, x0 = case
        mus = [gmm.means[0] for gmm in obj.priors.per_feature]
        stds = [gmm.stds[0] for gmm in obj.priors.per_feature]
        point, value, converged = local_maximize(obj, x0)
        oracle = gaussian_map_oracle(obj.model, mus, stds, obj.y_target, obj.sigma_e_squared)
        assert converged
        assert np.abs(point - oracle).max() <= 1e-9 * (1.0 + np.abs(oracle).max())

    @settings(max_examples=300, deadline=None)
    @given(case=linear_objectives(lambda d: mixture_priors(d, 0.2)))
    def test_endpoints_are_fixed_points(self, case):
        obj, x0 = case
        point, value, _ = local_maximize(obj, x0)
        assert value == log_posterior(obj, point) >= log_posterior(obj, x0)
        again, value_again, _ = local_maximize(obj, point)
        assert np.abs(again - point).max() <= dedup_radius(point)
        assert value_again - value <= 1e-9 * (1.0 + abs(value))

    def test_listed_optima_are_fixed_points(self, objective, exact_priors):
        # each listed optimum is stationary: polishing it again moves nothing
        result = direct_search_map(objective, default_budget(exact_priors), seed=0)
        for optimum in result.local_optima:
            point, value, converged = local_maximize(objective, optimum.point)
            assert converged
            assert np.abs(point - optimum.point).max() <= dedup_radius(optimum.point)
            assert value - optimum.log_posterior <= 1e-9 * (1.0 + abs(value))

    def test_two_evaluations_per_start(self, objective, monkeypatch):
        # the objective is read at the start and at the end; the EM steps
        # use the coefficients directly
        calls = [0]
        predict_one = LinearModel.predict_one

        def counting(self, x):
            calls[0] += 1
            return predict_one(self, x)

        monkeypatch.setattr(LinearModel, "predict_one", counting)
        for corner in LATTICE:
            calls[0] = 0
            local_maximize(objective, corner)
            assert calls[0] == 2


@st.composite
def tree_objectives(draw):
    """1-5 trees of depth <= 2 on 2-3 features, splitting at thresholds from
    a shared pool, under 1-3-component priors, with a starting point."""
    d = draw(st.integers(2, 3))
    pool = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6))
    trees = []
    for _ in range(draw(st.integers(1, 5))):
        arrays = {key: [] for key in ("feature", "threshold", "left", "right", "value")}

        def grow(depth):
            node = len(arrays["feature"])
            for key in ("feature", "left", "right"):
                arrays[key].append(-1)
            arrays["threshold"].append(None)
            arrays["value"].append(draw(st.floats(-3.0, 3.0)))
            if depth < 2 and draw(st.booleans()):
                arrays["feature"][node] = draw(st.integers(0, d - 1))
                arrays["threshold"][node] = draw(st.sampled_from(pool))
                arrays["left"][node] = grow(depth + 1)
                arrays["right"][node] = grow(depth + 1)
            return node

        grow(0)
        trees.append(arrays)
    model = model_from_json({
        "schema": 1,
        "kind": "gbt",
        "learning_rate": draw(st.floats(0.1, 1.0)),
        "base_score": draw(st.floats(-2.0, 2.0)),
        "n_features": d,
        "trees": trees,
    })
    obj = PosteriorObjective(
        model=model,
        priors=draw(mixture_priors(d, 0.2)),
        y_target=draw(st.floats(-6.0, 6.0)),
        sigma_e_squared=draw(st.floats(0.05, 2.0)),
    )
    x0 = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)))
    return obj, x0


def feature_log_prior(obj, i, points):
    return log_density(obj.priors.per_feature[i], np.asarray(points, dtype=float))


def cell_edges(model, i):
    """-inf, feature i's sorted split thresholds, inf."""
    thresholds = dict(model._tables()[0]).get(i, [])
    return np.concatenate([[-np.inf], thresholds, [np.inf]])


def cell_grid(lo, hi):
    """A dense grid of (lo, hi], an infinite end cut 20 past the finite one."""
    lo = max(lo, min(hi, 0.0) - 20.0)
    hi = min(hi, max(lo, 0.0) + 20.0)
    return np.linspace(lo, hi, 2001)[1:]


def line_values(obj, x, i, points):
    """The log-posterior at x with x_i set to each of ``points``, batched."""
    rows = np.repeat(x[None, :], len(points), axis=0)
    rows[:, i] = points
    misfit = obj.y_target - obj.model.predict_batch(rows)
    others = sum(feature_log_prior(obj, j, [x[j]])[0] for j in range(x.size) if j != i)
    prior = feature_log_prior(obj, i, points) + others
    return prior - misfit * misfit / (2.0 * obj.sigma_e_squared)


class TestCellAscent:
    @settings(max_examples=150, deadline=None)
    @given(case=tree_objectives())
    def test_cell_candidates_are_the_cell_maxima(self, case):
        obj, _ = case
        candidates = inverse._cell_candidates(obj)
        assert [i for i, _, _ in candidates] == list(range(obj.model.d_x))
        for i, points, log_p in candidates:
            edges = cell_edges(obj.model, i)
            assert np.array_equal(log_p, feature_log_prior(obj, i, points))
            # one candidate per cell, inside it
            cell = np.searchsorted(edges, points) - 1
            assert np.array_equal(cell, np.arange(edges.size - 1))
            for k, lp in zip(cell, log_p):
                grid = feature_log_prior(obj, i, cell_grid(edges[k], edges[k + 1]))
                assert lp >= grid.max() - 1e-9

    @settings(max_examples=150, deadline=None)
    @given(case=tree_objectives())
    def test_endpoints_are_coordinatewise_optimal(self, case):
        obj, x0 = case
        point, value, converged = local_maximize(obj, x0)
        assert converged
        assert value == log_posterior(obj, point)
        assert value >= log_posterior(obj, x0)
        tol = 1e-9 * (1.0 + abs(value))
        candidates = {i: points for i, points, _ in inverse._cell_candidates(obj)}
        for i in range(point.size):
            edges = cell_edges(obj.model, i)
            finite = edges[np.isfinite(edges)]
            line = np.concatenate([
                np.linspace(-25.0, 25.0, 2001),
                finite,
                np.nextafter(finite, np.inf),
                candidates[i],
            ])
            assert line_values(obj, point, i, line).max() <= value + tol


class TestRequiredRuns:
    def test_floor_of_one(self):
        assert required_runs(1, 0.5, 0.5) == 1

    def test_small_case(self):
        assert required_runs(4, 0.25, 0.01) == 21

    def test_lattice_case(self):
        assert required_runs(27, 0.03, 0.01) == 260

    def test_monotone_in_failure_prob(self):
        assert required_runs(4, 0.25, 0.001) > required_runs(4, 0.25, 0.01)

    @pytest.mark.parametrize(
        "k, p, beta",
        [(0, 0.5, 0.5), (2, 0.0, 0.5), (2, 1.0, 0.5), (2, 0.5, 0.0), (2, 0.5, 1.0)],
    )
    def test_domain(self, k, p, beta):
        with pytest.raises(ValidationError):
            required_runs(k, p, beta)

    def test_default_budget_multiplies_component_counts(self, exact_priors):
        budget = default_budget(exact_priors)
        assert budget.assumed_k == 27
        assert budget.min_basin_prob == pytest.approx(1.0 / 54.0)
        assert budget.n_runs == required_runs(27, 1.0 / 54.0, 0.01)

    def test_budget_validation(self):
        with pytest.raises(ValidationError):
            SearchBudget(n_runs=0, assumed_k=1, min_basin_prob=0.5, failure_prob=0.5)


class TestLocalMaximize:
    def test_stationary_start_returned(self, linear_outlier, sigma2):
        mus, stds = [2.0, 3.0, 4.0], [1.0, 2.0, 0.5]
        priors = gaussian_priors(mus, stds)
        obj = PosteriorObjective(
            model=linear_outlier, priors=priors, y_target=12.0, sigma_e_squared=sigma2
        )
        start = gaussian_map_oracle(linear_outlier, mus, stds, 12.0, sigma2)
        point, value, converged = local_maximize(obj, start)
        assert converged
        assert np.all(np.abs(point - start) <= 1e-5)
        assert value >= log_posterior(obj, start)

    def test_from_lattice_corner(self, objective, linear_outlier):
        x0 = np.array([8.0, 8.0, 0.0])
        point, value, converged = local_maximize(objective, x0)
        assert converged
        assert value >= log_posterior(objective, x0)
        assert abs(predict(linear_outlier, point) - 15.7) <= 0.05

    def test_never_below_start(self, gbt10k, exact_priors, outlier_data):
        sigma2 = clamp_sigma_e_squared(
            residual_stats(gbt10k, outlier_data).sigma_e_squared, outlier_data.labels
        )
        obj = PosteriorObjective(
            model=gbt10k, priors=exact_priors, y_target=15.7, sigma_e_squared=sigma2
        )
        rng = np.random.default_rng(0)
        for _ in range(5):
            x0 = rng.normal(4, 3, size=3)
            _, value, _ = local_maximize(obj, x0)
            assert value >= log_posterior(obj, x0)

    def test_nonfinite_start_rejected(self, linear_outlier, exact_priors):
        obj = PosteriorObjective(
            model=linear_outlier, priors=exact_priors, y_target=1e200, sigma_e_squared=1.0
        )
        with pytest.raises(NumericalError):
            local_maximize(obj, [0.0, 0.0, 0.0])

    def test_length_check(self, objective):
        with pytest.raises(ValidationError):
            local_maximize(objective, [1.0])


class TestDirectSearchMap:
    def test_unimodal_matches_closed_form(self, linear_outlier, sigma2):
        mus, stds = [2.0, 3.0, 4.0], [1.0, 2.0, 0.5]
        priors = gaussian_priors(mus, stds)
        budget = SearchBudget(
            n_runs=8, assumed_k=1, min_basin_prob=0.5, failure_prob=0.01
        )
        obj = PosteriorObjective(
            model=linear_outlier, priors=priors, y_target=12.0, sigma_e_squared=sigma2
        )
        result = direct_search_map(obj, budget, seed=0)
        oracle = gaussian_map_oracle(linear_outlier, mus, stds, 12.0, sigma2)
        # the sharp likelihood pins f(x); along-ridge placement is looser
        assert np.all(np.abs(result.map_point - oracle) <= 1e-3)
        # unimodal posterior: all restarts collapse into one cluster
        assert len(result.local_optima) == 1
        assert result.local_optima[0].hit_count == result.n_converged == 8

    def test_hit_counts_sum_to_converged(self, objective):
        budget = SearchBudget(
            n_runs=24, assumed_k=27, min_basin_prob=0.03, failure_prob=0.5
        )
        result = direct_search_map(objective, budget, seed=5)
        assert sum(o.hit_count for o in result.local_optima) == result.n_converged
        values = [o.log_posterior for o in result.local_optima]
        assert values == sorted(values, reverse=True)
        assert result.map_log_posterior == values[0]

    def test_budget_prefix_property(self, objective):
        small = SearchBudget(n_runs=6, assumed_k=27, min_basin_prob=0.03, failure_prob=0.5)
        large = SearchBudget(n_runs=12, assumed_k=27, min_basin_prob=0.03, failure_prob=0.5)
        lp_small = direct_search_map(objective, small, seed=3).map_log_posterior
        lp_large = direct_search_map(objective, large, seed=3).map_log_posterior
        assert lp_large >= lp_small - 1e-12

    def test_deterministic(self, objective):
        budget = SearchBudget(n_runs=10, assumed_k=27, min_basin_prob=0.03, failure_prob=0.5)
        a = direct_search_map(objective, budget, seed=11)
        b = direct_search_map(objective, budget, seed=11)
        assert _json_doc(a) == _json_doc(b)

    def test_all_failures_raise_with_diagnostics(self, objective, monkeypatch):
        budget = SearchBudget(n_runs=3, assumed_k=1, min_basin_prob=0.5, failure_prob=0.5)
        monkeypatch.setattr(inverse, "_MAX_ITERS", 0)
        with pytest.raises(SearchFailureError) as info:
            direct_search_map(objective, budget, seed=0)
        assert len(info.value.diagnostics) == 3

    def test_dedup_radius_scales_with_point(self):
        assert dedup_radius(np.zeros(3)) == pytest.approx(1e-3)
        assert dedup_radius(np.array([0.0, -9.0, 1.0])) == pytest.approx(1e-2)

    def test_river_fixture_mode_target(self):
        data = load_csv(river_fixture_path(), "njr")
        model = fit_linear(data)
        priors = fit_priors(data, 6, seed=0)
        sigma2 = clamp_sigma_e_squared(
            residual_stats(model, data).sigma_e_squared, data.labels
        )
        dominant = modes(select_k(data.labels, 6, seed=3))[0]
        obj = PosteriorObjective(
            model=model, priors=priors, y_target=dominant.location, sigma_e_squared=sigma2
        )
        result = direct_search_map(obj, default_budget(priors), seed=0)
        assert abs(predict(model, result.map_point) - dominant.location) <= 0.1


class TestMapResultJson:
    def test_budget_echo(self, fixture_data):
        explain_settings = ExplainSettings(seed=7, np_count=20, budget_runs=5)
        priors = fit_priors(fixture_data, 6, seed=0)
        report = explain(
            fit_linear(fixture_data), priors, fixture_data, 0, ("mode", 0), explain_settings
        )
        doc = report_to_json(report)
        assert doc["settings"]["budget"]["n_runs"] == 5
        assert doc["map_result"]["n_runs_executed"] == 5
        assert len(doc["map_result"]["local_optima"]) == len(report.map_result.local_optima)
