"""1-D Gaussian mixture fitting, model selection, modes, and z-scores."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from devexplain import mixtures as mixtures_module
from devexplain.dataset import Dataset
from devexplain.errors import NumericalError, ValidationError
from devexplain.mixtures import (
    _EM_MAX_ITERS,
    FeaturePriors,
    GaussianMixture1D,
    _component_log_pdfs,
    _em_restarts,
    _em_start,
    _kmeanspp_centers,
    _log_prior_and_resp,
    bic,
    density,
    fit_gmm,
    fit_priors,
    log_density,
    log_prior,
    mixture_from_json,
    mixture_to_json,
    mode_z_score,
    modes,
    select_k,
    z_score,
)

STD_NORMAL_AT_ZERO = 1.0 / math.sqrt(2.0 * math.pi)  # 0.3989422...


def two_bump_samples(n: int, seed: int, sep: float = 5.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return signs * sep + rng.standard_normal(n)


def textbook_em(samples, k, rng, floor):
    """Plain n x k EM with fit_gmm's seeding, stopping rule and cap.

    The reference the in-place k x n loop is checked against: densities in
    linear space, every array allocated anew.  Returns the (w, mean, var)
    rows and the log-likelihood at each E-step.
    """
    n = samples.size
    centers = _kmeanspp_centers(samples, k, rng)
    assign = np.argmin(np.abs(samples[:, None] - centers[None, :]), axis=1)
    weights, means, variances = np.empty(k), np.empty(k), np.empty(k)
    for j in range(k):
        members = samples[assign == j]
        weights[j] = max(members.size, 1) / n
        means[j] = members.mean() if members.size else centers[j]
        variances[j] = max(members.var() if members.size else 0.0, floor)
    weights /= weights.sum()
    history = []
    while True:
        dens = (
            weights
            * np.exp(-((samples[:, None] - means) ** 2) / (2.0 * variances))
            / np.sqrt(2.0 * math.pi * variances)
        )
        history.append(float(np.sum(np.log(dens.sum(axis=1)))))
        if len(history) > _EM_MAX_ITERS or (
            len(history) > 1
            and abs(history[-1] - history[-2]) <= 1e-8 * max(1.0, abs(history[-1]))
        ):
            return np.column_stack([weights, means, variances]), history
        resp = dens / dens.sum(axis=1, keepdims=True)
        mass = resp.sum(axis=0)
        weights = mass / n
        means = resp.T @ samples / mass
        variances = np.maximum(
            (resp * (samples[:, None] - means) ** 2).sum(axis=0) / mass, floor
        )


def one_restart_em(samples, k, rng, floor):
    """One restart's in-place k x n EM loop, as restarts ran one at a time:
    the reference the stacked restarts must equal bit for bit."""
    n = samples.size
    weights, means, variances = _em_start(samples, k, rng, floor)
    sq = np.square(samples - means[:, None])
    resp = np.empty_like(sq)
    log_l = -math.inf
    history = []
    for step in range(mixtures_module._EM_MAX_ITERS + 1):
        np.multiply(sq, (-0.5 / variances)[:, None], out=resp)
        resp += (np.log(weights) - 0.5 * (np.log(variances) + math.log(2.0 * math.pi)))[:, None]
        peak = resp.max(axis=0)
        resp -= peak
        np.exp(resp, out=resp)
        norm = resp.sum(axis=0)
        new_log_l = float(np.sum(peak + np.log(norm)))
        history.append(new_log_l)
        converged = abs(new_log_l - log_l) <= 1e-8 * max(1.0, abs(new_log_l))
        log_l = new_log_l
        if converged or step == mixtures_module._EM_MAX_ITERS:
            break
        resp /= norm
        mass = np.maximum(resp.sum(axis=1), 1e-300)
        weights = mass / n
        means = resp @ samples / mass
        np.subtract(samples, means[:, None], out=sq)
        np.square(sq, out=sq)
        variances = np.maximum(np.einsum("kn,kn->k", resp, sq) / mass, floor)
    return GaussianMixture1D(
        components=tuple(zip(weights, means, variances)),
        fitted_n=n,
        log_likelihood=log_l,
        history=tuple(history),
        converged=converged,
    )


@st.composite
def mixtures(draw, k_max=4):
    """1-k_max components, weights normalized from positive draws."""
    k = draw(st.integers(1, k_max))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    means = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))
    # std >= 1 keeps the density below 0.4, so its log is never near 0
    stds = draw(st.lists(st.floats(1.0, 5.0), min_size=k, max_size=k))
    total = math.fsum(raw)
    return GaussianMixture1D(
        components=tuple((r / total, m, s * s) for r, m, s in zip(raw, means, stds))
    )


def textbook_log_density(gmm, y: float) -> float:
    """log sum_k w_k N(y; mu_k, var_k), shifted by the largest term."""
    terms = [
        math.log(w) - 0.5 * math.log(2.0 * math.pi * v) - (y - m) ** 2 / (2.0 * v)
        for w, m, v in gmm.components
    ]
    peak = max(terms)
    return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))


class TestGaussianMixture1D:
    def test_weight_sum_validated(self):
        with pytest.raises(ValidationError):
            GaussianMixture1D(components=((0.6, 0.0, 1.0), (0.5, 1.0, 1.0)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            GaussianMixture1D(components=((1.5, 0.0, 1.0), (-0.5, 1.0, 1.0)))

    def test_positive_variances(self):
        with pytest.raises(ValidationError):
            GaussianMixture1D(components=((1.0, 0.0, 0.0),))

    def test_sample_deterministic(self):
        gmm = GaussianMixture1D(components=((0.5, -2.0, 1.0), (0.5, 2.0, 1.0)))
        a = gmm.sample(np.random.default_rng(3), 100)
        b = gmm.sample(np.random.default_rng(3), 100)
        assert np.array_equal(a, b)

    def test_from_spec_squares_stds(self):
        gmm = mixture_from_json({"weights": [1.0], "means": [1.0], "stds": [3.0]})
        assert gmm.variances[0] == 9.0


class TestLogDensity:
    @settings(max_examples=100, deadline=None)
    @given(gmm=mixtures(), points=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=5))
    def test_matches_textbook(self, gmm, points):
        expected = [textbook_log_density(gmm, y) for y in points]
        assert log_density(gmm, np.array(points)) == pytest.approx(expected, rel=1e-12)
        for y, want in zip(points, expected):
            assert log_density(gmm, y) == pytest.approx(want, rel=1e-12)
            assert log_prior(FeaturePriors((gmm,)), [y]) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(gmm=mixtures(), points=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5))
    def test_bit_equal_to_log_prior(self, gmm, points):
        """The label density and the MAP prior reduce one mixture the same way."""
        column = log_density(gmm, np.array(points))
        prior = FeaturePriors((gmm,))
        for y, lp in zip(points, column):
            assert log_density(gmm, y) == lp == log_prior(prior, [y])


def per_feature_log_prior_and_resp(priors, x):
    """The loop the stacked tables replace: each feature's log-sum-exp
    added in order, and its responsibilities, padded with 0."""
    total = 0.0
    gamma = np.zeros(priors._mu.shape)
    for i, (gmm, v) in enumerate(zip(priors.per_feature, x)):
        log_pdfs = _component_log_pdfs(gmm, v)
        log_p = np.logaddexp.reduce(log_pdfs)
        total += float(log_p)
        gamma[i, : gmm.k] = np.exp(log_pdfs - log_p)
    return total, gamma


class TestStackedPriors:
    @settings(max_examples=300, deadline=None)
    @given(
        per_feature=st.lists(mixtures(k_max=6), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_bit_equal_to_per_feature_loop(self, per_feature, data):
        """Padding short features and reducing row-wise change no bit,
        out in the tails too."""
        priors = FeaturePriors(per_feature)
        x = np.array(data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=priors.d_x, max_size=priors.d_x
        )))
        value, gamma = _log_prior_and_resp(priors, x)
        want_value, want_gamma = per_feature_log_prior_and_resp(priors, x)
        assert value == want_value == log_prior(priors, x)
        assert np.array_equal(gamma, want_gamma)


class TestFitGmm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(2.0, 1.5, size=400)
        gmm = fit_gmm(samples, 1, 0)
        w, m, v = gmm.components[0]
        assert w == pytest.approx(1.0)
        assert m == pytest.approx(samples.mean(), abs=1e-9)
        assert v == pytest.approx(samples.var(), rel=1e-6)

    def test_two_component_recovery(self):
        samples = two_bump_samples(5000, 1)
        gmm = fit_gmm(samples, 2, 0)
        means = np.sort(gmm.means)
        assert abs(means[0] + 5.0) <= 0.15
        assert abs(means[1] - 5.0) <= 0.15
        assert np.all(np.abs(gmm.weights - 0.5) <= 0.03)

    def test_loglik_history_monotone(self):
        samples = two_bump_samples(1000, 2)
        gmm = fit_gmm(samples, 3, 5)
        hist = np.array(gmm.history)
        assert hist.size >= 1
        # EM never decreases the likelihood; allow only float-level wiggle
        assert np.all(np.diff(hist) >= -1e-7 * np.maximum(1.0, np.abs(hist[:-1])))
        assert gmm.log_likelihood == hist[-1]

    def test_reported_loglik_matches_density(self):
        samples = two_bump_samples(500, 8)
        gmm = fit_gmm(samples, 2, 1)
        recomputed = float(np.sum(log_density(gmm, samples)))
        assert gmm.log_likelihood == pytest.approx(recomputed, rel=1e-9)

    def test_reported_loglik_matches_density_at_cap(self, synth10k):
        # the winning restart stops at the iteration cap; what it reports
        # must score the components it returns, not the iterate before
        gmm = fit_gmm(synth10k.labels, 5, 3)
        assert len(gmm.history) == _EM_MAX_ITERS + 1
        assert not gmm.converged
        recomputed = float(np.sum(log_density(gmm, synth10k.labels)))
        assert gmm.log_likelihood == pytest.approx(recomputed, rel=1e-9)

    # k=3 converges after 72 E-steps; k=4 stops at the cap
    @pytest.mark.parametrize("k", [3, 4])
    def test_em_matches_textbook_loop(self, k):
        samples = two_bump_samples(1000, 0)
        floor = 1e-4 * samples.var()
        [fitted] = _em_restarts(samples, k, [np.random.default_rng(0)], floor)
        comps, history = textbook_em(samples, k, np.random.default_rng(0), floor)
        assert len(fitted.history) == len(history)
        # only summation order and log- vs linear-space rounding differ
        np.testing.assert_allclose(fitted.history, history, rtol=1e-9)
        np.testing.assert_allclose(fitted.components, comps, rtol=1e-9)
        assert fitted.log_likelihood == fitted.history[-1]
        assert fitted.converged == (k == 3)

    @settings(max_examples=60, deadline=None)
    @given(
        centers=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
        n=st.integers(8, 1200),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        cap=st.sampled_from([1, 4, 30, _EM_MAX_ITERS]),
    )
    def test_stacked_restarts_equal_one_at_a_time(self, centers, n, k, seed, cap):
        """Restarts advanced together take each restart's own steps, to the
        bit, whichever step each stops at."""
        rng = np.random.default_rng(seed)
        samples = np.asarray(centers)[rng.integers(len(centers), size=n)] + rng.standard_normal(n)
        floor = 1e-4 * samples.var()

        def rngs():
            return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(5)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mixtures_module, "_EM_MAX_ITERS", cap)
            stacked = _em_restarts(samples, k, rngs(), floor)
            alone = [one_restart_em(samples, k, r, floor) for r in rngs()]
            best = fit_gmm(samples, k, seed)
        for got, want in zip(stacked, alone, strict=True):
            assert got == want  # components, history, converged, log-likelihood
            assert len(got.history) <= cap + 1
        assert best == max(alone, key=lambda fit: fit.log_likelihood)

    def test_restarts_stop_at_different_steps(self):
        # the stack shrinks as restarts stop: here three restarts converge
        # after 82, 85 and 201 E-steps and two run to the cap
        samples = two_bump_samples(1000, 0)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(0).spawn(5)]
        fits = _em_restarts(samples, 4, rngs, 1e-4 * samples.var())
        assert len({len(fit.history) for fit in fits}) >= 3
        assert {fit.converged for fit in fits} == {True, False}

    def test_deterministic(self):
        samples = two_bump_samples(300, 4)
        assert fit_gmm(samples, 2, 9) == fit_gmm(samples, 2, 9)

    def test_variance_floor(self):
        # two exact point masses; the floor must keep variances positive
        samples = np.array([0.0] * 50 + [1.0] * 50)
        gmm = fit_gmm(samples, 2, 0)
        assert np.all(gmm.variances >= 1e-4 * samples.var())

    def test_small_sample_prefers_clusters_over_spikes(self):
        # duplicate points on a small sample must not buy their own
        # floor-variance component: BIC would reward the likelihood spike
        # if the floor were too low
        rng = np.random.default_rng(7)
        samples = np.concatenate(
            [rng.normal(12.0, 0.5, 15), rng.normal(20.0, 0.3, 3), [12.3, 12.3]]
        )
        for seed in range(10):
            gmm = select_k(samples, 6, seed)
            assert gmm.k <= 3
            # every component keeps a real share of mass
            assert np.all(gmm.weights * samples.size >= 1.5)

    def test_k_domain(self):
        with pytest.raises(ValidationError):
            fit_gmm(np.zeros(10) + np.arange(10), 0, 0)

    def test_needs_2k_samples(self):
        with pytest.raises(ValidationError):
            fit_gmm(np.arange(3.0), 2, 0)

    def test_identical_samples_degenerate(self):
        with pytest.raises(NumericalError):
            fit_gmm(np.ones(50), 1, 0)


class TestSelectK:
    def test_single_gaussian_picks_one(self):
        samples = np.random.default_rng(5).standard_normal(2000)
        assert select_k(samples, 4, 0).k == 1

    def test_three_separated_components(self):
        rng = np.random.default_rng(6)
        samples = np.concatenate(
            [rng.normal(-10, 1, 700), rng.normal(0, 1, 700), rng.normal(10, 1, 700)]
        )
        assert select_k(samples, 5, 0).k == 3

    def test_k_max_one(self):
        samples = two_bump_samples(500, 7)
        assert select_k(samples, 1, 0).k == 1

    def test_k_max_domain(self):
        with pytest.raises(ValidationError):
            select_k(np.arange(10.0), 0, 0)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError, match="at least 2 samples"):
            select_k(np.array([1.0]), 3, 0)

    def test_bic_formula(self):
        samples = two_bump_samples(400, 9)
        gmm = fit_gmm(samples, 2, 0)
        expected = -2.0 * gmm.log_likelihood + 5 * math.log(400)
        assert bic(gmm) == pytest.approx(expected)


class TestDensity:
    def test_standard_normal_at_zero(self):
        gmm = GaussianMixture1D(components=((1.0, 0.0, 1.0),))
        assert density(gmm, 0.0) == pytest.approx(STD_NORMAL_AT_ZERO, abs=1e-5)

    def test_symmetric_mixture(self):
        gmm = GaussianMixture1D(components=((0.5, -3.0, 1.0), (0.5, 3.0, 1.0)))
        for a in (0.5, 1.0, 4.2):
            assert density(gmm, -a) == pytest.approx(density(gmm, a), rel=1e-12)

    def test_integrates_to_one(self):
        gmm = GaussianMixture1D(
            components=((0.3, -4.0, 0.25), (0.3, 0.0, 1.0), (0.4, 5.0, 4.0))
        )
        lo = float(gmm.means.min() - 12 * gmm.stds.max())
        hi = float(gmm.means.max() + 12 * gmm.stds.max())
        total, _ = quad(lambda y: density(gmm, y), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_vector_input(self):
        gmm = GaussianMixture1D(components=((1.0, 0.0, 1.0),))
        values = density(gmm, np.array([0.0, 1.0]))
        assert values.shape == (2,)


class TestModes:
    def test_single_gaussian(self):
        gmm = GaussianMixture1D(components=((1.0, 3.5, 4.0),))
        found = modes(gmm)
        assert len(found) == 1
        assert found[0].location == pytest.approx(3.5, abs=1e-8)
        assert found[0].sigma_m == pytest.approx(2.0)
        assert found[0].weight == 1.0

    def test_two_bumps(self):
        gmm = GaussianMixture1D(components=((0.5, -5.0, 1.0), (0.5, 5.0, 1.0)))
        found = modes(gmm)
        assert len(found) == 2
        locs = sorted(m.location for m in found)
        # grid-scan oracle: density maxima sit just inside the component means
        grid = np.arange(-8.0, 8.0, 1e-3)
        dens = density(gmm, grid)
        left = grid[(grid < 0)][np.argmax(dens[grid < 0])]
        right = grid[(grid > 0)][np.argmax(dens[grid > 0])]
        assert abs(locs[0] - left) <= 2e-3
        assert abs(locs[1] - right) <= 2e-3

    def test_close_components_merge_to_one_mode(self):
        gmm = GaussianMixture1D(components=((0.5, -0.3, 1.0), (0.5, 0.3, 1.0)))
        assert len(modes(gmm)) == 1

    def test_sorted_by_density_descending(self):
        gmm = GaussianMixture1D(
            components=((0.2, -6.0, 1.0), (0.5, 0.0, 1.0), (0.3, 6.0, 1.0))
        )
        found = modes(gmm)
        dens = [m.density for m in found]
        assert dens == sorted(dens, reverse=True)
        assert found[0].location == pytest.approx(0.0, abs=1e-6)

    def test_mode_density_consistent(self):
        gmm = GaussianMixture1D(components=((0.4, -2.0, 0.5), (0.6, 3.0, 2.0)))
        for m in modes(gmm):
            assert m.density == pytest.approx(float(density(gmm, m.location)))
            assert m.sigma_m == pytest.approx(float(gmm.stds[m.component_index]))


class TestZScores:
    def test_mean_gives_zero(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        assert z_score(samples.mean(), samples) == 0.0

    def test_population_std_convention(self):
        # samples {0, 2}: mean 1, population std 1 -> z(3) = 2
        assert z_score(3.0, [0.0, 2.0]) == pytest.approx(2.0)

    def test_constant_samples_rejected(self):
        with pytest.raises(ValidationError):
            z_score(1.0, [2.0, 2.0])

    def test_mode_location_gives_zero(self):
        gmm = GaussianMixture1D(components=((1.0, 12.2, 0.04),))
        mode = modes(gmm)[0]
        assert mode_z_score(mode.location, mode) == 0.0

    def test_mode_z_scales_by_sigma_m(self):
        gmm = GaussianMixture1D(components=((1.0, 10.0, 4.0),))
        mode = modes(gmm)[0]
        assert mode_z_score(13.0, mode) == pytest.approx(1.5, abs=1e-8)


class TestPriors:
    def test_fit_priors_recovers_spec_means(self, trimodal_spec, synth10k):
        priors = fit_priors(synth10k, 4, 0)
        assert priors.d_x == 3
        for gmm, spec in zip(priors.per_feature, trimodal_spec.feature_specs):
            fitted = np.sort(gmm.means)
            expected = np.sort(spec.means)
            assert fitted.size == expected.size
            assert np.all(np.abs(fitted - expected) <= 0.2)

    def test_constant_plus_noise_column_gets_k1(self):
        rng = np.random.default_rng(12)
        data = Dataset(
            features=rng.normal(5.0, 0.3, size=(2000, 1)),
            labels=rng.standard_normal(2000),
            feature_names=("c",),
        )
        priors = fit_priors(data, 4, 0)
        assert priors.per_feature[0].k == 1

    def test_log_prior_standard_normals_at_origin(self):
        gmm = GaussianMixture1D(components=((1.0, 0.0, 1.0),))
        priors = FeaturePriors(per_feature=(gmm,) * 3)
        assert log_prior(priors, [0.0, 0.0, 0.0]) == pytest.approx(
            3.0 * math.log(STD_NORMAL_AT_ZERO), abs=1e-9
        )

    def test_log_prior_additive(self, exact_priors):
        x = np.array([7.5, 0.3, 4.1])
        total = sum(
            float(log_density(gmm, float(v)))
            for gmm, v in zip(exact_priors.per_feature, x)
        )
        assert log_prior(exact_priors, x) == pytest.approx(total, rel=1e-12)

    def test_log_prior_prefers_consistent_point(self, exact_priors):
        # the third feature's widest component sits at 8, so [8,8,0] beats [8,0,8]
        assert log_prior(exact_priors, [8.0, 8.0, 0.0]) > log_prior(
            exact_priors, [8.0, 0.0, 8.0]
        )

    def test_priors_from_specs_shape(self, trimodal_spec):
        priors = FeaturePriors(trimodal_spec.feature_specs)
        assert priors.d_x == 3
        assert all(gmm.k == 3 for gmm in priors.per_feature)

    def test_sample_columns_independent_shape(self, exact_priors):
        pts = exact_priors.sample(np.random.default_rng(0), 500)
        assert pts.shape == (500, 3)

    def test_log_prior_length_check(self, exact_priors):
        with pytest.raises(ValidationError):
            log_prior(exact_priors, [1.0, 2.0])


class TestMixtureJson:
    def test_roundtrip(self):
        gmm = GaussianMixture1D(components=((0.25, -1.0, 0.25), (0.75, 2.0, 2.25)))
        again = mixture_from_json(mixture_to_json(gmm))
        assert np.allclose(again.weights, gmm.weights)
        assert np.allclose(again.means, gmm.means)
        assert np.allclose(again.variances, gmm.variances)

    def test_bad_document(self):
        with pytest.raises(ValidationError):
            mixture_from_json({"weights": [1.0], "means": [0.0]})

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            mixture_from_json({"weights": [1.0], "means": [0.0], "stds": [1.0, 2.0]})
