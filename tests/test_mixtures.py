"""1-D Gaussian mixture fitting, model selection, modes, and z-scores."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devexplain import mixtures as mixtures_module
from devexplain.dataset import Dataset, generate_synthetic, trimodal_benchmark_spec
from devexplain.errors import NumericalError, ValidationError
from devexplain.mixtures import (
    _EM_MAX_ITERS,
    _EM_RESTARTS,
    _EM_SHORT_RUN,
    FeaturePriors,
    GaussianMixture1D,
    _component_log_pdfs,
    _em_map,
    _em_restarts,
    _em_start,
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


def textbook_step(samples, components, floor):
    """One plain n x k EM step in x units from (w, mean, var) rows.

    The reference the moment-form map is checked against: x units,
    densities in linear space, every array allocated anew.  Returns the
    log-likelihood of ``components`` and the next (w, mean, var) rows.
    """
    weights, means, variances = np.asarray(components, dtype=float).T
    dens = (
        weights
        * np.exp(-((samples[:, None] - means) ** 2) / (2.0 * variances))
        / np.sqrt(2.0 * math.pi * variances)
    )
    resp = dens / dens.sum(axis=1, keepdims=True)
    mass = resp.sum(axis=0)
    means = resp.T @ samples / mass
    variances = np.maximum((resp * (samples[:, None] - means) ** 2).sum(axis=0) / mass, floor)
    return float(np.sum(np.log(dens.sum(axis=1)))), np.column_stack([mass / samples.size, means, variances])


def em_map_x_units(samples, components, floor):
    """``_em_map`` on one restart, with x-unit input and output, as
    ``_em_restarts`` standardizes the samples."""
    center, scale = samples.mean(), samples.std()
    z = (samples - center) / scale
    theta = np.asarray(components, dtype=float).T.copy()[None]
    theta[:, 1] = (theta[:, 1] - center) / scale
    theta[:, 2] /= scale * scale
    resp = np.empty((1, theta.shape[2], samples.size))
    powers = np.stack([np.ones(samples.size), z, z * z])
    [log_l], [mapped] = _em_map(theta, powers, floor / (scale * scale), resp)
    mapped[1] = center + scale * mapped[1]
    mapped[2] *= scale * scale
    return float(log_l - samples.size * math.log(scale)), mapped.T


def one_restart_em(samples, k, rng, floor, cut=None):
    """One restart's SQUAREM loop with its own k x n moment-form map, as a
    restart runs alone: the reference the stacked restarts must equal bit
    for bit.  With ``cut``, the log-likelihood the cut weighs instead: the
    last kept one at the end of the first cycle that reaches ``cut``
    E-steps, or the final fit's when the restart stops before."""
    n = samples.size
    cap = mixtures_module._EM_MAX_ITERS
    center, scale = samples.mean(), samples.std()
    z = (samples - center) / scale
    powers = np.stack([np.ones(n), z, z * z])
    theta = np.array(_em_start(samples, k, rng, floor))
    theta[1] = (theta[1] - center) / scale
    theta[2] /= scale * scale
    floor = floor / (scale * scale)
    log_scale = n * math.log(scale)

    def em_map(theta):
        weights, means, variances = theta
        half_prec = -0.5 / variances
        coef = np.column_stack(
            (
                np.log(weights)
                - 0.5 * (np.log(variances) + math.log(2.0 * math.pi))
                + half_prec * means * means,
                -2.0 * half_prec * means,
                half_prec,
            )
        )
        resp = coef @ powers
        peak = resp.max(axis=0)
        resp -= peak
        np.exp(resp, out=resp)
        norm = resp.sum(axis=0)
        moments = resp @ (powers * (1.0 / norm)).T
        mass = np.maximum(moments[:, 0], 1e-300)
        means = moments[:, 1] / mass
        variances = np.maximum(moments[:, 2] / mass - means * means, floor)
        log_l = float(np.sum(peak + np.log(norm))) - log_scale
        return log_l, np.array([mass / n, means, variances])

    history = []
    step_max = 1.0
    spent = 0
    while True:
        log_0, theta1 = em_map(theta)
        log_1, theta2 = em_map(theta1)
        spent += 2
        history += [log_0, log_1]
        converged = abs(log_1 - log_0) <= 1e-8 * max(1.0, abs(log_1))
        if converged or spent >= cap:
            break
        r = theta1 - theta
        v = theta2 - theta1 - r
        rr, vv = np.sum(r * r), np.sum(v * v)
        if vv > 0:
            alpha = min(max(math.sqrt(rr / vv), 1.0), step_max)
        else:
            alpha = step_max if rr > 0 else 1.0
        jump = theta + 2.0 * alpha * r + alpha * alpha * v
        valid = bool(
            np.all(np.isfinite(jump)) and np.all(jump[0] > 0.0) and np.all(jump[2] >= floor)
        )
        if valid:
            jump[0] /= jump[0].sum()
        at = jump if valid else theta2
        log_2, theta3 = em_map(at)
        spent += 1
        accept = valid and log_2 >= log_1
        if accept or not valid:
            history.append(log_2)
        if accept:
            step_max = 4.0 * step_max if alpha == step_max else step_max
        else:
            step_max = max(step_max / 4.0, 1.0)
        theta = theta3 if accept or not valid else theta2
        if cut is not None and spent >= cut:
            break
    if cut is not None:
        return history[-1]
    weights, means, variances = theta1
    return GaussianMixture1D(
        components=tuple(zip(weights, center + scale * means, variances * (scale * scale))),
        fitted_n=n,
        log_likelihood=history[-1],
        history=tuple(history),
        converged=converged,
        n_iter=spent,
    )


def plain_em_log_likelihood(samples, k, rng, floor, max_steps=20_000):
    """Log-likelihood that plain (unaccelerated) EM reaches from the same
    start as ``_em_restarts``, after up to ``max_steps`` map evaluations.

    It stops early once one step changes the log-likelihood by at most
    1e-15 relative: at EM's linear rate rho, what remains is then that
    change over (1 - rho), below 1e-10 relative unless rho > 1 - 1e-5."""
    components = np.column_stack(_em_start(samples, k, rng, floor))
    log_l = -math.inf
    for _ in range(max_steps):
        new_log_l, components = em_map_x_units(samples, components, floor)
        if abs(new_log_l - log_l) <= 1e-15 * abs(new_log_l):
            break
        log_l = new_log_l
    return max(log_l, new_log_l)


# far cluster distance from the bulk (in bulk stds), far cluster std and
# offset of all samples; k cycles through 2..4 so that every pair of values
# of two of those three meets every k
HARD_CASES = [
    (far, std, offset, 2 + (i + j + m) % 3)
    for i, far in enumerate([5.0, 20.0, 100.0, 1000.0])
    for j, std in enumerate([1.0, 0.01, 1e-3])
    for m, offset in enumerate([0.0, 1e3, -5e4])
]


@st.composite
def mixtures(draw, k_max=4):
    """1-k_max components, weights normalized from draws that are zero or
    positive, one of them positive."""
    k = draw(st.integers(1, k_max))
    raw = draw(st.lists(st.just(0.0) | st.floats(0.05, 1.0), min_size=k, max_size=k))
    raw[draw(st.integers(0, k - 1))] = draw(st.floats(0.05, 1.0))
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
        if w > 0  # a zero-weight component adds nothing
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

    @pytest.mark.parametrize(
        "component, name",
        [
            ((math.nan, 0.0, 1.0), "weights"),
            ((math.inf, 0.0, 1.0), "weights"),
            ((1.0, math.nan, 1.0), "means"),
            ((1.0, math.inf, 1.0), "means"),
            ((1.0, -math.inf, 1.0), "means"),
            ((1.0, 0.0, math.nan), "variances"),
            ((1.0, 0.0, math.inf), "variances"),
        ],
    )
    def test_non_finite_parameter_named(self, component, name):
        # a NaN weight passes both the sign and the sum test
        with pytest.raises(ValidationError, match=f"^mixture {name} must be finite"):
            GaussianMixture1D(components=(component,))

    def test_sample_deterministic(self):
        gmm = GaussianMixture1D(components=((0.5, -2.0, 1.0), (0.5, 2.0, 1.0)))
        a = gmm.sample(np.random.default_rng(3), 100)
        b = gmm.sample(np.random.default_rng(3), 100)
        assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        gmm=mixtures(k_max=8),
        n=st.sampled_from([0, 1, 7, 2000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_draws_as_rng_choice(self, gmm, n, seed):
        # the same components, normals and stream position as rng.choice
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = gmm.sample(rng, n)
        comps = twin.choice(gmm.k, size=n, p=gmm.weights)
        expected = gmm.means[comps] + gmm.stds[comps] * twin.standard_normal(n)
        assert got.tobytes() == expected.tobytes()
        assert rng.random() == twin.random()

    def test_zero_weight_component_is_silent(self):
        # its log-weight is -inf, the padding FeaturePriors uses, and no warning
        alone = GaussianMixture1D(components=((1.0, 2.0, 4.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gmm = GaussianMixture1D(components=((0.0, -5.0, 1.0), (1.0, 2.0, 4.0)))
            draws = gmm.sample(np.random.default_rng(0), 500)
            points = np.linspace(-8.0, 8.0, 9)
            assert log_density(gmm, points).tobytes() == log_density(alone, points).tobytes()
            found = modes(gmm)
        assert draws.tobytes() == alone.sample(np.random.default_rng(0), 500).tobytes()
        assert [(m.location, m.density) for m in found] == [
            (m.location, m.density) for m in modes(alone)
        ]

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

    def test_cap_falls_on_the_stop_test(self):
        # the one stop test follows E-step 3c + 2, so the cap is met exactly
        assert _EM_MAX_ITERS % 3 == 2

    def test_reported_loglik_matches_density_at_cap(self, synth10k):
        # the winning restart stops at the E-step cap; what it reports must
        # score the components it returns, not an iterate before them.  At
        # cap 29 every restart stops before the cut; at 32 and 35 the leader
        # goes on alone past it.
        for cap in (29, 32, 35):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mixtures_module, "_EM_MAX_ITERS", cap)
                gmm = fit_gmm(synth10k.labels, 5, 3)
            assert gmm.n_iter == cap
            assert not gmm.converged
            assert gmm.log_likelihood == gmm.history[-1]
            recomputed = float(np.sum(log_density(gmm, synth10k.labels)))
            assert gmm.log_likelihood == pytest.approx(recomputed, rel=1e-9)

    # k=3 converges after 29 E-steps; k=4 stops at the cap
    @pytest.mark.parametrize("k", [3, 4])
    def test_em_matches_textbook_loop(self, k):
        """One map evaluation is one textbook x-unit EM step, at the
        k-means++ start and at the returned fit."""
        samples = two_bump_samples(1000, 0)
        floor = 1e-4 * samples.var()
        [fitted] = _em_restarts(samples, k, [np.random.default_rng(0)], floor)
        assert fitted.converged == (k == 3)
        start = np.column_stack(_em_start(samples, k, np.random.default_rng(0), floor))
        for at in (start, fitted.components):
            log_l, mapped = em_map_x_units(samples, at, floor)
            want_log_l, want = textbook_step(samples, at, floor)
            # only summation order and log- vs linear-space rounding differ
            assert log_l == pytest.approx(want_log_l, rel=1e-9)
            np.testing.assert_allclose(mapped, want, rtol=1e-9)
        assert em_map_x_units(samples, fitted.components, floor)[0] == pytest.approx(
            fitted.log_likelihood, rel=1e-12
        )

    @pytest.mark.parametrize(("far", "std", "offset", "k"), HARD_CASES)
    def test_em_matches_textbook_loop_on_hard_data(self, far, std, offset, k):
        """Standardizing keeps the moment-form map as accurate as the
        textbook step on far, tight and offset clusters."""
        seed = HARD_CASES.index((far, std, offset, k))
        rng = np.random.default_rng(seed)
        bulk = rng.standard_normal(300)
        samples = offset + np.concatenate([bulk, far + std * rng.standard_normal(40)])
        floor = 1e-4 * samples.var()
        [fitted] = _em_restarts(samples, k, [np.random.default_rng(seed)], floor)
        start = np.column_stack(_em_start(samples, k, np.random.default_rng(seed), floor))
        for at in (start, fitted.components):
            log_l, mapped = em_map_x_units(samples, at, floor)
            want_log_l, want = textbook_step(samples, at, floor)
            assert log_l == pytest.approx(want_log_l, rel=1e-9)
            np.testing.assert_allclose(mapped, want, rtol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        centers=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
        n=st.integers(8, 1200),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        cap=st.sampled_from([2, 5, 32, _EM_MAX_ITERS]),
    )
    def test_stacked_restarts_equal_one_at_a_time(self, centers, n, k, seed, cap):
        """Restarts advanced together take each restart's own steps, to the
        bit, whichever step each stops at; and ``fit_gmm`` returns the full
        run of the restart that leads after the short runs."""
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
            short = [one_restart_em(samples, k, r, floor, _EM_SHORT_RUN) for r in rngs()]
        for got, want in zip(stacked, alone, strict=True):
            assert got == want  # components, history, converged, n_iter, log-likelihood
            assert len(got.history) <= got.n_iter <= cap
        # the first of the best, as restarts are listed
        lead = max(range(len(short)), key=short.__getitem__)
        assert best == alone[lead]

    @settings(max_examples=25, deadline=None)
    @given(
        n_clusters=st.integers(2, 3),
        n=st.integers(60, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_acceleration_loses_no_likelihood(self, n_clusters, n, seed):
        """On well-separated clusters (>= 5.3 stds apart) the accelerated
        fit reaches at least the log-likelihood of plain EM from the same
        start, less 1e-6 relative, both given 20,000 E-steps.  (At the
        default 500-step cap a start that leaves two components on one
        cluster can stop short: seed 3461897003 with 3 clusters and n = 401
        ends 3.7e-4 relative below plain EM's limit.)"""
        rng = np.random.default_rng(seed)
        centers = 8.0 * np.arange(n_clusters) + rng.uniform(-1.0, 1.0, n_clusters)
        stds = rng.uniform(0.5, 1.5, n_clusters)
        pick = rng.integers(n_clusters, size=n)
        samples = centers[pick] + stds[pick] * rng.standard_normal(n)
        floor = 1e-4 * samples.var()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mixtures_module, "_EM_MAX_ITERS", 20_000)
            [fitted] = _em_restarts(samples, n_clusters, [np.random.default_rng(seed)], floor)
        plain = plain_em_log_likelihood(samples, n_clusters, np.random.default_rng(seed), floor)
        assert fitted.log_likelihood >= plain - 1e-6 * abs(plain)

    def test_restarts_stop_at_different_steps(self):
        # the stack shrinks as restarts stop: at a 101 E-step cap three
        # restarts converge after 29, 29 and 65 E-steps and two stop at it
        samples = two_bump_samples(1000, 0)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(0).spawn(5)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mixtures_module, "_EM_MAX_ITERS", 101)
            fits = _em_restarts(samples, 4, rngs, 1e-4 * samples.var())
        assert [fit.n_iter for fit in fits] == [101, 29, 65, 29, 101]
        assert [fit.converged for fit in fits] == [False, True, True, True, False]

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

    def test_overflowing_variance_is_numerical_error(self):
        # x^2 overflows near 1e160: EM would standardize by an infinite scale
        samples = np.random.default_rng(0).normal(1e160, 3e159, 200)
        with pytest.raises(NumericalError, match="sample variance overflows"):
            fit_gmm(samples, 2, 0)

    def test_overflowing_distances_fit_without_warning(self):
        # the outliers' squared distances overflow while the variance does
        # not; an infinite total of d2 draws the next center uniformly
        samples = np.random.default_rng(0).standard_normal(300)
        samples[:2] = 0.8e154, -0.8e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gmm = fit_gmm(samples, 3, 0)
        assert gmm.k == 3
        assert gmm.converged

    @settings(max_examples=100, deadline=None)
    @given(
        # few distinct values, so the centers can run out of new points
        pool=st.lists(st.floats(-100, 100).map(lambda v: round(v, 3)), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=120),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_seeding_draws_as_rng_choice(self, pool, picks, k, seed):
        # the same start and stream position as k-means++ through rng.choice
        samples = np.array([pool[i % len(pool)] for i in picks])
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _em_start(samples, k, rng, 1e-3)
        expected = rng_choice_em_start(samples, k, twin, 1e-3)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert rng.random() == twin.random()


def rng_choice_em_start(samples, k, rng, floor):
    """``_em_start`` drawing each k-means++ center with ``rng.choice``.

    The reference the seeding is checked against: every distance to every
    center so far recomputed for each new center, and a uniform draw when
    their total is 0.
    """
    centers = [samples[rng.integers(samples.size)]]
    for _ in range(1, k):
        d2 = np.min((samples[:, None] - np.array(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(samples[rng.integers(samples.size)])
        else:
            centers.append(samples[rng.choice(samples.size, p=d2 / total)])
    centers = np.array(centers)
    assign = np.argmin(np.abs(samples[:, None] - centers[None, :]), axis=1)
    weights, means, variances = np.empty(k), np.empty(k), np.empty(k)
    for j in range(k):
        members = samples[assign == j]
        weights[j] = max(members.size, 1) / samples.size
        means[j] = members.mean() if members.size else centers[j]
        variances[j] = max(members.var() if members.size else 0.0, floor)
    weights /= weights.sum()
    return weights, means, variances


def full_restarts_fit(samples, k, seed):
    """``fit_gmm`` with every restart run to its own stop: the best of
    ``_em_restarts`` without the cut, the reference for the short runs."""
    samples = np.asarray(samples, dtype=float).reshape(-1)
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(_EM_RESTARTS)]
    fits = _em_restarts(samples, k, rngs, 1e-4 * samples.var())
    return max(fits, key=lambda fit: fit.log_likelihood)


def mode_linear_fits(data, seed, fit=fit_gmm):
    """The feature priors and the label mixture that ``explain --mode 0
    --k-max 4 --seed SEED`` fits, fitting with ``fit``; and every
    ``fit_gmm`` result along the way."""
    calls = []

    def traced(samples, k, fit_seed):
        calls.append(fit(samples, k, fit_seed))
        return calls[-1]

    priors_seed, _, label_seed = mixtures_module._command_seeds(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixtures_module, "fit_gmm", traced)
        selected = [*fit_priors(data, 4, priors_seed).per_feature,
                    select_k(data.labels, 4, label_seed)]
    return selected, calls


@pytest.fixture(scope="module")
def trimodal2k():
    """The benchmark's mode-linear data: 2,000 trimodal rows, data seed 3."""
    return generate_synthetic(trimodal_benchmark_spec(), 2000, 3)


class TestShortRuns:
    # on these rows, a sweep over the command seeds 3, 4, 5, 7, 11, 13, 17
    # and 19 moved 6 of 32 selected fits and no k; the largest loss was
    # 8.7e-7 relative (0.0055 nats, the label fit at seed 7).  The bound is
    # ten times that, 0.04-0.06 nats here, far below the 3 ln(2000) = 22.8
    # an extra component costs in BIC
    LOSS_BOUND = 1e-5

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_close_to_every_restart_run_in_full(self, trimodal2k, seed):
        """The short runs select the k that full runs of every restart
        select, losing at most ``LOSS_BOUND`` relative log-likelihood."""
        got, _ = mode_linear_fits(trimodal2k, seed)
        want, _ = mode_linear_fits(trimodal2k, seed, full_restarts_fit)
        assert [fit.k for fit in got] == [fit.k for fit in want]
        for fit, best in zip(got, want):
            assert 0.0 <= best.log_likelihood - fit.log_likelihood
            assert best.log_likelihood - fit.log_likelihood <= self.LOSS_BOUND * abs(best.log_likelihood)

    def test_no_long_run_reaches_the_cap(self, trimodal2k):
        """On the seed-3 mode-linear fits no restart that goes on past the
        short runs stops at the 500-step cap (2 of the 80 full runs do),
        and the restarts take at most 1,600 E-steps in all (5,590 in full)."""
        spent = []

        def counted(theta, *args):
            spent.append(len(theta))
            return _em_map(theta, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mixtures_module, "_em_map", counted)
            _, calls = mode_linear_fits(trimodal2k, 3)
        assert len(calls) == 16
        assert all(fit.converged and fit.n_iter < _EM_MAX_ITERS for fit in calls)
        assert sum(spent) <= 1600


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
        # the trapezoid rule on a grid far finer than the narrowest component
        grid, step = np.linspace(lo, hi, 200_001, retstep=True)
        values = density(gmm, grid)
        total = step * (values.sum() - (values[0] + values[-1]) / 2)
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

    def test_flat_top_keeps_its_maximum(self):
        # two components 2 std apart merge into one flat top, where mean-shift
        # from 0 and 0.4 stops at the step cap near 0.1976 and 0.2025
        gmm = GaussianMixture1D(
            components=((1 / 3, 0.0, 0.2 * 0.2), (1 / 3, 3.0, 0.25), (1 / 3, 0.4, 0.2 * 0.2))
        )
        found = modes(gmm)
        grid = np.linspace(0.0, 0.4, 400_001)
        assert len(found) == 2
        assert abs(found[0].location - grid[np.argmax(density(gmm, grid))]) <= 1e-6
        assert found[0].density == pytest.approx(0.8066, abs=1e-4)
        assert found[1].location == pytest.approx(3.0, abs=1e-6)

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

    def test_constant_column_error_names_the_feature(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((200, 3))
        features[:, 1] = 1.0
        data = Dataset(
            features=features,
            labels=rng.standard_normal(200),
            feature_names=("x0", "x1", "x2"),
        )
        with pytest.raises(NumericalError, match="feature 'x1': all samples identical"):
            fit_priors(data, 4, 0)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_log_prior_refuses_non_finite_entries(self, exact_priors, bad):
        with pytest.raises(ValidationError, match="^x contains non-finite entries"):
            log_prior(exact_priors, [1.0, bad, 2.0])


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

    @pytest.mark.parametrize(
        "stds, message",
        [
            ([math.nan], "stds must be positive and finite"),
            ([math.inf], "stds must be positive and finite"),
            ([1e200], "variances must be finite"),  # its square overflows
        ],
    )
    def test_non_finite_stds(self, stds, message):
        with pytest.raises(ValidationError, match=message):
            mixture_from_json({"weights": [1.0], "means": [0.0], "stds": stds})

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            mixture_from_json({"weights": [1.0], "means": [0.0], "stds": [1.0, 2.0]})
