"""1-D Gaussian mixtures: EM fitting, BIC model selection, mode finding.

One type, :class:`GaussianMixture1D`, plays every mixture role.  Written
in a generator spec, it draws the synthetic feature columns.  Supplied for
(or fitted to) each feature column, it forms the independent prior
p(x) = prod_I p(x_I).  Fitted to the labels, its density modes are the
reference values that deviations are measured against, each with a
mode-local standard deviation for z-scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

_EM_REL_TOL = 1e-8
_EM_MAX_ITERS = 500
_EM_RESTARTS = 5
# large enough that BIC cannot buy likelihood with singleton spike
# components on small samples, small next to any real component variance
_VARIANCE_FLOOR_FRAC = 1e-4
_MODE_TOL = 1e-10
_MODE_MAX_ITERS = 10_000
_WEIGHT_TOL = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianMixture1D:
    """Weighted sum of 1-D normals; components are (weight, mean, variance).

    Weights are nonnegative and sum to 1 within 1e-12; variances are
    positive.  The read-only ``weights``, ``means``, ``variances`` and
    ``stds`` arrays and the constants of every log-density evaluation,
    log w_k - 0.5 log(2 pi var_k), mu_k and 2 var_k, are computed once here.
    """

    components: tuple[tuple[float, float, float], ...]
    fitted_n: int = 0
    log_likelihood: float = math.nan
    # Total log-likelihood at each E-step of the winning restart;
    # empty for mixtures that were not fitted.
    history: tuple[float, ...] = ()
    # True when EM met its tolerance; False at the iteration cap and for
    # mixtures that were not fitted.
    converged: bool = False
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    means: np.ndarray = field(init=False, repr=False, compare=False)
    variances: np.ndarray = field(init=False, repr=False, compare=False)
    stds: np.ndarray = field(init=False, repr=False, compare=False)
    _log_norm: np.ndarray = field(init=False, repr=False, compare=False)
    _mu: np.ndarray = field(init=False, repr=False, compare=False)
    _two_var: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = tuple((float(w), float(m), float(v)) for w, m, v in self.components)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "history", tuple(self.history))
        if not comps:
            raise ValidationError("mixture needs at least one component")
        if any(w < 0 for w, _, _ in comps):
            raise ValidationError("mixture weights must be nonnegative")
        total = math.fsum(w for w, _, _ in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"mixture weights sum to {total!r}, expected 1")
        if any(v <= 0 for _, _, v in comps):
            raise ValidationError("component variances must be positive")
        weights, means, variances = (np.array(column) for column in zip(*comps))
        for name, value in (
            ("weights", weights),
            ("means", means),
            ("variances", variances),
            ("stds", np.sqrt(variances)),
            ("_log_norm", np.log(weights) - 0.5 * np.log(2.0 * math.pi * variances)),
            ("_mu", means),
            ("_two_var", 2.0 * variances),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return len(self.components)

    def mean(self) -> float:
        """Mixture mean sum_k w_k * mu_k."""
        return float(np.dot(self.weights, self.means))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comps = rng.choice(self.k, size=n, p=self.weights)
        return self.means[comps] + self.stds[comps] * rng.standard_normal(n)


@dataclass(frozen=True)
class ModeInfo:
    """One local maximum of a mixture density.

    ``sigma_m`` is the std of the component with the largest responsibility
    at the mode; ``weight`` is that component's mixing weight.
    """

    location: float
    density: float
    component_index: int
    sigma_m: float
    weight: float


@dataclass(frozen=True)
class FeaturePriors:
    """Independent per-feature priors: p(x) = prod_I p(x_I).

    The features' log-density constants are stacked once into d x K tables,
    K the largest component count; shorter rows are padded with log-weight
    -inf (mean 0, 2 var 1), which changes no log-sum-exp.
    """

    per_feature: tuple[GaussianMixture1D, ...]
    _log_norm: np.ndarray = field(init=False, repr=False, compare=False)
    _mu: np.ndarray = field(init=False, repr=False, compare=False)
    _two_var: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "per_feature", tuple(self.per_feature))
        if not self.per_feature:
            raise ValidationError("need at least one per-feature prior")
        shape = (self.d_x, max(gmm.k for gmm in self.per_feature))
        for name, pad in (("_log_norm", -np.inf), ("_mu", 0.0), ("_two_var", 1.0)):
            table = np.full(shape, pad)
            for i, gmm in enumerate(self.per_feature):
                table[i, : gmm.k] = getattr(gmm, name)
            object.__setattr__(self, name, table)

    @property
    def d_x(self) -> int:
        return len(self.per_feature)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n feature vectors, columns independent per the prior."""
        out = np.empty((n, self.d_x))
        for i, gmm in enumerate(self.per_feature):
            out[:, i] = gmm.sample(rng, n)
        return out


def _component_log_pdfs(mix, y) -> np.ndarray:
    """log(w_k) + log phi_k(y): k entries for a scalar y, n x k for an n x 1 y;
    for ``FeaturePriors`` and a d x 1 y, the d x K table of all features."""
    return mix._log_norm - (y - mix._mu) ** 2 / mix._two_var


def _log_prior_and_resp(priors: FeaturePriors, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_I ln p_I(x_I) and the d x K responsibilities gamma_Ik of each
    feature's components at x_I (0 on padding), for a d-vector x or for each
    row of an R x d stack, unchecked: the MAP search takes EM steps from
    them."""
    log_pdfs = _component_log_pdfs(priors, x[..., None])
    log_p = np.logaddexp.reduce(log_pdfs, axis=-1, keepdims=True)
    # accumulate adds in feature order at any d, as a per-feature loop does
    return np.add.accumulate(log_p, axis=-2)[..., -1, 0], np.exp(log_pdfs - log_p)


def log_density(gmm: GaussianMixture1D, y) -> np.ndarray | float:
    column = np.atleast_1d(np.asarray(y, dtype=float))[:, None]
    lp = np.logaddexp.reduce(_component_log_pdfs(gmm, column), axis=1)
    return float(lp[0]) if np.isscalar(y) else lp


def density(gmm: GaussianMixture1D, y) -> np.ndarray | float:
    """Mixture pdf sum_k w_k phi((y - mu_k)/sigma_k)/sigma_k."""
    return np.exp(log_density(gmm, y))


def _kmeanspp_centers(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [samples[rng.integers(samples.size)]]
    for _ in range(1, k):
        d2 = np.min((samples[:, None] - np.array(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            # remaining points coincide with a center; fall back to uniform
            centers.append(samples[rng.integers(samples.size)])
            continue
        centers.append(samples[rng.choice(samples.size, p=d2 / total)])
    return np.array(centers)


def _em_start(samples: np.ndarray, k: int, rng: np.random.Generator,
              floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One restart's first (weights, means, variances): the samples nearest
    each k-means++ center."""
    centers = _kmeanspp_centers(samples, k, rng)
    assign = np.argmin(np.abs(samples[:, None] - centers[None, :]), axis=1)
    weights = np.empty(k)
    means = np.empty(k)
    variances = np.empty(k)
    for j in range(k):
        members = samples[assign == j]
        weights[j] = max(members.size, 1) / samples.size
        means[j] = members.mean() if members.size else centers[j]
        variances[j] = max(members.var() if members.size else 0.0, floor)
    weights /= weights.sum()
    return weights, means, variances


def _em_restarts(samples: np.ndarray, k: int, rngs, floor: float) -> list[GaussianMixture1D]:
    """EM from one start per generator in ``rngs``, all advanced together.

    Raw-array EM loop; each restart's frozen mixture is built once, when it
    stops, and the restart leaves the stack.  The live restarts form an
    R x k x n stack and both stacked buffers are rewritten in place:
    reductions over components run on axis 1 and the per-component sums
    along n, in the order a single k x n restart sums, so each restart's
    iterates are bitwise those it takes alone.  The squared distances to
    the means one M-step computes are the ones the next E-step needs.
    """
    n = samples.size
    weights, means, variances = map(
        np.array, zip(*(_em_start(samples, k, rng, floor) for rng in rngs))
    )
    live = np.arange(len(rngs))
    sq = np.square(samples - means[:, :, None])
    resp = np.empty_like(sq)
    log_l = np.full(live.size, -math.inf)
    histories = [[] for _ in live]
    fitted = [None] * live.size
    # the final pass is an E-step only: at the cap it scores the components
    # returned, so log_l and history[-1] never describe an earlier iterate
    for step in range(_EM_MAX_ITERS + 1):
        np.multiply(sq, (-0.5 / variances)[:, :, None], out=resp)
        resp += (np.log(weights) - 0.5 * (np.log(variances) + _LOG_2PI))[:, :, None]
        peak = resp.max(axis=1)
        resp -= peak[:, None, :]
        np.exp(resp, out=resp)
        norm = resp.sum(axis=1)
        new_log_l = np.sum(peak + np.log(norm), axis=1)
        converged = np.abs(new_log_l - log_l) <= _EM_REL_TOL * np.maximum(1.0, np.abs(new_log_l))
        log_l = new_log_l
        stop = converged | (step == _EM_MAX_ITERS)
        for j, r in enumerate(live):
            histories[r].append(float(log_l[j]))
            if stop[j]:
                fitted[r] = GaussianMixture1D(
                    components=tuple(zip(weights[j], means[j], variances[j])),
                    fitted_n=n,
                    log_likelihood=float(log_l[j]),
                    history=tuple(histories[r]),
                    converged=bool(converged[j]),
                )
        if stop.all():
            break
        if stop.any():
            keep = ~stop
            live, log_l, norm = live[keep], log_l[keep], norm[keep]
            weights, means, variances = weights[keep], means[keep], variances[keep]
            sq, resp = sq[keep], resp[keep]
        resp /= norm[:, None, :]
        mass = np.maximum(resp.sum(axis=2), 1e-300)
        weights = mass / n
        means = np.matmul(resp, samples) / mass
        np.subtract(samples, means[:, :, None], out=sq)
        np.square(sq, out=sq)
        variances = np.maximum(np.einsum("rkn,rkn->rk", resp, sq) / mass, floor)
    return fitted


def fit_gmm(samples, k: int, seed: int) -> GaussianMixture1D:
    """Fit a k-component mixture by EM, best of 5 seeded restarts.

    Each restart is k-means++ seeded from its own child stream of ``seed``
    and iterated until the relative log-likelihood change drops below 1e-8,
    or for at most 500 EM iterations; the restarts advance together and
    each ends exactly where it ends run alone.  A restart that reaches that cap
    returns its 500th iterate, scored by one more E-step, so
    ``log_likelihood`` (also the last ``history`` entry; ``history`` holds
    one entry per E-step, 501 at the cap) is always the log-likelihood of
    the returned components, which restarts and BIC compare; ``converged``
    says whether the winning restart met the tolerance or stopped at the
    cap.  Variances are floored at 1e-4 times the sample variance: this
    both prevents numerical collapse and keeps model selection from
    spending components on single points.

    Parameters
    ----------
    samples : array_like
        1-D observations, length >= 2k.
    k : int
        Number of components, >= 1.
    seed : int
        Restart stream seed; fixed (samples, k, seed) gives a fixed result.
    """
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if samples.size < 2 * k:
        raise ValidationError(f"need at least {2 * k} samples to fit k={k}")
    if not np.all(np.isfinite(samples)):
        raise ValidationError("samples contain non-finite entries")
    spread = float(samples.var())
    if spread == 0.0:
        raise NumericalError("all samples identical; mixture fit is degenerate")
    floor = _VARIANCE_FLOOR_FRAC * spread
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(_EM_RESTARTS)]
    # the first of the best, as restarts are listed
    return max(_em_restarts(samples, k, rngs, floor), key=lambda fit: fit.log_likelihood)


def bic(gmm: GaussianMixture1D) -> float:
    """-2 logL + (3k - 1) ln n; lower is better."""
    return -2.0 * gmm.log_likelihood + (3 * gmm.k - 1) * math.log(gmm.fitted_n)


def select_k(samples, k_max: int, seed: int) -> GaussianMixture1D:
    """The ``fit_gmm`` fit minimizing BIC over k = 1..k_max (at most n/2).

    k=1 is always fitted, so fewer than 2 samples raise its ValidationError.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    samples = np.asarray(samples, dtype=float).reshape(-1)
    best = fit_gmm(samples, 1, seed)
    best_bic = bic(best)
    for k in range(2, k_max + 1):
        if samples.size < 2 * k:
            break  # larger k has no data support
        gmm = fit_gmm(samples, k, seed)
        score = bic(gmm)
        if score < best_bic:
            best, best_bic = gmm, score
    return best


def _mean_shift(gmm: GaussianMixture1D, y0: float) -> float:
    """Fixed point of m(y) = sum_k r_k(y) mu_k with r_k ~ w_k phi_k(y)/var_k.

    The weighting by 1/var_k makes the fixed points exactly the stationary
    points of the mixture density.
    """
    means = gmm.means
    variances = gmm.variances
    y = float(y0)
    for _ in range(_MODE_MAX_ITERS):
        log_r = _component_log_pdfs(gmm, y) - np.log(variances)
        r = np.exp(log_r - np.logaddexp.reduce(log_r))
        y_next = float(np.dot(r, means))
        if abs(y_next - y) < _MODE_TOL:
            return y_next
        y = y_next
    return y


def modes(gmm: GaussianMixture1D) -> list[ModeInfo]:
    """Local maxima of the mixture density, sorted by density descending.

    Ascent starts from every component mean; converged points closer than
    1e-3 times the smallest component std are merged.  The first entry is
    the dominant mode.
    """
    dedup = 1e-3 * float(gmm.stds.min())
    found: list[float] = []
    for start in gmm.means:
        y = _mean_shift(gmm, float(start))
        if any(abs(y - other) <= dedup for other in found):
            continue
        found.append(y)
    out = []
    for y in found:
        resp = _component_log_pdfs(gmm, y)
        comp = int(np.argmax(resp))
        sigma_m = float(gmm.stds[comp])
        # drop mean-shift fixed points that are not density maxima
        dens = float(density(gmm, y))
        probe = 1e-4 * sigma_m
        if dens < float(density(gmm, y - probe)) or dens < float(density(gmm, y + probe)):
            continue
        out.append(
            ModeInfo(
                location=float(y),
                density=dens,
                component_index=comp,
                sigma_m=sigma_m,
                weight=float(gmm.weights[comp]),
            )
        )
    out.sort(key=lambda m: m.density, reverse=True)
    return out


def z_score(y: float, samples) -> float:
    """(y - sample mean) / population (1/N) sample std."""
    samples = np.asarray(samples, dtype=float).reshape(-1)
    std = float(samples.std())
    if std <= 0:
        raise ValidationError("sample std must be positive for z-scores")
    return (float(y) - float(samples.mean())) / std


def mode_z_score(y: float, mode: ModeInfo) -> float:
    """(y - mode location) / sigma_m."""
    if mode.sigma_m <= 0:
        raise ValidationError("mode sigma_m must be positive")
    return (float(y) - mode.location) / mode.sigma_m


def _child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds spawned from ``seed``."""
    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(n)
    ]


def fit_priors(data, k_max: int, seed: int) -> FeaturePriors:
    """Per-column BIC-selected mixture fits of a ``Dataset``'s features; one
    child seed per column."""
    fitted = [
        select_k(data.features[:, i], k_max, col_seed)
        for i, col_seed in enumerate(_child_seeds(seed, data.d_x))
    ]
    return FeaturePriors(per_feature=tuple(fitted))


def log_prior(priors: FeaturePriors, x) -> float:
    """sum_I ln p_I(x_I) under the independent per-feature priors."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != priors.d_x:
        raise ValidationError(f"x has {x.size} entries, priors expect {priors.d_x}")
    return float(_log_prior_and_resp(priors, x)[0])


def mixture_to_json(gmm: GaussianMixture1D) -> dict:
    return {
        "weights": list(gmm.weights),
        "means": list(gmm.means),
        "stds": list(gmm.stds),
    }


def mixture_from_json(doc: dict) -> GaussianMixture1D:
    try:
        triples = [
            (float(w), float(m), float(s))
            for w, m, s in zip(doc["weights"], doc["means"], doc["stds"], strict=True)
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad mixture document: {exc}") from exc
    if any(s <= 0 for _, _, s in triples):
        raise ValidationError("mixture stds must be positive")
    return GaussianMixture1D(components=tuple((w, m, s * s) for w, m, s in triples))
