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

from .dataset import _finite_vector
from .errors import NumericalError, ValidationError, _stage

_EM_REL_TOL = 1e-8
_EM_MAX_ITERS = 500
_EM_RESTARTS = 5
# E-steps the restarts of a fit take together before only the leader goes on
_EM_SHORT_RUN = 30
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

    Every parameter is finite; weights are nonnegative and sum to 1 within
    1e-12; variances are positive; a mixture breaking any of these is a
    ValidationError naming the parameter.  The read-only ``weights``, ``means``,
    ``variances`` and ``stds`` arrays and the constants of every log-density
    evaluation, log w_k - 0.5 log(2 pi var_k), mu_k and 2 var_k, are
    computed once here.
    """

    components: tuple[tuple[float, float, float], ...]
    fitted_n: int = 0
    log_likelihood: float = math.nan
    # Total log-likelihood of each iterate the winning restart accepted,
    # nondecreasing; empty for mixtures that were not fitted.
    history: tuple[float, ...] = ()
    # True when EM met its tolerance; False at the E-step cap and for
    # mixtures that were not fitted.
    converged: bool = False
    # E-steps (EM map evaluations) the winning restart spent; 0 for
    # mixtures that were not fitted.
    n_iter: int = 0
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
        weights, means, variances = (np.array(column) for column in zip(*comps))
        for name, column in (("weights", weights), ("means", means), ("variances", variances)):
            if not np.isfinite(column).all():
                raise ValidationError(f"mixture {name} must be finite, got {column.tolist()}")
        if (weights < 0).any():
            raise ValidationError("mixture weights must be nonnegative")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"mixture weights sum to {total!r}, expected 1")
        if (variances <= 0).any():
            raise ValidationError("component variances must be positive")
        with np.errstate(divide="ignore"):  # a zero weight's log is -inf, as padding
            log_w = np.log(weights)
        for name, value in (
            ("weights", weights),
            ("means", means),
            ("variances", variances),
            ("stds", np.sqrt(variances)),
            ("_log_norm", log_w - 0.5 * np.log(2.0 * math.pi * variances)),
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
        comps = _weighted_draw(self.weights, rng, n)
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


def _weighted_draw(p: np.ndarray, rng: np.random.Generator, n: int | None = None):
    """rng.choice(p.size, n, p=p)'s indices and stream use, without its checks."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right")


def _em_start(samples: np.ndarray, k: int, rng: np.random.Generator,
              floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One restart's first (weights, means, variances): the samples nearest each
    k-means++ center (Arthur and Vassilvitskii 2007), drawn in proportion to d2,
    the squared distance to the nearest center so far, and uniformly while the
    total of d2 is 0 or infinite, as it is for the first center."""
    centers, d2 = np.empty(k), np.full(samples.size, math.inf)
    for j in range(k):
        total = d2.sum()
        at = _weighted_draw(d2 / total, rng) if 0 < total < math.inf else rng.integers(d2.size)
        centers[j] = samples[at]
        if j + 1 < k:  # the last center's distances are never read
            with np.errstate(over="ignore"):  # an infinite total draws uniformly
                d2 = np.minimum(d2, (samples - centers[j]) ** 2)
    assign = np.argmin(np.abs(samples[:, None] - centers[None, :]), axis=1)
    weights, means, variances = np.empty((3, k))
    for j in range(k):
        members = samples[assign == j]
        weights[j] = max(members.size, 1) / samples.size
        means[j] = members.mean() if members.size else centers[j]
        variances[j] = max(members.var() if members.size else 0.0, floor)
    return weights / weights.sum(), means, variances


def _em_map(theta: np.ndarray, powers: np.ndarray, floor: float,
            resp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One EM map evaluation per restart of a stack, in moment form.

    ``theta`` is R x 3 x k: each restart's (weights, means, variances) rows
    in z units, ``powers`` is [1, z, z^2] (3 x n) and ``resp`` the R x k x n
    buffer the E-step fills in place.  Returns the z-unit log-likelihood of
    each ``theta`` and the M-step's R x 3 x k result F(theta), variances
    floored at ``floor``.

    A component's log-density is a quadratic in z, so one batched product
    ``coef (R x k x 3) @ powers`` gives the E-step's stack, and one product
    of the responsibilities with ``powers / norm`` gives the M-step's sums
    of r, r z and r z^2.  The variance is sum(r z^2) / sum(r) - mean^2; as
    |z| <= sqrt(n - 1) and the variance floor is about 1e-4 in z units, that
    subtraction leaves a relative error on the order of n * 1e-12.
    Reductions over components run on axis 1, the ones along n on the last
    axis, and each product is one BLAS call per restart, so each restart's
    result is bitwise the one it gets alone.
    """
    weights, means, variances = theta[:, 0], theta[:, 1], theta[:, 2]
    half_prec = -0.5 / variances
    coef = np.stack(
        (
            np.log(weights) - 0.5 * (np.log(variances) + _LOG_2PI) + half_prec * means * means,
            -2.0 * half_prec * means,
            half_prec,
        ),
        axis=2,
    )
    np.matmul(coef, powers, out=resp)
    peak = resp.max(axis=1)
    resp -= peak[:, None, :]
    np.exp(resp, out=resp)
    norm = resp.sum(axis=1)
    log_l = np.sum(peak + np.log(norm), axis=1)
    moments = np.matmul(resp, (powers * (1.0 / norm)[:, None, :]).transpose(0, 2, 1))
    mass = np.maximum(moments[:, :, 0], 1e-300)
    means = moments[:, :, 1] / mass
    variances = np.maximum(moments[:, :, 2] / mass - means * means, floor)
    return log_l, np.stack((mass / powers.shape[1], means, variances), axis=1)


def _em_restarts(samples: np.ndarray, k: int, rngs, floor: float,
                 cut: int | None = None) -> list[GaussianMixture1D]:
    """SQUAREM-accelerated EM from one start per generator in ``rngs``, all
    advanced together; with ``cut``, only the leader goes on past ``cut``
    E-steps.

    The loop runs ``_em_map`` on the standardized samples
    z = (x - mean) / std.  Each cycle of SQUAREM (Varadhan and Roland 2008,
    S3 step length) takes two EM steps, theta1 = F(theta0) and
    theta2 = F(theta1), then extrapolates along r = theta1 - theta0 and
    v = theta2 - theta1 - r to theta' = theta0 + 2 a r + a^2 v, with
    a = clip(|r| / |v|, 1, stepmax) per restart (a = 1 gives theta2), and
    evaluates F once more at theta' to stabilize it.  theta' is kept only
    when it is finite, has positive weights (renormalized to sum 1) and
    variances at or above the floor, and its log-likelihood is no lower than
    theta1's; the next cycle then starts from F(theta').  Otherwise the
    restart goes on from theta2: from F(theta2) when theta' was invalid, as
    the third evaluation then stabilizes theta2 instead.  stepmax starts at
    1, grows 4-fold after a kept step at the bound and shrinks 4-fold (not
    below 1) after one that was not kept.

    The one stop test follows the plain step theta0 -> theta1, after
    3c + 2 E-steps in cycle c (c = 0, 1, ...): a restart stops there,
    returning theta1, when that step changes the log-likelihood by at most
    ``_EM_REL_TOL`` relative (``converged``) or when its E-steps reach
    ``_EM_MAX_ITERS`` (500 = 3 * 166 + 2; a cap of another residue mod 3
    stops at the first 3c + 2 past it).  Its fit is built then, from its
    list of the x-unit log-likelihoods (the z-unit ones minus n log(std))
    of the iterates it kept, which ends with theta1's.

    The live restarts form one stack, and a restart leaves it when it
    stops.  All three evaluations of a cycle reuse one R x k x n buffer.
    Every other operation is elementwise or reduces one restart's own
    entries, so each restart's iterates are bitwise those it takes alone.

    Without ``cut`` every restart runs to its stop, and all are returned
    in ``rngs`` order.  With ``cut``, one fit is returned: the leader's,
    the restart whose last kept log-likelihood is highest (ties go to the
    first in ``rngs`` order), picked at the end of the first cycle that
    brings the stack to ``cut`` E-steps, or when every restart stops
    before that.  A live leader goes on alone with its own theta and
    stepmax, so it stops exactly where its full run stops; every other
    live restart is dropped.
    """
    n = samples.size
    center, scale = samples.mean(), samples.std()
    z = (samples - center) / scale
    powers = np.stack([np.ones(n), z, z * z])
    theta = np.array([_em_start(samples, k, rng, floor) for rng in rngs])
    theta[:, 1] = (theta[:, 1] - center) / scale
    theta[:, 2] /= scale * scale
    floor = floor / (scale * scale)
    log_scale = n * math.log(scale)
    buffer = np.empty((len(rngs), k, n))

    def evaluate(at):
        log_l, mapped = _em_map(at, powers, floor, buffer[: len(at)])
        return log_l - log_scale, mapped

    live = np.arange(len(rngs))
    step_max = np.ones(live.size)
    histories = [[] for _ in rngs]
    fits = [None] * len(rngs)
    lead = None
    spent = 0

    def leader():
        # the first of the best, as restarts are listed
        return max(range(len(rngs)), key=lambda i: histories[i][-1])

    while live.size:
        log_0, theta1 = evaluate(theta)
        log_1, theta2 = evaluate(theta1)
        spent += 2
        for i, at_0, at_1 in zip(live.tolist(), log_0.tolist(), log_1.tolist()):
            histories[i] += at_0, at_1
        converged = np.abs(log_1 - log_0) <= _EM_REL_TOL * np.maximum(1.0, np.abs(log_1))
        stop = converged | (spent >= _EM_MAX_ITERS)
        if stop.any():
            for row in np.flatnonzero(stop):
                weights, means, variances = theta1[row]
                history = histories[live[row]]
                fits[live[row]] = GaussianMixture1D(
                    components=zip(weights, center + scale * means, variances * (scale * scale)),
                    fitted_n=n,
                    log_likelihood=history[-1],
                    history=history,
                    converged=bool(converged[row]),
                    n_iter=spent,
                )
            keep = ~stop
            live, theta, theta1, theta2 = live[keep], theta[keep], theta1[keep], theta2[keep]
            log_1, step_max = log_1[keep], step_max[keep]
            if not live.size:
                break
        r = theta1 - theta
        v = theta2 - theta1 - r
        # |v| = 0 at a fixed point: a ratio of inf takes stepmax, 0/0 takes
        # 1; an invalid jump may divide by a zero weight sum, and is dropped
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sqrt(np.sum(r * r, axis=(1, 2)) / np.sum(v * v, axis=(1, 2)))
            alpha = np.minimum(np.fmax(ratio, 1.0), step_max)
            a = alpha[:, None, None]
            jump = theta + 2.0 * a * r + a * a * v
            valid = (
                np.all(np.isfinite(jump), axis=(1, 2))
                & np.all(jump[:, 0] > 0.0, axis=1)
                & np.all(jump[:, 2] >= floor, axis=1)
            )
            jump[:, 0] /= jump[:, 0].sum(axis=1, keepdims=True)
        at = np.where(valid[:, None, None], jump, theta2)
        log_2, theta3 = evaluate(at)
        spent += 1
        accept = valid & (log_2 >= log_1)
        scored = accept | ~valid
        for i, at_2 in zip(live[scored].tolist(), log_2[scored].tolist()):
            histories[i].append(at_2)
        step_max = np.where(
            accept, np.where(alpha == step_max, 4.0 * step_max, step_max),
            np.maximum(step_max / 4.0, 1.0),
        )
        theta = np.where(scored[:, None, None], theta3, theta2)
        if lead is None and cut is not None and spent >= cut:
            lead = leader()
            keep = live == lead
            live, theta, step_max = live[keep], theta[keep], step_max[keep]
    if cut is None:
        return fits
    return [fits[leader() if lead is None else lead]]


def fit_gmm(samples, k: int, seed: int) -> GaussianMixture1D:
    """Fit a k-component mixture by EM: short runs from 5 seeded restarts,
    then one long run from the leader.

    Each restart is k-means++ seeded from its own child stream of ``seed``
    and iterated by SQUAREM-accelerated EM (``_em_restarts``).  The
    restarts advance together for about 30 E-steps (``_EM_SHORT_RUN``);
    then only the leader, the restart of highest log-likelihood so far, goes
    on, and the fit returned is the one it reaches run alone.  This is the
    short-runs-then-long-run strategy ("emEM"; Biernacki, Celeux and Govaert
    2003): a losing restart is usually behind after the short runs, and the
    steps it no longer takes are the saving.  A restart stops when one plain
    EM step changes the log-likelihood by at most 1e-8 relative
    (``converged``) or at the 500-step cap; ``n_iter`` counts the E-steps
    the returned restart spent.  ``log_likelihood`` (also the last
    ``history`` entry; ``history`` holds one entry per kept iterate) is
    always the log-likelihood of the returned components, which restarts
    and BIC compare.  Variances are floored at 1e-4 times the sample
    variance: this both prevents numerical collapse and keeps model
    selection from spending components on single points.  EM runs in moment
    form on the standardized samples (see ``_em_map``): one map evaluation
    agrees with the textbook x-unit step up to a relative error on the
    order of n * 1e-12 in the variances, and components and log-likelihoods
    are returned in x units.

    Parameters
    ----------
    samples : array_like
        1-D finite observations, length >= 2k; a variance of 0 or past the
        float range is a ``NumericalError``.
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
    with np.errstate(over="ignore"):  # an overflowing variance is refused below
        spread = float(samples.var())
    if spread == 0.0:
        raise NumericalError("all samples identical; mixture fit is degenerate")
    if not math.isfinite(spread):
        raise NumericalError("sample variance overflows float64; rescale the samples")
    floor = _VARIANCE_FLOOR_FRAC * spread
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(_EM_RESTARTS)]
    return _em_restarts(samples, k, rngs, floor, cut=_EM_SHORT_RUN)[0]


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


def _shift_target(gmm: GaussianMixture1D, y: float) -> float:
    """m(y) = sum_k r_k(y) mu_k with r_k ~ w_k phi_k(y)/var_k.

    The weighting by 1/var_k makes m(y) - y a positive multiple of the
    density's slope at y, so the fixed points of m are exactly the
    stationary points of the mixture density.
    """
    log_r = _component_log_pdfs(gmm, y) - np.log(gmm.variances)
    r = np.exp(log_r - np.logaddexp.reduce(log_r))
    return float(np.dot(r, gmm.means))


def _mean_shift(gmm: GaussianMixture1D, y0: float) -> float:
    """The stationary point that mean-shift steps y <- m(y) climb to from y0.

    On a flat top each step is tiny, and a climb can reach the step cap
    short of the maximum; it then finishes by bisection (``_climb_to_max``).
    """
    y = float(y0)
    for _ in range(_MODE_MAX_ITERS):
        y_next = _shift_target(gmm, y)
        if abs(y_next - y) < _MODE_TOL:
            return y_next
        y = y_next
    return _climb_to_max(gmm, y)


def _climb_to_max(gmm: GaussianMixture1D, y: float) -> float:
    """The density maximum that the slope at y climbs toward.

    Steps uphill from y, doubling from the mean-shift step, until the slope
    (the sign of m(y) - y) no longer points on, then bisects that bracket.
    The slope turns back past the outermost component mean at the latest.
    """
    step = _shift_target(gmm, y) - y
    up = math.copysign(1.0, step)

    def climbing(at: float) -> bool:
        return (_shift_target(gmm, at) - at) * up > 0.0

    lo, width = y, abs(step)
    while climbing(lo + up * width):
        lo += up * width
        width *= 2.0
    hi = lo + up * width
    while abs(hi - lo) > _MODE_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if climbing(mid):
            lo = mid
        else:
            hi = mid
    return lo


def modes(gmm: GaussianMixture1D) -> list[ModeInfo]:
    """Local maxima of the mixture density, sorted by density descending.

    Ascent starts from every component mean (``_mean_shift``; a start that
    reaches the step cap on a flat top is finished by bisection).  A point
    that is not a density maximum is dropped; then maxima closer than 1e-3
    times the smallest component std are merged.  The first entry is the
    dominant mode.
    """
    dedup = 1e-3 * float(gmm.stds.min())
    out: list[ModeInfo] = []
    for start in gmm.means:
        y = _mean_shift(gmm, float(start))
        resp = _component_log_pdfs(gmm, y)
        comp = int(np.argmax(resp))
        sigma_m = float(gmm.stds[comp])
        # drop mean-shift fixed points that are not density maxima
        dens = float(density(gmm, y))
        probe = 1e-4 * sigma_m
        if dens < float(density(gmm, y - probe)) or dens < float(density(gmm, y + probe)):
            continue
        if any(abs(y - other.location) <= dedup for other in out):
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


def _stage_seeds(seed: int) -> list[int]:
    """The label-mixture, MAP and background seeds of an explain settings seed."""
    return _child_seeds(seed, 3)


def _command_seeds(seed: int) -> tuple[int, int, int]:
    """The priors, settings and label-mixture seeds of a CLI seed: `modes`
    fits the mixture that explain_many fits for `explain --mode`."""
    priors_seed, explain_seed = _child_seeds(seed, 2)
    return priors_seed, explain_seed, _stage_seeds(explain_seed)[0]


def fit_priors(data, k_max: int, seed: int) -> FeaturePriors:
    """Per-column BIC-selected mixture fits of a ``Dataset``'s features; one
    child seed per column.  The error of a column that cannot be fitted (a
    constant one, say) names it: "feature 'x1': ..."."""
    fitted = []
    for name, column, col_seed in zip(
        data.feature_names, data.features.T, _child_seeds(seed, data.d_x)
    ):
        with _stage(f"feature {name!r}"):
            fitted.append(select_k(column, k_max, col_seed))
    return FeaturePriors(per_feature=tuple(fitted))


def log_prior(priors: FeaturePriors, x) -> float:
    """sum_I ln p_I(x_I) under the independent per-feature priors, x finite."""
    return float(_log_prior_and_resp(priors, _finite_vector(x, priors.d_x))[0])


def mixture_to_json(gmm: GaussianMixture1D) -> dict:
    """The JSON form of spec files and ``modes.json``: weights, means, stds."""
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
    if not all(0 < s < math.inf for _, _, s in triples):
        raise ValidationError("mixture stds must be positive and finite")
    return GaussianMixture1D(components=tuple((w, m, s * s) for w, m, s in triples))
