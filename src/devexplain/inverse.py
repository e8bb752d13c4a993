"""Bayesian inversion: which feature vector best explains a target label?

The log-posterior pairs a Gaussian misfit term -(y_target - f(x))^2/(2 sigma_e^2)
with the independent mixture log-prior, a proper prior.  Its maximizer is
found by multistart local optimization: draw starting points from that prior,
polish each locally (EM steps for linear models, cell coordinate ascent for
trees), deduplicate the endpoints, and keep the argmax.  A probabilistic
bound converts an assumed number of basins and a minimum basin probability
into a restart count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SearchFailureError, ValidationError
from .mixtures import FeaturePriors, _log_prior_and_resp, log_density, log_prior, modes
from .models import PredictiveModel

_STEP_TOL = 1e-10
_MAX_ITERS = 500
_DEDUP_FRAC = 1e-3
_FAILURE_PROB = 0.01


@dataclass(frozen=True)
class PosteriorObjective:
    """Log-posterior for one target label value under the feature priors."""

    model: PredictiveModel
    priors: FeaturePriors
    y_target: float
    sigma_e_squared: float

    def __post_init__(self):
        if not self.sigma_e_squared > 0:
            raise ValidationError("sigma_e_squared must be positive (clamp first)")


@dataclass(frozen=True)
class SearchBudget:
    """Restart budget plus the assumptions that produced it."""

    n_runs: int
    assumed_k: int
    min_basin_prob: float
    failure_prob: float

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValidationError("n_runs must be >= 1")
        if not 0 < self.min_basin_prob < 1:
            raise ValidationError("min_basin_prob must be in (0, 1)")
        if not 0 < self.failure_prob < 1:
            raise ValidationError("failure_prob must be in (0, 1)")


@dataclass(frozen=True)
class LocalOptimum:
    point: np.ndarray
    log_posterior: float
    hit_count: int


@dataclass(frozen=True)
class MapResult:
    map_point: np.ndarray
    map_log_posterior: float
    local_optima: tuple[LocalOptimum, ...]
    n_runs_executed: int
    n_converged: int


def log_posterior(obj: PosteriorObjective, x) -> float:
    """-(y_target - f(x))^2 / (2 sigma_e^2) + log p(x).

    The likelihood normalization constant is dropped; it shifts every value
    equally and cannot move the argmax.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != obj.model.d_x:
        raise ValidationError(f"x has {x.size} entries, model expects {obj.model.d_x}")
    misfit = obj.y_target - obj.model.predict_one(x)
    return -misfit * misfit / (2.0 * obj.sigma_e_squared) + log_prior(obj.priors, x)


def required_runs(assumed_k: int, min_basin_prob: float, failure_prob: float) -> int:
    """Restarts needed to hit every basin with probability >= 1 - failure_prob.

    With K basins each of probability >= p, n independent starts miss some
    basin with probability <= K(1-p)^n; solving for n gives
    n >= (ln failure_prob - ln K) / ln(1 - p), rounded up, floor 1.
    """
    if assumed_k < 1:
        raise ValidationError("assumed_k must be >= 1")
    if not 0 < min_basin_prob < 1:
        raise ValidationError("min_basin_prob must be in (0, 1)")
    if not 0 < failure_prob < 1:
        raise ValidationError("failure_prob must be in (0, 1)")
    bound = (math.log(failure_prob) - math.log(assumed_k)) / math.log(
        1.0 - min_basin_prob
    )
    return max(1, math.ceil(bound))


def default_budget(priors: FeaturePriors) -> SearchBudget:
    """Conservative budget: K = product of per-feature component counts,
    assumed minimum basin probability 1/(2K), failure probability 0.01."""
    k_hat = 1
    for gmm in priors.per_feature:
        k_hat *= gmm.k
    p_hat = 1.0 / (2.0 * k_hat)
    return SearchBudget(
        n_runs=required_runs(k_hat, p_hat, _FAILURE_PROB),
        assumed_k=k_hat,
        min_basin_prob=p_hat,
        failure_prob=_FAILURE_PROB,
    )


def _cell_candidates(obj: PosteriorObjective) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """``(feature, points, log_priors)``: the prior's best point in each cell
    (t_{k-1}, t_k] of a feature's split thresholds, on which the ensemble is
    constant, and its log-prior: a mode inside, t_k or the float above
    t_{k-1} (t_k on a tie)."""
    if not hasattr(obj, "_cells"):
        cells = []
        thresholds = dict(obj.model._tables()[0])
        for i, gmm in enumerate(obj.priors.per_feature):
            cuts = thresholds.get(i, np.empty(0))
            ends = cuts[np.isfinite(cuts)]
            pool = np.concatenate(
                [ends, np.nextafter(ends, np.inf), [mode.location for mode in modes(gmm)]]
            )
            log_p = log_density(gmm, pool)
            cell = np.searchsorted(cuts, pool)
            order = np.lexsort((-log_p, cell))  # stable: closed ends first
            best = order[np.unique(cell[order], return_index=True)[1]]
            cells.append((i, pool[best], log_p[best]))
        object.__setattr__(obj, "_cells", tuple(cells))
    return obj._cells


def _em_step(obj: PosteriorObjective, x: np.ndarray) -> np.ndarray:
    """One EM step of a linear model's log-posterior from x, unchecked.

    With each feature's component label as the missing data, the
    responsibilities gamma_ik at x turn feature i's prior into one Gaussian,
    of precision P_i = sum_k gamma_ik / var_ik and mean
    m_i = sum_k (gamma_ik mu_ik / var_ik) / P_i.  The step returns that
    Gaussian prior's exact MAP under the misfit (Sherman-Morrison):
    m + P^-1 theta (y* - b - theta.m) / (sigma_e^2 + theta' P^-1 theta).
    It never lowers the log-posterior, and its fixed points are the
    stationary points.
    """
    theta = obj.model.coefficients
    gamma = _log_prior_and_resp(obj.priors, x)[1]
    weight = 2.0 * gamma / obj.priors._two_var
    precision = weight.sum(axis=1)
    mean = (weight * obj.priors._mu).sum(axis=1) / precision
    spread = theta / precision
    scale = obj.sigma_e_squared + theta @ spread
    return mean + spread * ((obj.y_target - obj.model.intercept - theta @ mean) / scale)


def local_maximize(obj: PosteriorObjective, x0) -> tuple[np.ndarray, float, bool]:
    """Polish one starting point; returns (point, value, converged).

    Linear models: EM steps (``_em_step``) until a step from x moves it by
    at most 1e-10 (1 + inf-norm of x) in the inf-norm, a fixed point and so
    a stationary point, or for at most 500 steps.

    Trees: coordinate ascent over each feature's per-cell prior maxima
    (``_cell_candidates``), until every coordinate has been scored at the
    current point without moving (a local optimum, exact along every
    coordinate) or for at most 500 sweeps of steps.

    An exhausted iteration budget returns converged=False, not an error.
    The returned value never falls below the value at x0.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    f0 = log_posterior(obj, x0)
    if not math.isfinite(f0):
        raise NumericalError(f"objective is not finite at the starting point {x0}")

    if obj.model.kind == "linear":
        point, converged = x0, False
        for _ in range(_MAX_ITERS):
            point, last = _em_step(obj, point), point
            if np.abs(point - last).max() <= _STEP_TOL * (1.0 + np.abs(last).max()):
                converged = True
                break
    else:
        cells = _cell_candidates(obj)
        point, unscored = x0.copy(), len(cells)
        for i, points, log_p in itertools.islice(
            itertools.cycle(cells), _MAX_ITERS * len(cells)
        ):
            # score all of one coordinate's cell candidates in one batch
            rows = np.repeat(point[None, :], points.size, axis=0)
            rows[:, i] = points
            misfit = obj.y_target - obj.model.predict_batch(rows)
            best = points[np.argmax(log_p - misfit * misfit / (2 * obj.sigma_e_squared))]
            # a move leaves the others to score again at the new point
            unscored = len(cells) - 1 if best != point[i] else unscored - 1
            point[i] = best
            if not unscored:
                break
        converged = not unscored
    value = log_posterior(obj, point)
    if not math.isfinite(value) or value < f0:
        return x0, f0, converged
    return point, value, converged


def dedup_radius(point: np.ndarray) -> float:
    """1e-3 (1 + inf-norm of the point): optima closer than this coincide."""
    return _DEDUP_FRAC * (1.0 + float(np.abs(point).max()))


def direct_search_map(obj: PosteriorObjective, budget: SearchBudget, seed: int) -> MapResult:
    """Multistart MAP search with deduplication and hit counting.

    Starting points are drawn i.i.d. from ``obj.priors``, one per run in stream
    order, so a larger budget with the same seed reuses the smaller budget's
    starts as a prefix.  Converged endpoints are clustered in the inf-norm
    with radius 1e-3 (1 + inf-norm); each cluster keeps its best point and
    the number of runs that landed in it (an empirical basin-probability
    estimate for budget diagnostics).
    """
    rng = np.random.default_rng(seed)
    clusters: list[dict] = []
    n_converged = 0
    diagnostics = []
    for run in range(budget.n_runs):
        x0 = obj.priors.sample(rng, 1)[0]
        try:
            point, value, converged = local_maximize(obj, x0)
        except NumericalError as exc:
            diagnostics.append({"run": run, "start": x0.tolist(), "error": str(exc)})
            continue
        if not converged:
            diagnostics.append(
                {"run": run, "start": x0.tolist(), "error": "iteration budget exhausted"}
            )
            continue
        n_converged += 1
        for cluster in clusters:
            if np.abs(point - cluster["point"]).max() <= dedup_radius(point):
                cluster["hits"] += 1
                if value > cluster["value"]:
                    cluster["point"], cluster["value"] = point, value
                break
        else:
            clusters.append({"point": point, "value": value, "hits": 1})
    if n_converged == 0:
        raise SearchFailureError(
            f"all {budget.n_runs} restarts failed to converge",
            diagnostics=diagnostics,
        )
    clusters.sort(key=lambda c: c["value"], reverse=True)
    optima = tuple(
        LocalOptimum(
            point=c["point"], log_posterior=float(c["value"]), hit_count=c["hits"]
        )
        for c in clusters
    )
    return MapResult(
        map_point=optima[0].point,
        map_log_posterior=optima[0].log_posterior,
        local_optima=optima,
        n_runs_executed=budget.n_runs,
        n_converged=n_converged,
    )

