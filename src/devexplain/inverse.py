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

from .dataset import _distinct_rows
from .errors import NumericalError, SearchFailureError, ValidationError
from .mixtures import FeaturePriors, _log_prior_and_resp, log_density, modes
from .models import PredictiveModel, _dot

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
    """One distinct optimum of a MAP search.

    ``point`` is the best endpoint that landed within ``dedup_radius`` of
    the cluster, ``log_posterior`` its value, and ``hit_count`` the number
    of converged restarts that landed there: of ``n_runs_executed``, an
    estimate of its basin's probability under the prior.
    """

    point: np.ndarray
    log_posterior: float
    hit_count: int


@dataclass(frozen=True)
class MapResult:
    """A multistart MAP search: its best point and every distinct optimum.

    ``map_point`` and ``map_log_posterior`` are those of the first of
    ``local_optima``, which are sorted by log-posterior, best first.
    ``n_runs_executed`` counts the restarts, and ``n_converged`` the ones
    whose endpoints were clustered (at least one).
    """

    map_point: np.ndarray
    map_log_posterior: float
    local_optima: tuple[LocalOptimum, ...]
    n_runs_executed: int
    n_converged: int


def log_posterior(obj: PosteriorObjective, x) -> float | np.ndarray:
    """-(y_target - f(x))^2 / (2 sigma_e^2) + log p(x): a float for a
    d-vector x, and for an R x d stack the R row values, each bitwise the
    value of its row alone.

    The likelihood normalization constant is dropped; it shifts every value
    equally and cannot move the argmax.  A misfit that overflows gives -inf.
    """
    x = np.asarray(x, dtype=float)
    rows = x if x.ndim == 2 else x.reshape(1, -1)
    if rows.shape[1] != obj.model.d_x:
        raise ValidationError(f"x has {rows.shape[1]} entries, model expects {obj.model.d_x}")
    with np.errstate(over="ignore"):
        misfit = obj.y_target - obj.model.predict_batch(rows)
        value = -misfit * misfit / (2.0 * obj.sigma_e_squared)
    value += _log_prior_and_resp(obj.priors, rows)[0]
    return value if x.ndim == 2 else float(value[0])


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
    return tuple(cells)


def _em_step(obj: PosteriorObjective, x: np.ndarray) -> np.ndarray:
    """One EM step of a linear model's log-posterior from each row of the
    R x d stack x, unchecked.

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
    precision = weight.sum(axis=2)
    mean = (weight * obj.priors._mu).sum(axis=2) / precision
    spread = theta / precision
    scale = obj.sigma_e_squared + _dot(spread, theta)
    gain = (obj.y_target - obj.model.intercept - _dot(mean, theta)) / scale
    return mean + spread * gain[:, None]


def _em_ascent(obj: PosteriorObjective, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """EM steps (``_em_step``) from every start together; a start stops
    once a step moves it by at most 1e-10 (1 + inf-norm of x) in the
    inf-norm, a fixed point and so a stationary point, or after 500 steps.
    Returns the endpoints and which of them converged."""
    points = starts.copy()
    converged = np.zeros(len(starts), dtype=bool)
    live = np.arange(len(starts))
    for _ in range(_MAX_ITERS):
        if not live.size:
            break
        last = points[live]
        step = _em_step(obj, last)
        points[live] = step
        done = np.abs(step - last).max(axis=1) <= _STEP_TOL * (1.0 + np.abs(last).max(axis=1))
        converged[live[done]] = True
        live = live[~done]
    return points, converged


def _cell_ascent(obj: PosteriorObjective, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate ascent over each feature's per-cell prior maxima
    (``_cell_candidates``) from every start in lockstep: each step scores
    one coordinate's cells at every live start in one ``predict_batch``,
    which holds each distinct row once (starts that differ only in that
    coordinate share its rows).  A start stops once every coordinate has
    been scored at its current point without moving (a local optimum, exact
    along every coordinate), or after 500 sweeps of steps.  Returns the
    endpoints and which of them converged."""
    cells = _cell_candidates(obj)
    points = starts.copy()
    unscored = np.full(len(starts), len(cells))
    live = np.arange(len(starts))
    for i, cands, log_p in itertools.islice(itertools.cycle(cells), _MAX_ITERS * len(cells)):
        if not live.size:
            break
        keys = points[live]
        keys[:, i] = 0.0
        first, shared = _distinct_rows(keys)
        rows = np.repeat(points[live[first]], cands.size, axis=0)
        rows[:, i] = np.tile(cands, first.size)
        misfit = (obj.y_target - obj.model.predict_batch(rows)).reshape(first.size, cands.size)
        best = cands[np.argmax(log_p - misfit * misfit / (2 * obj.sigma_e_squared), axis=1)]
        best = best[shared]
        # a move leaves the others to score again at the new point
        moved = best != points[live, i]
        unscored[live] = np.where(moved, len(cells) - 1, unscored[live] - 1)
        points[live, i] = best
        live = live[unscored[live] > 0]
    return points, unscored == 0


def _polish(
    obj: PosteriorObjective, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polish every row of ``starts`` together: the (points, values,
    converged) arrays, value NaN where the objective is not finite at the
    start.

    Linear models take EM steps (``_em_ascent``), trees coordinate steps
    (``_cell_ascent``).  Each start's iterates are bitwise those it takes
    alone.  Two stacked ``log_posterior`` calls score the starts and the
    endpoints; a finite endpoint replaces its start (EM steps never lower
    the objective in exact arithmetic, so a lower score there is rounding).
    """
    values = log_posterior(obj, starts)
    finite = np.flatnonzero(np.isfinite(values))
    ascent = _em_ascent if obj.model.kind == "linear" else _cell_ascent
    ends, ended = ascent(obj, starts[finite])
    end_values = log_posterior(obj, ends)
    kept = np.isfinite(end_values)
    points, converged = starts.copy(), np.zeros(len(starts), dtype=bool)
    points[finite[kept]], values[finite[kept]] = ends[kept], end_values[kept]
    converged[finite] = ended
    values[~np.isfinite(values)] = np.nan
    return points, values, converged


def local_maximize(obj: PosteriorObjective, x0) -> tuple[np.ndarray, float, bool]:
    """Polish one starting point, the one-row case of the search's polish:
    returns (point, value, converged) at the endpoint, or at x0 if the
    objective is not finite at the endpoint.  An exhausted iteration budget
    returns converged=False, and a start where the objective is not finite
    raises NumericalError.
    """
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    points, values, converged = _polish(obj, x0)
    if np.isnan(values[0]):
        raise NumericalError(f"objective is not finite at the starting point {x0[0]}")
    return points[0], float(values[0]), bool(converged[0])


def dedup_radius(point: np.ndarray) -> float:
    """1e-3 (1 + inf-norm of the point): optima closer than this coincide."""
    return _DEDUP_FRAC * (1.0 + float(np.abs(point).max()))


def direct_search_map(obj: PosteriorObjective, budget: SearchBudget, seed: int) -> MapResult:
    """Multistart MAP search with deduplication and hit counting.

    Starting points are drawn i.i.d. from ``obj.priors``, one per run in stream
    order, so a larger budget with the same seed reuses the smaller budget's
    starts as a prefix.  All starts are polished together (``_polish``),
    each to the endpoint it reaches alone.  Converged endpoints, in run
    order, join the first cluster (in creation order) within
    ``dedup_radius`` of them in the inf-norm, or start one; each cluster
    keeps its best point and the number of runs that landed in it (an
    empirical basin-probability estimate for budget diagnostics).  The
    per-run diagnostics are built only when every run failed.
    """
    rng = np.random.default_rng(seed)
    starts = np.array([obj.priors.sample(rng, 1)[0] for _ in range(budget.n_runs)])
    points, values, converged = _polish(obj, starts)
    if not converged.any():
        raise SearchFailureError(
            f"all {budget.n_runs} restarts failed to converge",
            diagnostics=[
                {"run": run, "start": x0.tolist(), "error": (
                    "iteration budget exhausted" if math.isfinite(value)
                    else f"objective is not finite at the starting point {x0}"
                )}
                for run, (x0, value) in enumerate(zip(starts, values))
            ],
        )
    # each cluster's best point, in creation order; a better point joining
    # a cluster replaces its row
    ends = points[converged]
    rows, best, hits = np.empty_like(ends), np.empty(len(ends)), np.zeros(len(ends), dtype=int)
    n = 0
    for point, value in zip(ends, values[converged]):
        near = np.flatnonzero(np.abs(rows[:n] - point).max(axis=1) <= dedup_radius(point))
        c = near[0] if near.size else n
        n = max(n, c + 1)
        hits[c] += 1
        if hits[c] == 1 or value > best[c]:
            rows[c], best[c] = point, value
    optima = tuple(
        LocalOptimum(point=rows[c], log_posterior=float(best[c]), hit_count=int(hits[c]))
        for c in np.argsort(-best[:n], kind="stable")
    )
    return MapResult(
        map_point=optima[0].point,
        map_log_posterior=optima[0].log_posterior,
        local_optima=optima,
        n_runs_executed=budget.n_runs,
        n_converged=int(converged.sum()),
    )
