"""ANOVA functional decomposition of f and deviation terms against a reference.

f decomposes as f0 + sum_I f_I(x_I) + sum_{I<J} f_IJ(x_I, x_J) + ... where
each term is a centered conditional expectation over a background sample.
The deviation of one observation from a reference point then splits into
per-feature differences delta_I = f_I(x_obs_I) - f_I(x_ref_I), pairwise
interaction differences, and a residual that closes the identity exactly.

All estimators share one background sample (common random numbers): the
shared noise cancels, which makes linear models exact and additive models'
interactions vanish at double precision instead of merely in expectation.

Any object with ``d_x`` and ``predict_batch`` can serve as the model here;
the contract is deliberately loose so tests can use closed-form stubs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ValidationError
from .mixtures import FeaturePriors

PRIOR_SAMPLED = "prior-sampled"
DATASET_RESAMPLED = "dataset-resampled"


@dataclass(frozen=True)
class BackgroundSample:
    """NP feature vectors the conditional expectations average over."""

    points: np.ndarray
    source: str
    seed: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.points.shape[0] < 1:
            raise ValidationError("background needs at least one row")
        if not np.all(np.isfinite(self.points)):
            raise ValidationError("background contains non-finite entries")
        if self.source not in (PRIOR_SAMPLED, DATASET_RESAMPLED):
            raise ValidationError(f"unknown background source {self.source!r}")

    @property
    def np_used(self) -> int:
        return self.points.shape[0]

    @property
    def d_x(self) -> int:
        return self.points.shape[1]


def draw_background(priors_or_data, np_count: int, seed: int) -> BackgroundSample:
    """Sample NP background rows.

    From :class:`FeaturePriors`: each column drawn from its mixture
    (independent features).  From :class:`Dataset`: rows resampled with
    replacement, preserving empirical feature dependence.
    """
    if np_count < 1:
        raise ValidationError("np_count must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(priors_or_data, FeaturePriors):
        points = priors_or_data.sample(rng, np_count)
        source = PRIOR_SAMPLED
    elif isinstance(priors_or_data, Dataset):
        if priors_or_data.n == 0:
            raise ValidationError("cannot resample an empty dataset")
        idx = rng.integers(0, priors_or_data.n, size=np_count)
        points = priors_or_data.features[idx]
        source = DATASET_RESAMPLED
    else:
        raise ValidationError(
            "background source must be FeaturePriors or Dataset, "
            f"got {type(priors_or_data).__name__}"
        )
    return BackgroundSample(points=points, source=source, seed=seed)


def _check_model(model, bg: BackgroundSample) -> None:
    if model.d_x != bg.d_x:
        raise ValidationError(
            f"model expects d_x={model.d_x}, background has {bg.d_x} columns"
        )


def _pinned_rows(model, bg: BackgroundSample, x, features) -> np.ndarray:
    """f per background row with ``features`` set from ``x``: the summands of v(S, x).

    ``x`` is anything indexed by feature, a full vector or a dict of pins.
    """
    if not features:
        return model.predict_batch(bg.points)
    pinned = bg.points.copy()
    for i in features:
        pinned[:, i] = x[i]
    return model.predict_batch(pinned)


def _coalition_rows(model, bg: BackgroundSample, x, coalition: tuple, rows: dict) -> np.ndarray:
    """``_pinned_rows`` of ``coalition`` at x, read from ``rows`` when it holds them.

    ``rows`` is keyed by the coalition and the bits of the values x pins to
    it, so every x that pins the same values shares one entry; a missing one
    is predicted and added.
    """
    key = (coalition, np.array([x[i] for i in coalition], dtype=float).tobytes())
    if key not in rows:
        rows[key] = _pinned_rows(model, bg, x, coalition)
    return rows[key]


def _term_rows(model, bg: BackgroundSample, x, term: tuple, rows: dict) -> np.ndarray:
    """Inclusion-exclusion summands of ``term``: g_I - g or g_IJ - g_I - g_J + g,
    with every coalition read through ``_coalition_rows``."""
    g = {
        coalition: _coalition_rows(model, bg, x, coalition, rows)
        for size in range(len(term) + 1)
        for coalition in itertools.combinations(term, size)
    }
    if len(term) == 1:
        return g[term] - g[()]
    i, j = term
    return g[term] - g[(i,)] - g[(j,)] + g[()]


def f_zero(model, bg: BackgroundSample) -> float:
    """Grand mean f0: average prediction over the background."""
    _check_model(model, bg)
    return float(np.mean(_pinned_rows(model, bg, None, ())))


def _mean_and_stderr(summands: np.ndarray) -> tuple[float, float]:
    n = summands.size
    est = float(summands.mean())
    stderr = float(summands.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return est, stderr


def _effect(model, bg: BackgroundSample, pins: dict) -> tuple[float, float]:
    """Mean and MC stderr of the term over ``pins``' features at their values."""
    _check_model(model, bg)
    if not all(0 <= i < bg.d_x for i in pins):
        raise ValidationError(f"feature index out of range 0..{bg.d_x - 1}")
    if not all(math.isfinite(value) for value in pins.values()):
        raise ValidationError("pinned values must be finite")
    return _mean_and_stderr(_term_rows(model, bg, pins, tuple(pins), {}))


def first_order_effect(
    model, bg: BackgroundSample, feature_index: int, value: float
) -> tuple[float, float]:
    """Main effect f_I(value) = E(f | x_I = value) - f0, with MC stderr.

    Both terms average over the same background rows, so the per-row
    summand is predict(row with x_I = value) - predict(row); its sample
    std over sqrt(NP) is the standard error.
    """
    return _effect(model, bg, {feature_index: value})


def second_order_effect(
    model,
    bg: BackgroundSample,
    feature_i: int,
    feature_j: int,
    value_i: float,
    value_j: float,
) -> tuple[float, float]:
    """Interaction f_IJ = E(f | x_I, x_J) - f_I - f_J - f0, with MC stderr.

    Expanding the main effects and f0 over the common background collapses
    the estimator to one per-row summand
    g_IJ - g_I - g_J + g, so additive models give (numerically) zero.
    """
    if feature_i == feature_j:
        raise ValidationError("second-order effect needs two distinct features")
    return _effect(model, bg, {feature_i: value_i, feature_j: value_j})


@dataclass(frozen=True)
class DeviationDecomposition:
    """Split of y_obs - y_ref into per-feature terms plus a closing residual.

    ``second_order`` is an upper-triangular d x d matrix (zeros elsewhere)
    or None when only first order was requested.  ``residual`` is defined
    as total minus the computed terms, so the closure identity holds by
    construction; it absorbs observation noise and truncated higher orders.
    """

    observation: np.ndarray
    reference: np.ndarray
    total_delta: float
    first_order: np.ndarray
    second_order: np.ndarray | None
    residual: float
    f0: float
    np_used: int
    stderr_first_order: np.ndarray
    stderr_second_order: np.ndarray | None = None

    @property
    def d_x(self) -> int:
        return self.observation.size

    def term_sum(self) -> float:
        total = float(self.first_order.sum())
        if self.second_order is not None:
            total += float(self.second_order.sum())
        return total


def decompose_deviation(
    model,
    bg: BackgroundSample,
    x_obs,
    x_ref,
    y_obs: float,
    y_ref: float,
    order: int = 1,
    *,
    rows: dict | None = None,
) -> DeviationDecomposition:
    """Deviation terms delta_I (and delta_IJ) between observation and reference.

    delta_I = f_I(x_obs_I) - f_I(x_ref_I) on the common background.  Both
    sides average the same rows, so the reported stderr is that of the
    paired per-row differences.  Each pinned coalition is predicted once.

    ``rows`` holds the pinned coalitions already predicted, keyed by their
    pinned values (see ``_coalition_rows``); the missing ones are predicted
    and added.  A caller that keeps it across rows and references predicts
    each distinct pinned batch once.
    """
    rows = {} if rows is None else rows
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    x_obs = np.asarray(x_obs, dtype=float).reshape(-1)
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    _check_model(model, bg)
    d = bg.d_x
    if x_obs.size != d or x_ref.size != d:
        raise ValidationError("observation/reference length must match background")
    if not (np.all(np.isfinite(x_obs)) and np.all(np.isfinite(x_ref))):
        raise ValidationError("pinned value must be finite")
    total_delta = float(y_obs) - float(y_ref)
    base = _coalition_rows(model, bg, x_obs, (), rows)
    first = np.empty(d)
    first_se = np.empty(d)
    second = second_se = None
    terms = list(itertools.combinations(range(d), 1))
    if order == 2:
        second = np.zeros((d, d))
        second_se = np.zeros((d, d))
        terms += itertools.combinations(range(d), 2)
    for term in terms:
        obs = _term_rows(model, bg, x_obs, term, rows)
        ref = _term_rows(model, bg, x_ref, term, rows)
        est, se = (first, first_se) if len(term) == 1 else (second, second_se)
        est[term] = float(obs.mean()) - float(ref.mean())
        se[term] = _mean_and_stderr(obs - ref)[1]
    term_total = float(first.sum()) + (float(second.sum()) if second is not None else 0.0)
    residual = total_delta - term_total
    return DeviationDecomposition(
        observation=x_obs,
        reference=x_ref,
        total_delta=total_delta,
        first_order=first,
        second_order=second,
        residual=residual,
        f0=float(np.mean(base)),
        np_used=bg.np_used,
        stderr_first_order=first_se,
        stderr_second_order=second_se,
    )
