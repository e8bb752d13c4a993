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
import operator
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _frozen_array
from .errors import ValidationError
from .mixtures import FeaturePriors


@dataclass(frozen=True)
class BackgroundSample:
    """NP finite feature vectors the conditional expectations average over."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_array(np.atleast_2d(self.points)))
        if 0 in self.points.shape:
            raise ValidationError("background needs at least one row and one column")
        if not np.all(np.isfinite(self.points)):
            raise ValidationError("background contains non-finite entries")

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
    elif isinstance(priors_or_data, Dataset):
        if priors_or_data.n == 0:
            raise ValidationError("cannot resample an empty dataset")
        points = priors_or_data.features[rng.integers(0, priors_or_data.n, size=np_count)]
    else:
        raise ValidationError(
            "background source must be FeaturePriors or Dataset, "
            f"got {type(priors_or_data).__name__}"
        )
    return BackgroundSample(points)


class _Coalitions:
    """The coalition values v(S, x) of one model over one background.

    v(S, x) is the background mean of f with the features in S set from x.
    Each pinned batch of NP rows is predicted once and kept, keyed by S and
    the bits of the values pinned to it, until ``release`` drops it.
    ``points`` lists, in order, the points a caller will pin.  Every batch
    has one shape, so a model whose row values depend on the batch's size
    still differences like with like.
    """

    def __init__(self, model, bg: BackgroundSample, points=()):
        if model.d_x != bg.d_x:
            raise ValidationError(
                f"model expects d_x={model.d_x}, background has {bg.d_x} columns"
            )
        self.model = model
        self._background = bg.points
        self._points = np.asarray(points, dtype=float).reshape(-1, bg.d_x)
        self._batches = {}
        self._last_use = {}

    def rows(self, x, coalition: tuple) -> np.ndarray:
        """The summands of v(S, x): f per background row with ``coalition``
        set from ``x``, a full vector or a dict of pins."""
        values = np.array([x[i] for i in coalition], dtype=float)
        key = (coalition, values.tobytes())
        if key not in self._batches:
            pinned = self._background.copy()
            pinned[:, list(coalition)] = values
            self._batches[key] = self.model.predict_batch(pinned)
        return self._batches[key]

    def term(self, x, term: tuple) -> np.ndarray:
        """Inclusion-exclusion summands of ``term``: g_I - g or g_IJ - g_I - g_J + g."""
        if len(term) == 1:
            return self.rows(x, term) - self.rows(x, ())
        i, j = term
        return self.rows(x, term) - self.rows(x, (i,)) - self.rows(x, (j,)) + self.rows(x, ())

    def release(self, q: int) -> None:
        """Drop every batch whose pinned values no point after the q-th pins."""
        for coalition, bits in list(self._batches):
            if coalition not in self._last_use:
                pinned = self._points[:, list(coalition)]
                self._last_use[coalition] = {v.tobytes(): p for p, v in enumerate(pinned)}
            if self._last_use[coalition].get(bits, -1) <= q:
                del self._batches[coalition, bits]


def f_zero(model, bg: BackgroundSample) -> float:
    """Grand mean f0: average prediction over the background."""
    return float(np.mean(_Coalitions(model, bg).rows(None, ())))


def _mean_and_stderr(summands: np.ndarray) -> tuple[float, float]:
    n = summands.size
    est = float(summands.mean())
    stderr = float(summands.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return est, stderr


def _feature_index(i, d: int) -> int:
    """``i`` as a feature index in 0..d-1; bools and non-integers are refused."""
    try:
        if not isinstance(i, bool) and 0 <= operator.index(i) < d:
            return operator.index(i)
    except TypeError:
        pass
    raise ValidationError(f"feature index must be an integer in 0..{d - 1}, got {i!r}")


def _effect(model, bg: BackgroundSample, pins: dict) -> tuple[float, float]:
    """Mean and MC stderr of the term over ``pins``' features at their values."""
    coalitions = _Coalitions(model, bg)
    pins = {_feature_index(i, bg.d_x): value for i, value in pins.items()}
    if not all(math.isfinite(value) for value in pins.values()):
        raise ValidationError("pinned values must be finite")
    return _mean_and_stderr(coalitions.term(pins, tuple(pins)))


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
    coalitions: _Coalitions | None = None,
) -> DeviationDecomposition:
    """Deviation terms delta_I (and delta_IJ) between observation and reference.

    delta_I = f_I(x_obs_I) - f_I(x_ref_I) on the common background.  Both
    sides average the same rows, so the reported stderr is that of the
    paired per-row differences.  Each pinned coalition is predicted once.

    Every coalition value is read through ``coalitions``, an evaluator
    built over the same model and background, or a fresh one when None.  A
    caller that keeps one across rows and references predicts each
    distinct pinned batch once.
    """
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    x_obs = np.asarray(x_obs, dtype=float).reshape(-1)
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    coalitions = coalitions or _Coalitions(model, bg)
    d = bg.d_x
    if x_obs.size != d or x_ref.size != d:
        raise ValidationError("observation/reference length must match background")
    if not (np.all(np.isfinite(x_obs)) and np.all(np.isfinite(x_ref))):
        raise ValidationError("pinned value must be finite")
    total_delta = float(y_obs) - float(y_ref)
    base = coalitions.rows(x_obs, ())
    first = np.empty(d)
    first_se = np.empty(d)
    second = second_se = None
    terms = list(itertools.combinations(range(d), 1))
    if order == 2:
        second = np.zeros((d, d))
        second_se = np.zeros((d, d))
        terms += itertools.combinations(range(d), 2)
    for term in terms:
        obs = coalitions.term(x_obs, term)
        ref = coalitions.term(x_ref, term)
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
