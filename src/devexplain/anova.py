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


def _masks(d: int, size: int) -> np.ndarray:
    """The bitmasks of the coalitions of at most ``size`` of d features, by
    size and then by value, so a smaller table's rows lead a larger one's."""
    sizes = sum(np.arange(1 << d) >> i & 1 for i in range(d))
    return np.argsort(sizes, kind="stable")[: np.count_nonzero(sizes <= size)]


def _features(mask: int, features) -> tuple:
    """The coalition of a bitmask over ``features``: bit k picks the k-th."""
    return tuple(f for k, f in enumerate(features) if mask >> k & 1)


class _Coalitions:
    """The coalition values v(S, x) of one model over one background.

    v(S, x) is the background mean of f with the features in S set from x.
    The empty coalition, the plain background, is predicted once here; any
    other once per ``table`` that holds it.  Every batch is NP rows, so a
    model whose row values depend on the batch's size still differences
    like with like.
    """

    def __init__(self, model, bg: BackgroundSample):
        if model.d_x != bg.d_x:
            raise ValidationError(
                f"model expects d_x={model.d_x}, background has {bg.d_x} columns"
            )
        self.model = model
        self._background = bg.points
        self.empty = model.predict_batch(bg.points.copy())

    def table(self, x, size: int, features=None, keep=math.inf) -> tuple[np.ndarray, np.ndarray]:
        """One pass over the coalitions of at most ``size`` of ``features`` (all
        by default) set from ``x``, a vector or a dict of pins, in ``_masks``
        order: v, each one's mean by bitmask (NaN past ``size``), and f per
        background row for those of at most ``keep`` features (all)."""
        features = range(self._background.shape[1]) if features is None else features
        kept = sum(math.comb(len(features), k) for k in range(min(size, keep) + 1))
        masks, v = _masks(len(features), size), np.full(1 << len(features), math.nan)
        # the kept rows, then the rest 256 at a time: each mean reads one NP row
        edges = [0, *range(kept, masks.size, 256), masks.size]
        for lo, hi in zip(edges, edges[1:]):
            block = np.empty((hi - lo, self.empty.size))
            for row, mask in enumerate(masks[lo:hi].tolist()):
                coalition = list(_features(mask, features))
                pinned = self._background.copy()
                pinned[:, coalition] = [x[i] for i in coalition]
                block[row] = self.model.predict_batch(pinned) if mask else self.empty
            v[masks[lo:hi]] = block.mean(axis=1)
            rows = block if lo == 0 else rows
        return v, rows


def _term(table: np.ndarray, row: int, term: tuple) -> np.ndarray:
    """Inclusion-exclusion summands of ``term``, at ``row`` of a table in
    ``_masks`` order: g_I - g or g_IJ - g_I - g_J + g."""
    if len(term) == 1:
        return table[row] - table[0]
    i, j = term
    return table[row] - table[1 + i] - table[1 + j] + table[0]


def f_zero(model, bg: BackgroundSample) -> float:
    """Grand mean f0: average prediction over the background."""
    return float(np.mean(_Coalitions(model, bg).empty))


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
    pins = {_feature_index(i, bg.d_x): value for i, value in pins.items()}
    if not all(math.isfinite(value) for value in pins.values()):
        raise ValidationError("pinned values must be finite")
    # the coalitions of the pinned features alone, the k-th as feature k
    _, rows = _Coalitions(model, bg).table(pins, len(pins), tuple(pins))
    return _mean_and_stderr(_term(rows, len(rows) - 1, tuple(range(len(pins)))))


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
    construction.  As the coalition of every feature predicts f(x), it is
    (y_obs - f(x_obs)) - (y_ref - f(x_ref)) + sum_{|T| > order} delta_T, the
    model errors' difference plus the terms of more than ``order`` features.
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
) -> DeviationDecomposition:
    """Deviation terms delta_I (and delta_IJ) between observation and reference.

    delta_I = f_I(x_obs_I) - f_I(x_ref_I) on the common background.  Both
    sides average the same rows, so the reported stderr is that of the
    paired per-row differences.  Each pinned coalition is predicted once,
    the plain background once for both sides.
    """
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    x_obs = np.asarray(x_obs, dtype=float).reshape(-1)
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    if x_obs.size != bg.d_x or x_ref.size != bg.d_x:
        raise ValidationError("observation/reference length must match background")
    if not (np.all(np.isfinite(x_obs)) and np.all(np.isfinite(x_ref))):
        raise ValidationError("pinned value must be finite")
    coalitions = _Coalitions(model, bg)
    (_, obs), (_, ref) = coalitions.table(x_obs, order), coalitions.table(x_ref, order)
    return _decompose(obs, ref, x_obs, x_ref, y_obs, y_ref, order)


def _decompose(obs, ref, x_obs, x_ref, y_obs, y_ref, order: int) -> DeviationDecomposition:
    """The deviation terms from the coalition rows of the observation and of
    the reference, each holding at least the coalitions of ``order`` features."""
    d = x_obs.size
    first, first_se = np.empty(d), np.empty(d)
    second, second_se = (np.zeros((d, d)), np.zeros((d, d))) if order == 2 else (None, None)
    for row, mask in enumerate(_masks(d, order)[1:].tolist(), 1):
        term = _features(mask, range(d))
        obs_term, ref_term = _term(obs, row, term), _term(ref, row, term)
        est, se = (first, first_se) if len(term) == 1 else (second, second_se)
        est[term] = float(obs_term.mean()) - float(ref_term.mean())
        se[term] = _mean_and_stderr(obs_term - ref_term)[1]
    total_delta = float(y_obs) - float(y_ref)
    term_total = float(first.sum()) + (float(second.sum()) if second is not None else 0.0)
    return DeviationDecomposition(
        observation=x_obs,
        reference=x_ref,
        total_delta=total_delta,
        first_order=first,
        second_order=second,
        residual=total_delta - term_total,
        f0=float(np.mean(obs[0])),
        np_used=obs.shape[1],
        stderr_first_order=first_se,
        stderr_second_order=second_se,
    )
