"""Responsible scores, interventional Shapley values, and the explain pipeline.

A responsible score is a deviation term divided by the total deviation:
s_I = delta_I / delta.  Scores are signed and unclamped; when the total
deviation is smaller than a fraction of the label spread the ratio is
meaningless and the result is flagged degenerate instead.

Shapley values come from exact subset enumeration over a shared background
sample; every v(S), the full coalition included, is the mean of one pinned
batch, so the dummy and symmetry axioms hold exactly, efficiency to rounding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .anova import (
    BackgroundSample,
    DeviationDecomposition,
    _Coalitions,
    _decompose,
    draw_background,
)
from .dataset import Dataset, _finite_vector
from .errors import ValidationError, _stage
from .inverse import MapResult, PosteriorObjective, default_budget, direct_search_map
from .mixtures import (
    FeaturePriors,
    _stage_seeds,
    mode_z_score,
    modes,
    select_k,
    z_score,
)
from .models import PredictiveModel, clamp_sigma_e_squared, residual_stats

# Most features that exact enumeration takes.  A point's table holds 2^d
# means, never 2^d batches of rows, so this bounds time, not memory.
_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class ResponsibleScores:
    """Fraction of the total deviation carried by each term.

    Degenerate results keep the flag set and NaN score entries; the raw
    delta terms stay available in the decomposition they came from.
    """

    first_order: np.ndarray
    second_order: np.ndarray | None
    residual_share: float
    reference_kind: str
    mode_index: int | None
    degenerate: bool


@dataclass(frozen=True)
class ShapleyAttribution:
    """Interventional Shapley values of one row, by exact enumeration.

    ``values`` holds phi_i per feature, and ``base_value`` is v(empty), the
    background mean of f (f0): Monte Carlo estimates over the ``np_used``
    background rows, without a standard error.  The values sum to the
    all-features coalition mean minus ``base_value``, to rounding.
    """

    values: np.ndarray
    base_value: float
    np_used: int


def responsible_scores(
    decomp: DeviationDecomposition,
    degeneracy_tau: float,
    label_scale: float,
    reference_kind: str,
    mode_index: int | None = None,
) -> ResponsibleScores:
    """Divide every term of the decomposition by the total deviation.

    If |total| < degeneracy_tau * label_scale the observation sits too
    close to the reference for ratios to mean anything; the terms are divided
    by NaN instead, so the scores come back NaN with degenerate=True (a
    flagged state, not an error).
    """
    if not (math.isfinite(degeneracy_tau) and degeneracy_tau > 0):
        raise ValidationError("degeneracy_tau must be positive and finite")
    if label_scale < 0:
        raise ValidationError("label_scale must be nonnegative")
    degenerate = bool(abs(decomp.total_delta) < degeneracy_tau * label_scale)
    total = math.nan if degenerate else decomp.total_delta
    return ResponsibleScores(
        first_order=decomp.first_order / total,
        second_order=None
        if decomp.second_order is None
        else decomp.second_order / total,
        residual_share=decomp.residual / total,
        reference_kind=reference_kind,
        mode_index=mode_index,
        degenerate=degenerate,
    )


def _check_enumerable(d_x: int) -> None:
    """Refuse a feature count whose 2^d_x coalitions are too many to enumerate."""
    if d_x > _ENUMERATION_LIMIT:
        raise ValidationError(
            f"exact Shapley enumeration is limited to d_x <= {_ENUMERATION_LIMIT}, got {d_x}"
        )


def shapley_values(model, bg: BackgroundSample, x_obs) -> ShapleyAttribution:
    """Interventional Shapley values by exact subset enumeration.

    v(S) is the mean prediction over the background with the coordinates in
    S pinned to the observation; every subset shares the same background
    rows.  v(empty) is f0, and v(all features) the mean with every feature
    pinned, so the dummy axiom is exact and efficiency holds to rounding.
    """
    d = bg.d_x
    x_obs = _finite_vector(x_obs, d, "x_obs")
    _check_enumerable(d)
    return _shapley(_Coalitions(model, bg).table(x_obs, d, keep=0)[0], bg.np_used)


def _shapley(v: np.ndarray, np_used: int) -> ShapleyAttribution:
    """Shapley values from the coalition values v of d features, by bitmask.

    phi_i is one exactly rounded ``math.fsum`` of the weighted marginals
    weight[|S|] (v(S + i) - v(S)) over the S without i, so the summation
    order moves no bit."""
    d = v.size.bit_length() - 1
    masks = np.arange(1 << d)
    size = sum(masks >> i & 1 for i in range(d))
    fact = [math.factorial(i) for i in range(d + 1)]
    weight = np.array([fact[s] * fact[d - s - 1] / fact[d] for s in range(d)])
    values = np.empty(d)
    for i in range(d):
        out = masks[masks >> i & 1 == 0]
        values[i] = math.fsum(weight[size[out]] * (v[out | 1 << i] - v[out]))
    return ShapleyAttribution(values=values, base_value=float(v[0]), np_used=np_used)


def mean_based_scores_equal_shap_check(model, report: "ExplanationReport") -> float:
    """Max per-feature gap between normalized mean-based scores and SHAP.

    Only meaningful for linear models with a mean reference, where the two
    attributions coincide up to Monte Carlo and reference-fitting error.
    """
    if model.kind != "linear":
        raise ValidationError("check applies to linear models only")
    if report.reference_kind != "mean":
        raise ValidationError("check applies to mean-reference reports only")
    if report.scores.degenerate:
        raise ValidationError("scores are degenerate; comparison is undefined")
    s = report.scores.first_order
    phi = report.shap.values
    s_total = float(s.sum())
    phi_total = float(phi.sum())
    if s_total == 0 or phi_total == 0:
        raise ValidationError("zero-sum attribution; normalization is undefined")
    return float(np.max(np.abs(s / s_total - phi / phi_total)))


@dataclass(frozen=True)
class ExplainSettings:
    """Knobs for one explanation run; everything that affects the output."""

    seed: int
    np_count: int | None = None  # background rows; None takes min(N, 2000)
    order: int = 1
    k_max: int = 6
    budget_runs: int | None = None  # MAP restarts; None keeps default_budget's
    degeneracy_tau: float = 0.05
    bg_source: str = "resample"

    def __post_init__(self):
        if self.np_count is not None:
            self.background_size(self.np_count)  # an explicit count is checked now
        if self.order not in (1, 2):
            raise ValidationError("order must be 1 or 2")
        if self.k_max < 1:
            raise ValidationError("k_max must be >= 1")
        if self.budget_runs is not None and self.budget_runs < 1:
            raise ValidationError("budget_runs must be >= 1")
        if not (math.isfinite(self.degeneracy_tau) and self.degeneracy_tau > 0):
            raise ValidationError("degeneracy_tau must be positive and finite")
        if self.bg_source not in ("resample", "prior"):
            raise ValidationError("bg_source must be 'resample' or 'prior'")

    def background_size(self, n_rows: int) -> int:
        """The background rows drawn for a data set of ``n_rows`` rows:
        ``np_count``, or min(n_rows, 2000) when it is None."""
        size = min(n_rows, 2000) if self.np_count is None else self.np_count
        if size < 2:
            # a Monte Carlo standard error needs two background rows
            raise ValidationError("np_count must be >= 2")
        return size


@dataclass(frozen=True)
class ExplanationReport:
    """One row's explanation against one reference: what a report file holds.

    Exact, read from the data and the settings: ``observation_index``,
    ``feature_names``, ``y_obs``, ``z`` (the label's global z-score) and
    ``settings`` (the echoed seed, NP, order, k_max, tau, background source
    and MAP budget, the budget None against the mean).  ``reference_kind`` is "mean"
    or "mode", with ``mode_index`` the mode's rank by density (None against
    the mean).  Against the mean, ``y_ref`` and ``x_ref`` are the label and
    feature means, and ``z_m`` and ``map_result`` are None.  Against a mode,
    ``y_ref`` is the mode's location in the BIC-selected label mixture,
    ``z_m`` the z-score in the mode's width ``sigma_m``, and ``x_ref`` the
    best point of the multistart MAP search in ``map_result``.
    ``decomposition`` holds the ANOVA terms and residual, ``scores`` the
    terms over the total deviation, and ``shap`` the row's Shapley values
    over the same background rows.
    """

    observation_index: int
    feature_names: tuple[str, ...]
    y_obs: float
    reference_kind: str
    mode_index: int | None
    y_ref: float
    x_ref: np.ndarray
    scores: ResponsibleScores
    shap: ShapleyAttribution
    z: float
    z_m: float | None
    decomposition: DeviationDecomposition
    map_result: MapResult | None
    settings: dict


def explain(
    model: PredictiveModel,
    priors: FeaturePriors | None,
    data: Dataset,
    observation_index: int,
    reference,
    settings: ExplainSettings,
) -> ExplanationReport:
    """Full per-observation explanation against a mean or mode reference.

    ``reference`` is the string "mean" or a pair ("mode", m) selecting the
    m-th densest mode of a mixture fitted to the labels.

    The mean reference compares against the feature means with y_ref = label
    mean (for a least-squares linear model the two are consistent: f at the
    feature means equals the label mean).  The mode reference fits a label
    mixture, picks mode m, and solves the inverse problem for the feature
    vector that best explains that mode, so the reference point is
    mode-specific.

    The master seed is split into three child streams (label mixture, MAP
    search, background) so stages stay decoupled but reproducible.
    """
    batch = explain_many(model, priors, data, [observation_index], [reference], settings)
    return batch[0][0]


def _check_inputs(model, data: Dataset, indices, settings: ExplainSettings) -> int:
    """Every refusal of an explanation that needs no stage to have run: a row
    index out of range, a model whose feature count is not the data's, more
    features than exact enumeration takes, a background of fewer than two
    rows.  Returns the background size, which the settings echo reports."""
    for index in indices:
        data.row(index)  # refuses an index out of range
    if model.d_x != data.d_x:
        raise ValidationError(f"model takes {model.d_x} features, data has {data.d_x}")
    _check_enumerable(data.d_x)
    return settings.background_size(data.n)


def _parse_reference(reference) -> tuple[str, int | None]:
    if reference == "mean":
        return "mean", None
    try:
        ref_kind, mode_index = reference
    except (TypeError, ValueError):
        raise ValidationError(f"unknown reference {reference!r}") from None
    if ref_kind != "mode" or not isinstance(mode_index, int) or mode_index < 0:
        raise ValidationError(f"unknown reference {reference!r}")
    return ref_kind, mode_index


def explain_many(
    model: PredictiveModel,
    priors: FeaturePriors | None,
    data: Dataset,
    indices,
    references,
    settings: ExplainSettings,
) -> list[list[ExplanationReport]]:
    """Explain several observations against several references: one list of
    reports per reference, in the order given, each report identical to
    what a single `explain` call would produce.

    The background draw and plain rows are computed once, the residuals and
    label mixture at most once, a MAP search and the rows of at most ``order``
    features once per reference, and per row each coalition's mean and those
    rows.  Only the MAP search (residuals, priors) and a prior background
    (priors) read the priors; they may be None when nothing does.  A mean
    reference runs no MAP search, so its settings echo a null ``budget``.
    """
    indices = [int(i) for i in indices]
    np_count = _check_inputs(model, data, indices, settings)
    parsed = [_parse_reference(reference) for reference in references]
    searched = any(ref_kind == "mode" for ref_kind, _ in parsed)
    if priors is None:
        if searched or settings.bg_source == "prior":
            raise ValidationError("a mode reference or a prior background needs priors")
    elif priors.d_x != data.d_x:
        raise ValidationError(f"priors cover {priors.d_x} features, data has {data.d_x}")
    if not indices or not parsed:
        return [[] for _ in parsed]

    gmm_seed, map_seed, bg_seed = _stage_seeds(settings.seed)

    if searched:
        with _stage("residuals"):
            stats = residual_stats(model, data)
            sigma2 = clamp_sigma_e_squared(stats.sigma_e_squared, data.labels)

    echo = {
        "seed": settings.seed,
        "np": np_count,
        "order": settings.order,
        "k_max": settings.k_max,
        "degeneracy_tau": settings.degeneracy_tau,
        "bg_source": settings.bg_source,
    }
    # per reference: its mode and the fields all of its reports share
    refs = []
    mode_list = None
    for ref_kind, mode_index in parsed:
        map_result = mode = budget = None
        if ref_kind == "mean":
            y_ref = float(data.labels.mean())
            x_ref = data.features.mean(axis=0)
        else:
            with _stage("label-mixture"):
                if mode_list is None:
                    mode_list = modes(select_k(data.labels, settings.k_max, gmm_seed))
                if mode_index >= len(mode_list):
                    raise ValidationError(
                        f"mode {mode_index} requested but only {len(mode_list)} found"
                    )
                mode = mode_list[mode_index]
            with _stage("map-search"):
                budget = default_budget(priors)
                budget = replace(budget, n_runs=settings.budget_runs or budget.n_runs)
                obj = PosteriorObjective(model, priors, mode.location, sigma2)
                map_result = direct_search_map(obj, budget=budget, seed=map_seed)
                x_ref = map_result.map_point
                y_ref = mode.location
        shared = {
            "reference_kind": ref_kind,
            "mode_index": mode_index,
            "y_ref": y_ref,
            "x_ref": np.asarray(x_ref, dtype=float),
            "map_result": map_result,
            "settings": {**echo, "budget": None if budget is None else asdict(budget)},
        }
        refs.append((mode, shared))

    with _stage("background"):
        source = priors if settings.bg_source == "prior" else data
        bg = draw_background(source, np_count, bg_seed)

    label_std = float(data.labels.std())
    coalitions = _Coalitions(model, bg)
    with _stage("decompose"):
        ref_rows = [coalitions.table(shared["x_ref"], settings.order)[1] for _, shared in refs]
    reports = [[] for _ in refs]
    for observation_index in indices:
        x_obs, y_obs = data.row(observation_index)
        with _stage("shapley"):
            v, rows = coalitions.table(x_obs, data.d_x, keep=settings.order)
            shap = _shapley(v, bg.np_used)
        for (mode, shared), ref, out in zip(refs, ref_rows, reports):
            with _stage("decompose"):
                decomp = _decompose(
                    rows, ref, x_obs, shared["x_ref"], y_obs, shared["y_ref"],
                    settings.order,
                )
            with _stage("scores"):
                scores = responsible_scores(
                    decomp, settings.degeneracy_tau, label_std,
                    shared["reference_kind"], shared["mode_index"],
                )
            out.append(
                ExplanationReport(
                    observation_index=observation_index,
                    feature_names=data.feature_names,
                    y_obs=y_obs,
                    scores=scores,
                    shap=shap,
                    z=z_score(y_obs, data.labels),
                    z_m=None if mode is None else mode_z_score(y_obs, mode),
                    decomposition=decomp,
                    **shared,
                )
            )
    return reports
