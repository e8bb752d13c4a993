"""Explain why an observation's label deviates from a reference value.

The pipeline: fit a forward model f(x) to labeled data, describe the label
distribution with a 1-D Gaussian mixture, pick a reference (the sample mean
or a density mode), for a mode recover the feature vector that best explains
it by Bayesian MAP inversion under the feature priors, and split the
observation's deviation into per-feature responsible scores via the ANOVA
decomposition of f.
Interventional Shapley values are computed alongside for comparison.

The public names below resolve on first use (PEP 562), so ``import
devexplain`` loads no numpy: the command line can choose the BLAS thread
count before numpy starts its threads.
"""

import importlib

_EXPORTS = {
    "anova": (
        "BackgroundSample",
        "DeviationDecomposition",
        "decompose_deviation",
        "draw_background",
        "f_zero",
        "first_order_effect",
        "second_order_effect",
    ),
    "attribution": (
        "ExplainSettings",
        "ExplanationReport",
        "ResponsibleScores",
        "ShapleyAttribution",
        "explain",
        "explain_many",
        "mean_based_scores_equal_shap_check",
        "responsible_scores",
        "shapley_values",
    ),
    "dataset": (
        "Dataset",
        "SyntheticSpec",
        "generate_synthetic",
        "load_csv",
        "report_to_json",
        "trimodal_benchmark_spec",
        "river_fixture_path",
        "split",
    ),
    "errors": (
        "DevexplainError",
        "IngestionError",
        "NumericalError",
        "SearchFailureError",
        "SingularFitError",
        "ValidationError",
    ),
    "inverse": (
        "MapResult",
        "PosteriorObjective",
        "SearchBudget",
        "default_budget",
        "direct_search_map",
        "local_maximize",
        "log_posterior",
        "required_runs",
    ),
    "mixtures": (
        "FeaturePriors",
        "GaussianMixture1D",
        "ModeInfo",
        "density",
        "fit_gmm",
        "fit_priors",
        "log_prior",
        "mode_z_score",
        "modes",
        "select_k",
        "z_score",
    ),
    "models": (
        "GbtModel",
        "GbtParams",
        "LinearModel",
        "PredictiveModel",
        "ResidualStats",
        "clamp_sigma_e_squared",
        "fit_gbt",
        "fit_linear",
        "load_model",
        "model_from_json",
        "model_to_json",
        "predict",
        "residual_stats",
    ),
}
# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # resolved once, as an eager import would bind it
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
