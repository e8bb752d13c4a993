"""Explain why an observation's label deviates from a reference value.

The pipeline: fit a forward model f(x) to labeled data, describe the label
distribution with a 1-D Gaussian mixture, pick a reference (the sample mean
or a density mode), for a mode recover the feature vector that best explains
it by Bayesian MAP inversion under the feature priors, and split the
observation's deviation into per-feature responsible scores via the ANOVA
decomposition of f.
Interventional Shapley values are computed alongside for comparison.
"""

from .anova import (
    BackgroundSample,
    DeviationDecomposition,
    decompose_deviation,
    draw_background,
    f_zero,
    first_order_effect,
    second_order_effect,
)
from .attribution import (
    ExplainSettings,
    ExplanationReport,
    ResponsibleScores,
    ShapleyAttribution,
    explain,
    explain_many,
    mean_based_scores_equal_shap_check,
    report_to_json,
    responsible_scores,
    shapley_values,
)
from .dataset import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    trimodal_benchmark_spec,
    river_fixture_path,
    split,
)
from .errors import (
    DevexplainError,
    IngestionError,
    NumericalError,
    SearchFailureError,
    SingularFitError,
    ValidationError,
)
from .inverse import (
    MapResult,
    PosteriorObjective,
    SearchBudget,
    default_budget,
    direct_search_map,
    local_maximize,
    log_posterior,
    required_runs,
)
from .mixtures import (
    FeaturePriors,
    GaussianMixture1D,
    ModeInfo,
    density,
    fit_gmm,
    fit_priors,
    log_prior,
    mode_z_score,
    modes,
    select_k,
    z_score,
)
from .models import (
    GbtModel,
    GbtParams,
    LinearModel,
    PredictiveModel,
    ResidualStats,
    clamp_sigma_e_squared,
    fit_gbt,
    fit_linear,
    load_model,
    model_from_json,
    model_to_json,
    predict,
    residual_stats,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
