"""
Explaining a forced outlier on the trimodal benchmark
=====================================================

Generates the three-feature additive benchmark, appends one impossible
observation, and walks the whole pipeline: label mixture, mode z-scores,
MAP reference point for the dominant mode, deviation decomposition, and
responsible scores.
"""

import numpy as np

from devexplain.anova import decompose_deviation, draw_background
from devexplain.attribution import responsible_scores, shapley_values
from devexplain.dataset import Dataset, generate_synthetic, trimodal_benchmark_spec
from devexplain.inverse import PosteriorObjective, default_budget, direct_search_map
from devexplain.mixtures import (
    FeaturePriors,
    mode_z_score,
    modes,
    select_k,
    z_score,
)
from devexplain.models import clamp_sigma_e_squared, fit_linear, predict, residual_stats

SEED = 3

# each feature is its own three-component mixture; the label is their sum
spec = trimodal_benchmark_spec()
data = generate_synthetic(spec, 10000, SEED)
print(f"generated {data.n} rows; label mean {data.labels.mean():.3f}, "
      f"std {data.labels.std():.3f}")

# force one observation that no generating mode can plausibly produce
outlier_x = np.array([-2.5, -1.7, -2.0])
outlier_y = -6.2
full = Dataset(
    features=np.vstack([data.features, [outlier_x]]),
    labels=np.append(data.labels, outlier_y),
    feature_names=data.feature_names,
)

# the label distribution is multimodal, so one global z-score understates
# how strange the outlier is; fit a mixture and score against each mode
gmm = select_k(full.labels, 6, SEED)
mode_list = modes(gmm)
print(f"\nselected k={gmm.k}; modes (by density):")
for i, m in enumerate(mode_list):
    print(f"  mode {i}: location {m.location:7.3f}  sigma_m {m.sigma_m:.3f}  "
          f"weight {m.weight:.3f}")

z = z_score(outlier_y, full.labels)
z_m = mode_z_score(outlier_y, mode_list[0])
print(f"\noutlier y={outlier_y}: global z = {z:.2f}, but z_m = {z_m:.2f} "
      "against the dominant mode")

# fit the forward model and ask the inverse question: which feature vector
# would have produced the dominant mode's label?
model = fit_linear(full)
stats = residual_stats(model, full)
sigma2 = clamp_sigma_e_squared(stats.sigma_e_squared, full.labels)
priors = FeaturePriors(spec.feature_specs)
budget = default_budget(priors)
print(f"\nlinear fit: R^2 {stats.r_squared_train:.4f}; MAP budget "
      f"{budget.n_runs} restarts (assumed {budget.assumed_k} basins)")

obj = PosteriorObjective(model, priors, mode_list[0].location, sigma2)
result = direct_search_map(obj, budget, SEED)
x_ref = result.map_point
print(f"reference point x* = {np.round(x_ref, 3)}, "
      f"f(x*) = {predict(model, x_ref):.3f} vs mode at {mode_list[0].location:.3f}")
print(f"{len(result.local_optima)} distinct local optima over "
      f"{result.n_converged} converged runs")

# split the deviation from the reference into per-feature terms and scores
bg = draw_background(full, 2000, SEED)
decomp = decompose_deviation(
    model, bg, outlier_x, x_ref, outlier_y, mode_list[0].location
)
scores = responsible_scores(
    decomp, 0.05, float(full.labels.std()), "mode", 0
)
print("\nper-feature responsibility for the deviation from the dominant mode:")
for name, delta, score in zip(full.feature_names, decomp.first_order, scores.first_order):
    print(f"  {name}: delta {delta:8.3f}  score {score:.3f}")
print(f"  residual share {scores.residual_share:.4f} "
      f"(terms + residual = 1 by construction)")

# SHAP values over the same background agree on the ordering
shap = shapley_values(model, bg, outlier_x)
print("\nSHAP values for comparison:", np.round(shap.values, 3))
