"""
Degenerate vs mode-based explanations on the river fixture
==========================================================

The bundled 20-year river discharge table has a year whose label sits
almost exactly on the sample mean.  Mean-referenced ratio scores are
meaningless there (the denominator is ~0), and the library flags that
state instead of reporting noise.  A mode reference restores a usable
explanation: the same year is far from the densest label bump.
"""

import numpy as np

from devexplain.attribution import ExplainSettings, explain_many
from devexplain.dataset import load_csv, report_rows, report_to_json, river_fixture_path
from devexplain.mixtures import fit_priors
from devexplain.models import fit_linear

data = load_csv(river_fixture_path(), "njr")
print(f"{data.n} years, features {data.feature_names}, label '{data.label_name}'")
print(f"label mean {data.labels.mean():.3f}, std {data.labels.std():.3f}")

# the year closest to the mean is the interesting one here
idx = int(np.argmin(np.abs(data.labels - data.labels.mean())))
print(f"\nyear index {idx}: label {data.labels[idx]:.2f} "
      f"(gap to mean {abs(data.labels[idx] - data.labels.mean()):.4f})")

model = fit_linear(data)
priors = fit_priors(data, 6, 0)
settings = ExplainSettings(seed=3, np_count=2000)

# one pass explains the year against the mean and against the dominant mode
[mean_report], [report] = explain_many(
    model, priors, data, [idx], ["mean", ("mode", 0)], settings
)

# against the mean: flagged degenerate, scores are NaN by design
print(f"\nmean reference: degenerate = {mean_report.scores.degenerate}, "
      f"total deviation {mean_report.decomposition.total_delta:.4f}")

# against the dominant label mode: a real deviation with real scores
print(f"mode 0 reference at y* = {report.y_ref:.3f}: "
      f"degenerate = {report.scores.degenerate}")
for row in report_rows(report_to_json(report)):
    print(f"  {row['feature']}: delta {row['delta']:8.4f}  score {row['score']:.3f}")
print(f"  z = {report.z:.2f}, z_m = {report.z_m:.2f}")
