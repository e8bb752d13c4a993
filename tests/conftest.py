"""Shared fixtures: one synthetic benchmark bundle reused across test modules.

Everything expensive (the 10k-row dataset, the boosted model) is session
scoped; tests must treat these objects as read-only.
"""

import numpy as np
import pytest

from devexplain.dataset import (
    Dataset,
    generate_synthetic,
    load_csv,
    trimodal_benchmark_spec,
    river_fixture_path,
)
from devexplain.mixtures import FeaturePriors
from devexplain.models import GbtParams, fit_gbt, fit_linear

# Master seed for the synthetic benchmark data used throughout the suite.
DATA_SEED = 3

# The outlier row studied in the docs: far below every label mode.
OUTLIER_X = (-2.5, -1.7, -2.0)
OUTLIER_Y = -6.2


@pytest.fixture(scope="session")
def trimodal_spec():
    return trimodal_benchmark_spec()


@pytest.fixture(scope="session")
def synth10k(trimodal_spec):
    return generate_synthetic(trimodal_spec, 10000, DATA_SEED)


@pytest.fixture(scope="session")
def outlier_data(synth10k):
    """The benchmark data with the known outlier appended as the last row."""
    return Dataset(
        features=np.vstack([synth10k.features, [OUTLIER_X]]),
        labels=np.append(synth10k.labels, OUTLIER_Y),
        feature_names=synth10k.feature_names,
    )


@pytest.fixture(scope="session")
def linear_outlier(outlier_data):
    return fit_linear(outlier_data)


@pytest.fixture(scope="session")
def gbt10k(synth10k):
    return fit_gbt(synth10k, GbtParams(n_trees=300, max_depth=3, learning_rate=0.1))


@pytest.fixture(scope="session")
def exact_priors(trimodal_spec):
    return FeaturePriors(trimodal_spec.feature_specs)


@pytest.fixture(scope="session")
def fixture_data():
    return load_csv(river_fixture_path(), "njr")
