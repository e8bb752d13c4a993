"""Benchmark reproduction and exactness checks at their stated tolerances.

One test per shipped claim, each ending in a PASS line with the measured
numbers (visible under pytest -s; pytest -v gives the per-claim verdict).
Timed claims measure only the pipeline under test, never fixture setup
for other tests.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from devexplain.anova import (
    BackgroundSample,
    decompose_deviation,
    draw_background,
    first_order_effect,
)
from devexplain.attribution import (
    ExplainSettings,
    explain,
    mean_based_scores_equal_shap_check,
    responsible_scores,
    shapley_values,
)
from devexplain.dataset import (
    Dataset,
    generate_synthetic,
    load_csv,
    report_to_json,
    trimodal_benchmark_spec,
    river_fixture_path,
)
from devexplain.inverse import (
    PosteriorObjective,
    SearchBudget,
    default_budget,
    direct_search_map,
    local_maximize,
    log_posterior,
    required_runs,
)
from devexplain.mixtures import (
    FeaturePriors,
    fit_gmm,
    mode_z_score,
    modes,
    select_k,
    z_score,
)
from devexplain.models import (
    GbtParams,
    clamp_sigma_e_squared,
    fit_gbt,
    predict,
    residual_stats,
)

DATA_SEED = 3
OUTLIER_X = (-2.5, -1.7, -2.0)
OUTLIER_Y = -6.2
GMM_SEED = 3
K_MAX = 6
TARGET_Y = 15.7
REPORTED_POINT = np.array([7.97, 7.94, -0.11])
FIXTURE = str(river_fixture_path())
DEGENERATE_ROW = 19
# the explain runs of the CLI pass, each rerun by criterion 10: model, reference
EXPLAIN_RUNS = {
    "mean": ("linear", ["--index", str(DEGENERATE_ROW), "--mean"]),
    "mode": ("linear", ["--index", str(DEGENERATE_ROW), "--mode", "0"]),
    # the GBT's cell path, over resampled rows and over prior draws
    **{f"cells-{bg}": ("gbt", ["--index-range", "0:3", "--mean", "--order", "2", "--bg", bg])
       for bg in ("resample", "prior")},
}


@pytest.fixture(scope="module")
def benchmark_mixture():
    """Timed benchmark pipeline: generate, select k, fit, find modes."""
    t0 = time.perf_counter()
    data = generate_synthetic(trimodal_benchmark_spec(), 10000, DATA_SEED)
    gmm = select_k(data.labels, K_MAX, GMM_SEED)
    mode_list = modes(gmm)
    elapsed = time.perf_counter() - t0
    return {"data": data, "k": gmm.k, "modes": mode_list, "elapsed": elapsed}


@pytest.fixture(scope="module")
def outlier_mixture(benchmark_mixture):
    """Timed outlier pipeline: regenerate, append the outlier, refit, score."""
    k = benchmark_mixture["k"]
    t0 = time.perf_counter()
    data = generate_synthetic(trimodal_benchmark_spec(), 10000, DATA_SEED)
    full = Dataset(
        features=np.vstack([data.features, [OUTLIER_X]]),
        labels=np.append(data.labels, OUTLIER_Y),
        feature_names=data.feature_names,
    )
    gmm = fit_gmm(full.labels, k, GMM_SEED)
    mode_list = modes(gmm)
    z = z_score(OUTLIER_Y, full.labels)
    z_m = mode_z_score(OUTLIER_Y, mode_list[0])
    elapsed = time.perf_counter() - t0
    return {"data": full, "modes": mode_list, "z": z, "z_m": z_m, "elapsed": elapsed}


@pytest.fixture(scope="module")
def sigma2(linear_outlier, outlier_data):
    stats = residual_stats(linear_outlier, outlier_data)
    return clamp_sigma_e_squared(stats.sigma_e_squared, outlier_data.labels)


def test_criterion_01_benchmark_mean_and_dominant_mode(benchmark_mixture):
    mean = float(benchmark_mixture["data"].labels.mean())
    dominant = benchmark_mixture["modes"][0].location
    assert abs(mean - 13.2) <= 0.15
    assert 15.2 <= dominant <= 16.2
    assert benchmark_mixture["elapsed"] < 30
    print(
        f"PASS criterion 1: label mean {mean:.4f} (13.2 +/- 0.15), dominant mode "
        f"{dominant:.3f} in [15.2, 16.2], {benchmark_mixture['elapsed']:.1f}s < 30s"
    )


def test_criterion_02_outlier_z_and_mode_z(outlier_mixture):
    z = outlier_mixture["z"]
    z_m = outlier_mixture["z_m"]
    assert abs(z - (-3.3)) <= 0.2
    assert abs(z_m - (-15.6)) <= 1.6
    assert outlier_mixture["elapsed"] < 10
    print(
        f"PASS criterion 2: z {z:.3f} (-3.3 +/- 0.2), z_m {z_m:.2f} "
        f"(-15.6 +/- 1.6), {outlier_mixture['elapsed']:.1f}s < 10s"
    )


def test_criterion_03_map_search_beats_lattice_oracle(
    linear_outlier, exact_priors, sigma2
):
    obj = PosteriorObjective(
        model=linear_outlier,
        priors=exact_priors,
        y_target=TARGET_Y,
        sigma_e_squared=sigma2,
    )
    budget = SearchBudget(
        n_runs=260, assumed_k=27, min_basin_prob=0.03, failure_prob=0.01
    )
    t0 = time.perf_counter()
    result = direct_search_map(obj, budget, seed=GMM_SEED)
    elapsed = time.perf_counter() - t0

    oracle = -math.inf
    for corner in itertools.product((0.0, 4.0, 8.0), repeat=3):
        _, value, _ = local_maximize(obj, np.array(corner))
        oracle = max(oracle, value)

    f_star = predict(linear_outlier, result.map_point)
    reported_lp = log_posterior(obj, REPORTED_POINT)
    assert result.map_log_posterior >= oracle - 1e-9
    assert abs(f_star - TARGET_Y) <= 0.05
    assert reported_lp <= result.map_log_posterior
    assert elapsed < 60
    print(
        f"PASS criterion 3: search lp {result.map_log_posterior:.4f} >= lattice "
        f"oracle {oracle:.4f}, |f(x*) - 15.7| = {abs(f_star - TARGET_Y):.2e} "
        f"<= 0.05, published point scores {reported_lp:.3g}, {elapsed:.1f}s < 60s"
    )


def test_criterion_04_mode_scores_and_ranking_stability(
    linear_outlier, exact_priors, outlier_data, outlier_mixture, sigma2
):
    dominant = outlier_mixture["modes"][0]
    budget = default_budget(exact_priors)
    label_scale = float(outlier_data.labels.std())
    target = np.array([0.48, 0.45, 0.07])
    obj = PosteriorObjective(
        model=linear_outlier,
        priors=exact_priors,
        y_target=dominant.location,
        sigma_e_squared=sigma2,
    )
    all_scores = []
    for seed in range(10):
        ref = direct_search_map(obj, budget, seed)
        bg = draw_background(outlier_data, 2000, seed=seed)
        decomp = decompose_deviation(
            linear_outlier,
            bg,
            np.array(OUTLIER_X),
            ref.map_point,
            OUTLIER_Y,
            dominant.location,
        )
        scores = responsible_scores(decomp, 0.05, label_scale, "mode", 0)
        assert not scores.degenerate
        all_scores.append(scores.first_order)
    for scores in all_scores:
        assert np.all(np.abs(scores - target) <= 0.05)
        assert scores[0] > scores[1] > scores[2]
    mean_scores = np.mean(all_scores, axis=0)
    print(
        "PASS criterion 4: mode scores "
        f"({mean_scores[0]:.3f}, {mean_scores[1]:.3f}, {mean_scores[2]:.3f}) "
        "within 0.05 of (0.48, 0.45, 0.07); ranking x0 > x1 > x2 held for "
        "all 10 seeds"
    )


def test_criterion_05_mean_scores_match_shap(
    linear_outlier, exact_priors, outlier_data
):
    settings = ExplainSettings(seed=0, np_count=2000)
    report = explain(
        linear_outlier, exact_priors, outlier_data, 10000, "mean", settings
    )
    gap = mean_based_scores_equal_shap_check(linear_outlier, report)
    assert gap <= 0.02
    print(
        f"PASS criterion 5: max normalized score-vs-SHAP gap {gap:.5f} <= 0.02"
    )


def test_criterion_06_required_runs_exact_values():
    assert required_runs(4, 0.25, 0.01) == 21
    assert required_runs(27, 0.03, 0.01) == 260
    print("PASS criterion 6: required_runs(4, .25, .01) = 21 and "
          "required_runs(27, .03, .01) = 260, exact")


def test_criterion_07_monte_carlo_error_decay():
    t0 = time.perf_counter()
    spec = trimodal_benchmark_spec()
    data = generate_synthetic(spec, 10000, DATA_SEED)
    model = fit_gbt(data, GbtParams(n_trees=300, max_depth=3, learning_rate=0.1))
    priors = FeaturePriors(spec.feature_specs)
    stderr = {}
    for np_count in (250, 1000, 4000):
        estimates = []
        for s in range(20):
            bg = draw_background(priors, np_count, seed=np_count + s)
            est, _ = first_order_effect(model, bg, 0, 8.0)
            estimates.append(est)
        stderr[np_count] = float(np.std(estimates, ddof=1))
    elapsed = time.perf_counter() - t0
    ratio_a = stderr[250] / stderr[1000]
    ratio_b = stderr[1000] / stderr[4000]
    assert 1.6 <= ratio_a <= 2.5
    assert 1.6 <= ratio_b <= 2.5
    assert elapsed < 120
    print(
        f"PASS criterion 7: stderr decay per 4x background = ({ratio_a:.2f}, "
        f"{ratio_b:.2f}), both in [1.6, 2.5], {elapsed:.1f}s < 120s"
    )


class _ColumnSkipper:
    """f(x) = 2 x0 + 3 x2, blind to x1."""

    d_x = 3
    kind = "stub"

    def predict_batch(self, x):
        return 2.0 * x[:, 0] + 3.0 * x[:, 2]

    def predict_one(self, x):
        return float(2.0 * x[0] + 3.0 * x[2])


class _SymmetricPair:
    """f(x) = x0 + x1 + x2^2, exchangeable in the first two coordinates."""

    d_x = 3
    kind = "stub"

    def predict_batch(self, x):
        return x[:, 0] + x[:, 1] + x[:, 2] ** 2

    def predict_one(self, x):
        return float(x[0] + x[1] + x[2] ** 2)


def test_criterion_08_exactness_properties(linear_outlier, gbt10k, outlier_data):
    bg = draw_background(outlier_data, 500, seed=0)
    x_obs = np.array(OUTLIER_X)
    decomp = decompose_deviation(
        linear_outlier, bg, x_obs, REPORTED_POINT, OUTLIER_Y, TARGET_Y, order=2
    )

    # linear first-order terms: the background cancels and leaves theta * dx
    expected = linear_outlier.coefficients * (x_obs - REPORTED_POINT)
    assert np.all(np.abs(decomp.first_order - expected) <= 1e-10)

    # linear interactions vanish (zero at double precision)
    assert np.all(np.abs(decomp.second_order) <= 1e-10)

    # closure: the residual is defined by the identity, and re-adding it
    # reconstructs the total without rounding at these magnitudes
    assert decomp.residual == decomp.total_delta - decomp.term_sum()
    assert decomp.term_sum() + decomp.residual == decomp.total_delta

    # Shapley efficiency on the boosted model
    shap = shapley_values(gbt10k, bg, outlier_data.features[0])
    eff_gap = abs(
        math.fsum(shap.values)
        - (predict(gbt10k, outlier_data.features[0]) - shap.base_value)
    )
    assert eff_gap <= 1e-9

    # dummy and symmetry, on integer-valued backgrounds so means are exact
    rng = np.random.default_rng(8)
    int_bg = BackgroundSample(points=rng.integers(-4, 5, size=(64, 3)).astype(float))
    dummy = shapley_values(_ColumnSkipper(), int_bg, [1.0, 5.0, 2.0])
    assert dummy.values[1] == 0.0
    twin_pts = int_bg.points.copy()
    twin_pts[:, 1] = twin_pts[:, 0]
    twin_bg = BackgroundSample(points=twin_pts)
    sym = shapley_values(_SymmetricPair(), twin_bg, [2.0, 2.0, -1.0])
    assert sym.values[0] == sym.values[1]

    print(
        "PASS criterion 8: linear deltas match theta*dx to 1e-10, interactions "
        f"zero at double precision, closure exact, Shapley efficiency gap "
        f"{eff_gap:.2e}, dummy = 0.0 and symmetry bitwise"
    )


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "devexplain.cli", *argv],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Full command-line pass over the bundled fixture, executed once."""
    ws = tmp_path_factory.mktemp("acceptance_cli")
    steps = {
        "fit_linear": _cli(
            "fit", "--data", FIXTURE, "--label", "njr", "--kind", "linear",
            "--split", "1", "--out", str(ws / "linear"),
        ),
        "fit_gbt": _cli(
            "fit", "--data", FIXTURE, "--label", "njr", "--kind", "gbt",
            "--split", "1", "--out", str(ws / "gbt"),
        ),
        "modes": _cli(
            "modes", "--data", FIXTURE, "--label", "njr", "--k-max", "6",
            "--seed", "3", "--out", str(ws / "modes"),
        ),
    }
    for name, (model, ref_args) in EXPLAIN_RUNS.items():
        steps[f"explain_{name}"] = _cli(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(ws / model / "model.json"),
            *ref_args, "--seed", "3", "--out", str(ws / name),
        )
    steps["compare"] = _cli(
        "compare",
        str(ws / "mean" / f"report_{DEGENERATE_ROW}.json"),
        str(ws / "mode" / f"report_{DEGENERATE_ROW}.json"),
        "--out", str(ws), "--name", "compare.csv",
    )
    return ws, steps


def test_criterion_09_cli_pipeline_on_bundled_fixture(cli_workspace):
    ws, steps = cli_workspace
    for name, proc in steps.items():
        assert proc.returncode == 0, f"{name} failed: {proc.stderr}"

    # the chosen row's label really does sit within 0.05 std of the mean
    data = load_csv(FIXTURE, "njr")
    gap = abs(data.labels[DEGENERATE_ROW] - data.labels.mean())
    assert gap < 0.05 * data.labels.std()

    mean_doc = json.loads(
        (ws / "mean" / f"report_{DEGENERATE_ROW}.json").read_text()
    )
    mode_doc = json.loads(
        (ws / "mode" / f"report_{DEGENERATE_ROW}.json").read_text()
    )
    assert mean_doc["scores"]["degenerate"] is True
    assert mode_doc["scores"]["degenerate"] is False
    closure = (
        sum(mode_doc["scores"]["first_order"])
        + mode_doc["scores"]["residual_share"]
    )
    assert closure == pytest.approx(1.0, abs=1e-9)

    csv_lines = (ws / "compare.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 2 * 3
    print(
        "PASS criterion 9: fit linear + gbt, modes, explain, compare all exit 0; "
        f"mode-reference closure {closure:.12f}; row {DEGENERATE_ROW} degenerate "
        "against the mean but scored against mode 0"
    )


def test_criterion_10_reports_are_byte_identical(cli_workspace, tmp_path):
    ws, _ = cli_workspace
    for name, (model, ref_args) in EXPLAIN_RUNS.items():
        proc = _cli(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(ws / model / "model.json"),
            *ref_args, "--seed", "3", "--out", str(tmp_path / name),
        )
        assert proc.returncode == 0, proc.stderr
        reports = sorted(p.name for p in (ws / name).iterdir() if p.name.startswith("report"))
        assert reports
        for report in reports:
            assert (tmp_path / name / report).read_bytes() == (ws / name / report).read_bytes()

    proc = _cli(
        "modes", "--data", FIXTURE, "--label", "njr", "--k-max", "6",
        "--seed", "3", "--out", str(tmp_path / "modes"),
    )
    assert proc.returncode == 0
    assert (tmp_path / "modes" / "modes.json").read_bytes() == (
        ws / "modes" / "modes.json"
    ).read_bytes()
    print(
        "PASS criterion 10: mean and mode reports, a GBT's mean reports over "
        "resampled and prior backgrounds, and the mode table are byte-identical "
        "across reruns with the same seeds"
    )
