"""End-to-end command-line behavior, run in process via main(argv)."""

import csv
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

import devexplain
import devexplain.cli
from devexplain.cli import BLAS_THREAD_VARS, main
from devexplain.attribution import ExplainSettings, explain
from devexplain.dataset import (
    load_csv,
    report_to_json,
    trimodal_benchmark_spec,
    river_fixture_path,
    synthetic_spec_to_json,
)
from devexplain.errors import (
    DevexplainError,
    IngestionError,
    NumericalError,
    SearchFailureError,
    SingularFitError,
    ValidationError,
)
from devexplain.mixtures import _command_seeds
from devexplain.models import load_model

FIXTURE = str(river_fixture_path())

CSV_HEADER = (
    "observation_index,feature,reference_kind,mode_index,y_obs,y_ref,"
    "z,z_m,delta,score,shap,degenerate"
)


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def river_ws(tmp_path_factory):
    """Fixture data fitted with a linear model, no test split."""
    d = tmp_path_factory.mktemp("river_ws")
    rc = run(
        "fit",
        "--data", FIXTURE,
        "--label", "njr",
        "--kind", "linear",
        "--split", "1",
        "--out", str(d),
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def synth_ws(tmp_path_factory):
    """Generated trimodal benchmark data plus a linear fit."""
    d = tmp_path_factory.mktemp("synth_ws")
    rc = run(
        "synth", "--preset", "trimodal", "--n", "400", "--seed", "3",
        "--out", str(d), "--name", "data.csv",
    )
    assert rc == 0
    rc = run(
        "fit", "--data", str(d / "data.csv"), "--label", "y",
        "--kind", "linear", "--seed", "0", "--out", str(d),
    )
    assert rc == 0
    return d


class TestSynth:
    def test_preset_writes_loadable_csv(self, synth_ws):
        data = load_csv(synth_ws / "data.csv", "y")
        assert data.n == 400
        assert data.d_x == 3
        config = json.loads((synth_ws / "synth_config.json").read_text())
        assert config["command"] == "synth"
        assert config["seed"] == 3

    def test_spec_file_source(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(synthetic_spec_to_json(trimodal_benchmark_spec()))
        )
        rc = run(
            "synth", "--spec", str(spec_path), "--n", "50", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert rc == 0
        assert load_csv(tmp_path / "synthetic.csv", "y").n == 50

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("weights", float("nan"), "weights"),
            ("means", float("inf"), "means"),
            ("stds", float("nan"), "stds"),
            ("stds", 1e200, "variances"),
        ],
    )
    def test_non_finite_spec_is_validation_error(self, field, value, name, tmp_path, capsys):
        spec = {"weights": [1.0], "means": [0.0], "stds": [1.0], field: [value]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"features": [spec]}))  # NaN and Infinity literals
        out = tmp_path / "out"
        rc = run("synth", "--spec", str(spec_path), "--n", "5", "--out", str(out))
        assert rc == 2
        assert f"mixture {name} must be" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run.log"]

    def test_spec_and_preset_conflict(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            run(
                "synth", "--spec", str(spec_path), "--preset", "trimodal",
                "--n", "10", "--out", str(tmp_path),
            )
        assert exc.value.code == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc = run(
                "synth", "--preset", "trimodal", "--n", "100", "--seed", "7",
                "--out", str(d),
            )
            assert rc == 0
        a = (dirs[0] / "synthetic.csv").read_bytes()
        b = (dirs[1] / "synthetic.csv").read_bytes()
        assert a == b

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEVEXPLAIN_SEED", "7")
        rc = run(
            "synth", "--preset", "trimodal", "--n", "100",
            "--out", str(tmp_path / "env"),
        )
        assert rc == 0
        explicit = tmp_path / "explicit"
        rc = run(
            "synth", "--preset", "trimodal", "--n", "100", "--seed", "7",
            "--out", str(explicit),
        )
        assert rc == 0
        assert (tmp_path / "env" / "synthetic.csv").read_bytes() == (
            explicit / "synthetic.csv"
        ).read_bytes()

    def test_zero_rows_print_no_statistics(self, tmp_path, capsys):
        # RuntimeWarnings are errors in this suite, so an empty mean fails here
        rc = run("synth", "--preset", "trimodal", "--n", "0", "--out", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith(": 0 rows, 3 features")
        assert (tmp_path / "synthetic.csv").read_text() == "x0,x1,x2,y\n"

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DEVEXPLAIN_SEED", "not-a-number")
        rc = run(
            "synth", "--preset", "trimodal", "--n", "10", "--out", str(tmp_path)
        )
        assert rc == 2
        assert "DEVEXPLAIN_SEED" in capsys.readouterr().err

    def test_negative_env_seed_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DEVEXPLAIN_SEED", "-1")
        rc = run(
            "synth", "--preset", "trimodal", "--n", "10", "--out", str(tmp_path)
        )
        assert rc == 2
        assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--preset", "trimodal", "--n", "10"),
        ("fit", "--data", FIXTURE, "--label", "njr"),
        ("modes", "--data", FIXTURE, "--label", "njr"),
        ("explain", "--data", FIXTURE, "--label", "njr", "--model", "model.json",
         "--index", "0", "--mean"),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_flag_is_validation_error(argv, tmp_path, capsys):
    rc = run(*argv, "--seed", "-1", "--out", str(tmp_path))
    assert rc == 2
    assert "non-negative" in capsys.readouterr().err


class TestFit:
    def test_linear_recovers_additive_labels(self, synth_ws):
        metrics = json.loads((synth_ws / "metrics.json").read_text())
        assert metrics["kind"] == "linear"
        assert metrics["coefficients"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-6)
        assert metrics["intercept"] == pytest.approx(0.0, abs=1e-6)
        assert metrics["r_squared_train"] == pytest.approx(1.0, abs=1e-9)
        assert metrics["n_test"] == 80
        model = load_model(synth_ws / "model.json")
        assert model.kind == "linear"

    def test_no_split_uses_all_rows(self, river_ws):
        metrics = json.loads((river_ws / "metrics.json").read_text())
        assert metrics["n_train"] == 20
        assert metrics["n_test"] == 0
        assert metrics["r_squared_test"] is None

    def test_gbt_smoke(self, tmp_path):
        rc = run(
            "fit", "--data", FIXTURE, "--label", "njr", "--kind", "gbt",
            "--trees", "25", "--depth", "2", "--split", "1",
            "--out", str(tmp_path),
        )
        assert rc == 0
        model = load_model(tmp_path / "model.json")
        assert model.kind == "gbt"
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["r_squared_train"] > 0.5
        assert "coefficients" not in metrics

    def test_missing_label_is_ingestion_error(self, tmp_path, capsys):
        rc = run(
            "fit", "--data", FIXTURE, "--label", "nope", "--out", str(tmp_path)
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_ingestion_error(self, tmp_path):
        rc = run(
            "fit", "--data", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)
        )
        assert rc == 3

    def test_bad_split_is_validation_error(self, tmp_path):
        rc = run(
            "fit", "--data", FIXTURE, "--label", "njr", "--split", "1.5",
            "--out", str(tmp_path),
        )
        assert rc == 2

    def test_split_with_an_empty_side_is_validation_error(self, tmp_path):
        # 20 rows: round(0.99 * 20) = 20 training rows leave no test rows
        rc = run(
            "fit", "--data", FIXTURE, "--label", "njr", "--split", "0.99",
            "--out", str(tmp_path),
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "header, column",
        [("a,y,b,y", "'y'"), ("a,a,y", "'a'"), (",b,y", "column 1")],
        ids=["repeated-label", "repeated-feature", "empty-name"],
    )
    def test_bad_header_name_is_ingestion_error(self, header, column, tmp_path, capsys):
        # a repeated label column must not become a feature (label leakage)
        path = tmp_path / "bad.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + "".join(
            ",".join(str(float(i + j)) for j in range(width)) + "\n" for i in range(6)
        ))
        rc = run(
            "fit", "--data", str(path), "--label", "y", "--split", "1",
            "--out", str(tmp_path),
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert str(path) in err and column in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("lr, code", [("inf", 2), ("nan", 2), ("1e308", 4)])
    def test_unusable_learning_rate_writes_no_model(self, lr, code, tmp_path, capsys):
        rc = run(
            "fit", "--data", FIXTURE, "--label", "njr", "--kind", "gbt", "--trees", "5",
            "--lr", lr, "--split", "1", "--out", str(tmp_path),
        )
        assert rc == code
        assert "learning_rate" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.log"]

    def test_constant_labels_are_numerical_error(self, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("a,y\n" + "".join(f"{i}.0,5.0\n" for i in range(10)))
        rc = run(
            "fit", "--data", str(flat), "--label", "y", "--split", "1",
            "--out", str(tmp_path),
        )
        assert rc == 4


class TestModes:
    def test_fixture_modes(self, tmp_path):
        rc = run(
            "modes", "--data", FIXTURE, "--label", "njr", "--k-max", "6",
            "--seed", "3", "--out", str(tmp_path),
        )
        assert rc == 0
        doc = json.loads((tmp_path / "modes.json").read_text())
        assert doc["k"] >= 2
        densities = [m["density"] for m in doc["modes"]]
        assert densities == sorted(densities, reverse=True)
        assert doc["modes"][0]["location"] == pytest.approx(12.1, abs=0.2)

    def test_k_max_one_gives_single_mode(self, tmp_path):
        rc = run(
            "modes", "--data", FIXTURE, "--label", "njr", "--k-max", "1",
            "--seed", "0", "--out", str(tmp_path),
        )
        assert rc == 0
        doc = json.loads((tmp_path / "modes.json").read_text())
        assert doc["k"] == 1
        assert len(doc["modes"]) == 1

    def test_summary_states_em_steps_and_stop(self, tmp_path, capsys):
        rc = run(
            "modes", "--data", FIXTURE, "--label", "njr", "--k-max", "1",
            "--seed", "0", "--out", str(tmp_path),
        )
        assert rc == 0
        # k = 1 converges on its second E-step: the first step reaches the
        # sample moments the start already holds
        assert "fitted k=1 mixture (EM: 2 E-steps, converged);" in capsys.readouterr().out
        assert "n_iter" not in (tmp_path / "modes.json").read_text()


    def test_lists_the_mixture_explain_uses(self, tmp_path):
        # the seed and data where the modes command and explain used to fit
        # different label mixtures (mode 0 at 14.66087 against 14.61754)
        common = ("--k-max", "4", "--seed", "3", "--out", str(tmp_path))
        data = str(tmp_path / "synthetic.csv")
        assert run("synth", "--preset", "trimodal", "--n", "2000", "--seed", "3",
                   "--out", str(tmp_path)) == 0
        assert run("fit", "--data", data, "--kind", "linear", "--seed", "3",
                   "--out", str(tmp_path)) == 0
        assert run("modes", "--data", data, *common) == 0
        assert run("explain", "--data", data, "--model", str(tmp_path / "model.json"),
                   "--mode", "0", "--budget-runs", "3", "--index", "0", *common) == 0
        modes_doc = json.loads((tmp_path / "modes.json").read_text())
        report = json.loads((tmp_path / "report_0.json").read_text())
        assert report["y_ref"] == modes_doc["modes"][0]["location"]


class TestExplain:
    @pytest.mark.parametrize(
        "reference", [("--mode", "0"), ("--mean", "--bg", "prior")], ids=["mode", "prior-bg"]
    )
    def test_constant_feature_is_named(self, reference, tmp_path, capsys):
        # both references fit feature priors, and a constant column has none
        flat = tmp_path / "flat.csv"
        flat.write_text(
            "x0,x1,x2,y\n"
            + "".join(f"{i % 7}.0,1.0,{i % 5}.5,{(i % 7) + (i % 5) / 2}\n" for i in range(200))
        )
        common = ("--data", str(flat), "--out", str(tmp_path))
        assert run("fit", "--kind", "gbt", "--trees", "5", *common) == 0
        rc = run("explain", "--model", str(tmp_path / "model.json"), "--index", "0",
                 *reference, *common)
        assert rc == 4
        assert "error: feature 'x1': all samples identical" in capsys.readouterr().err

    def test_mean_reference_report(self, river_ws, tmp_path):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "2", "--mean", "--seed", "5", "--out", str(tmp_path),
        )
        assert rc == 0
        doc = json.loads((tmp_path / "report_2.json").read_text())
        assert doc["reference_kind"] == "mean"
        assert doc["z_m"] is None
        assert doc["map_result"] is None
        scores = doc["scores"]
        assert not scores["degenerate"]
        closure = sum(scores["first_order"]) + scores["residual_share"]
        assert closure == pytest.approx(1.0, abs=1e-9)

    def test_default_np_is_the_library_default(self, river_ws, tmp_path):
        """Without --np, explain draws the background that a library
        ``explain`` with default settings draws: here every row."""
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "2", "--mean", "--seed", "5", "--out", str(tmp_path),
        )
        assert rc == 0
        data = load_csv(FIXTURE, "njr")
        settings = ExplainSettings(seed=_command_seeds(5)[1])
        report = explain(load_model(river_ws / "model.json"), None, data, 2, "mean", settings)
        doc = json.loads((tmp_path / "report_2.json").read_text())
        assert doc == json.loads(json.dumps(report_to_json(report)))
        assert doc["settings"]["np"] == data.n
        assert json.loads((tmp_path / "explain_config.json").read_text())["np"] == data.n

    def test_near_mean_row_is_degenerate(self, river_ws, tmp_path, capsys):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "19", "--mean", "--seed", "5", "--out", str(tmp_path),
        )
        assert rc == 0
        assert "degenerate" in capsys.readouterr().out
        doc = json.loads((tmp_path / "report_19.json").read_text())
        assert doc["scores"]["degenerate"] is True
        assert doc["scores"]["first_order"] == [None, None, None]

    def test_same_row_against_mode_is_usable(self, river_ws, tmp_path):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "19", "--mode", "0", "--budget-runs", "12",
            "--seed", "5", "--svg", "--out", str(tmp_path),
        )
        assert rc == 0
        doc = json.loads((tmp_path / "report_19.json").read_text())
        assert doc["reference_kind"] == "mode"
        assert doc["mode_index"] == 0
        assert doc["scores"]["degenerate"] is False
        assert doc["z_m"] is not None
        assert doc["map_result"] is not None
        svg = (tmp_path / "chart_19.svg").read_text()
        assert svg.startswith("<svg ")

    def test_mean_chart_plots_the_mean_scores(self, river_ws, tmp_path):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "0", "--mean", "--seed", "3", "--svg", "--out", str(tmp_path),
        )
        assert rc == 0
        doc = json.loads((tmp_path / "report_0.json").read_text())
        assert doc["scores"]["degenerate"] is False
        svg = (tmp_path / "chart_0.svg").read_text()
        assert '<text x="' in svg
        assert ">mean score</text>" in svg
        assert ">SHAP (normalized)</text>" in svg
        assert ">mode score</text>" not in svg

    @pytest.fixture
    def no_prior_fits(self, monkeypatch):
        """Record every ``fit_priors`` call the CLI makes (``explain`` looks
        it up in ``mixtures`` when it runs)."""
        calls = []
        fit = devexplain.mixtures.fit_priors

        def recording(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(devexplain.mixtures, "fit_priors", recording)
        return calls

    @pytest.mark.parametrize("tau", ["nan", "inf", "0"])
    def test_tau_refused_before_any_fit(
        self, river_ws, tmp_path, capsys, no_prior_fits, tau
    ):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "0", "--mode", "0", "--tau", tau, "--out", str(tmp_path),
        )
        assert rc == 2
        assert "degeneracy_tau must be positive and finite" in capsys.readouterr().err
        assert no_prior_fits == []
        assert not (tmp_path / "report_0.json").exists()

    def test_np_below_two_is_validation_error(
        self, river_ws, tmp_path, capsys, no_prior_fits
    ):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "0", "--mean", "--np", "1", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "np_count must be >= 2" in capsys.readouterr().err
        assert no_prior_fits == []
        assert not (tmp_path / "report_0.json").exists()

    @pytest.mark.parametrize(
        "flags, fits", [(["--mean"], 0), (["--mean", "--bg", "prior"], 1), (["--mode", "0"], 1)]
    )
    def test_priors_fitted_only_when_read(
        self, river_ws, tmp_path, no_prior_fits, flags, fits
    ):
        # only a mode reference's MAP search and a prior background read them
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"), "--index", "0", *flags,
            "--budget-runs", "12", "--seed", "3", "--out", str(tmp_path),
        )
        assert rc == 0
        assert len(no_prior_fits) == fits
        config = json.loads((tmp_path / "explain_config.json").read_text())
        assert config["priors"] == ("fitted" if fits else None)

    @pytest.mark.parametrize("reference", [("--mode", "0"), ("--mean", "--bg", "prior")])
    def test_too_many_features_refused_before_any_fit(
        self, reference, tmp_path, capsys, no_prior_fits
    ):
        # 2^21 coalitions are past the enumeration limit; the refusal comes
        # before the priors, the label mixture and the MAP search
        rng = random.Random(0)
        wide = tmp_path / "wide.csv"
        wide.write_text(",".join(f"x{i}" for i in range(21)) + ",y\n" + "".join(
            ",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(22)) + "\n" for _ in range(40)
        ))
        common = ("--data", str(wide), "--out", str(tmp_path))
        assert run("fit", "--split", "1", *common) == 0
        capsys.readouterr()
        rc = run("explain", "--model", str(tmp_path / "model.json"), "--index", "0",
                 *reference, *common)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: exact Shapley enumeration is limited to d_x <= 20, got 21\n"
        )
        assert no_prior_fits == []
        assert not (tmp_path / "report_0.json").exists()

    @pytest.mark.parametrize("flags", [["--mean", "--bg", "prior"], ["--mode", "0"]])
    def test_non_finite_priors_refused(self, flags, river_ws, tmp_path, capsys):
        spec = {"weights": [float("nan")], "means": [0.0], "stds": [1.0]}
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"features": [spec] * 3}))
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"), "--index", "0", *flags,
            "--priors", str(priors), "--budget-runs", "7", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "mixture weights must be finite" in capsys.readouterr().err
        assert not (tmp_path / "report_0.json").exists()

    def test_model_wider_than_data_is_validation_error(self, river_ws, tmp_path, capsys):
        narrow = tmp_path / "narrow.csv"
        with open(FIXTURE) as src, open(narrow, "w") as dst:
            for line in src:
                dst.write(line.split(",", 1)[1])
        rc = run(
            "explain", "--data", str(narrow), "--label", "njr",
            "--model", str(river_ws / "model.json"), "--index", "0", "--mean",
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert "model expects d_x=3, background has 2 columns" in capsys.readouterr().err

    def test_chart_escapes_header_names(self, tmp_path):
        data = tmp_path / "markup.csv"
        lines = Path(FIXTURE).read_text().splitlines(keepends=True)
        data.write_text("R&D,x<1,ww,njr\n" + "".join(lines[1:]))
        assert run("fit", "--data", str(data), "--label", "njr", "--split", "1",
                   "--out", str(tmp_path)) == 0
        rc = run(
            "explain", "--data", str(data), "--label", "njr",
            "--model", str(tmp_path / "model.json"), "--index", "0", "--mean", "--svg",
            "--seed", "3", "--out", str(tmp_path),
        )
        assert rc == 0
        chart = ET.parse(tmp_path / "chart_0.svg").getroot()
        texts = {node.text for node in chart.iter("{http://www.w3.org/2000/svg}text")}
        assert {"R&D", "x<1", "ww"} <= texts

    def test_smallest_background_writes_standard_json(self, river_ws, tmp_path):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "0", "--mean", "--np", "2", "--order", "2",
            "--seed", "3", "--out", str(tmp_path),
        )
        assert rc == 0

        def refuse(name):
            raise ValueError(f"{name} is not standard JSON")

        doc = json.loads((tmp_path / "report_0.json").read_text(), parse_constant=refuse)
        assert doc["decomposition"]["np_used"] == 2

    def test_index_range_writes_csv(self, river_ws, tmp_path):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index-range", "0:3", "--mean", "--seed", "5",
            "--out", str(tmp_path),
        )
        assert rc == 0
        for i in range(3):
            assert (tmp_path / f"report_{i}.json").exists()
        lines = (tmp_path / "reports.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 3

    def test_rerun_is_byte_identical(self, river_ws, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            rc = run(
                "explain", "--data", FIXTURE, "--label", "njr",
                "--model", str(river_ws / "model.json"),
                "--index", "7", "--mode", "0", "--budget-runs", "12",
                "--seed", "9", "--out", str(out),
            )
            assert rc == 0
        a = (outs[0] / "report_7.json").read_bytes()
        b = (outs[1] / "report_7.json").read_bytes()
        assert a == b

    def test_exact_priors_file(self, synth_ws, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(synthetic_spec_to_json(trimodal_benchmark_spec()))
        )
        rc = run(
            "explain", "--data", str(synth_ws / "data.csv"), "--label", "y",
            "--model", str(synth_ws / "model.json"),
            "--index", "0", "--mean", "--priors", str(spec_path),
            "--np", "200", "--seed", "0", "--out", str(tmp_path),
        )
        assert rc == 0
        config = json.loads((tmp_path / "explain_config.json").read_text())
        assert config["priors"] == str(spec_path)

    def test_priors_must_match_the_data_width(self, synth_ws, tmp_path, capsys):
        spec = trimodal_benchmark_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(synthetic_spec_to_json(
            replace(spec, feature_specs=spec.feature_specs[:2])
        )))
        rc = run(
            "explain", "--data", str(synth_ws / "data.csv"), "--label", "y",
            "--model", str(synth_ws / "model.json"),
            "--index", "0", "--mean", "--priors", str(spec_path),
            "--np", "200", "--seed", "0", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "priors cover 2 features, data has 3" in capsys.readouterr().err
        assert not (tmp_path / "report_0.json").exists()

    def test_mean_report_echoes_no_budget(self, river_ws, tmp_path):
        # no MAP search runs against the mean, so no restart budget is echoed
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"), "--index", "2", "--mean",
            "--budget-runs", "7", "--seed", "3", "--out", str(tmp_path),
        )
        assert rc == 0
        doc = json.loads((tmp_path / "report_2.json").read_text())
        assert doc["map_result"] is None
        assert doc["settings"]["budget"] is None

    @pytest.mark.parametrize("order", [1, 2])
    def test_svg_adds_only_the_mean_coalitions(self, river_ws, tmp_path, monkeypatch, order):
        # the mean companions share the residuals, background, plain rows,
        # each row's own coalitions and its Shapley values with the mode reports
        model_cls = type(load_model(river_ws / "model.json"))
        calls = []

        def counted(self, x, _predict=model_cls.predict_batch):
            calls.append(len(x))
            return _predict(self, x)

        monkeypatch.setattr(model_cls, "predict_batch", counted)
        counts = []
        for svg in ([], ["--svg"]):
            calls.clear()
            rc = run(
                "explain", "--data", FIXTURE, "--label", "njr",
                "--model", str(river_ws / "model.json"), "--index-range", "0:4",
                "--mode", "0", "--order", str(order), "--np", "50",
                "--budget-runs", "3", "--seed", "3", *svg, "--out", str(tmp_path),
            )
            assert rc == 0
            counts.append(len(calls))
        d = 3
        assert counts[1] - counts[0] == d + (d * (d - 1) // 2 if order == 2 else 0)

    def test_gbt_mode_search_reaches_a_high_cell(self, tmp_path):
        # the simplex search this replaced ended at -626.50 here, in 65
        # distinct "optima" from 74 starts; cell coordinate ascent reaches -18.59
        assert run("fit", "--data", FIXTURE, "--label", "njr", "--kind", "gbt",
                   "--split", "1", "--seed", "3", "--out", str(tmp_path)) == 0
        assert run("explain", "--data", FIXTURE, "--label", "njr",
                   "--model", str(tmp_path / "model.json"), "--mode", "0",
                   "--index", "19", "--seed", "3", "--out", str(tmp_path)) == 0
        result = json.loads((tmp_path / "report_19.json").read_text())["map_result"]
        assert result["map_log_posterior"] > -19.0
        assert sum(o["hit_count"] for o in result["local_optima"]) == result["n_converged"]

    def test_bad_index_range_syntax(self, river_ws, tmp_path):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index-range", "5", "--mean", "--out", str(tmp_path),
        )
        assert rc == 2

    def test_index_out_of_range(self, river_ws, tmp_path):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "25", "--mean", "--out", str(tmp_path),
        )
        assert rc == 2

    def test_missing_mode(self, river_ws, tmp_path, capsys):
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"),
            "--index", "0", "--mode", "9", "--budget-runs", "4",
            "--seed", "3", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "label-mixture" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_reports(river_ws, tmp_path_factory):
    d = tmp_path_factory.mktemp("reports")
    rc = run(
        "explain", "--data", FIXTURE, "--label", "njr",
        "--model", str(river_ws / "model.json"),
        "--index", "2", "--mean", "--seed", "5", "--out", str(d),
    )
    assert rc == 0
    rc = run(
        "explain", "--data", FIXTURE, "--label", "njr",
        "--model", str(river_ws / "model.json"),
        "--index", "2", "--mode", "0", "--budget-runs", "12",
        "--seed", "5", "--out", str(d / "mode"),
    )
    assert rc == 0
    return d / "report_2.json", d / "mode" / "report_2.json"


class TestCompare:
    def test_tabulates_mixed_references(self, two_reports, tmp_path):
        rc = run(
            "compare", str(two_reports[0]), str(two_reports[1]),
            "--out", str(tmp_path), "--name", "both.csv",
        )
        assert rc == 0
        with open(tmp_path / "both.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["reference_kind"] for r in rows} == {"mean", "mode"}

    def test_empty_input_writes_header_only(self, tmp_path):
        rc = run("compare", "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "compare.csv").read_text().strip() == CSV_HEADER

    def test_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hello": 1}')
        rc = run("compare", str(bad), "--out", str(tmp_path))
        assert rc == 3

    @pytest.mark.parametrize(
        "reference", [["--mean"], ["--mode", "0", "--budget-runs", "3"]], ids=["mean", "mode"]
    )
    def test_reproduces_the_explain_table(self, river_ws, tmp_path, reference):
        # river row 19 sits on the label mean: its mean report is degenerate
        rc = run(
            "explain", "--data", FIXTURE, "--label", "njr",
            "--model", str(river_ws / "model.json"), "--index-range", "0:20",
            *reference, "--np", "50", "--out", str(tmp_path),
        )
        assert rc == 0
        reports = [str(tmp_path / f"report_{i}.json") for i in range(20)]
        assert run("compare", *reports, "--out", str(tmp_path)) == 0
        table = (tmp_path / "compare.csv").read_bytes()
        assert table == (tmp_path / "reports.csv").read_bytes()
        assert len(table.splitlines()) == 1 + 20 * 3


# the fields of a two-feature report that compare reads; the malformed cases edit it
REPORT = (
    '{"schema": 1, "observation_index": 0, "feature_names": ["a", "b"], '
    '"reference_kind": "mean", "mode_index": null, "y_obs": 1.0, "y_ref": 0.0, '
    '"z": 1.0, "z_m": null, "scores": {"first_order": [0.5, 0.5], "degenerate": false}, '
    '"decomposition": {"first_order": [0.5, 0.5]}, "shap": {"values": [0.5, 0.5]}}'
)

# one split on the fixture's first feature; the malformed cases edit it
GBT_STUMP = (
    '{"schema": 1, "kind": "gbt", "learning_rate": 0.1, "base_score": 12.0, '
    '"n_features": 3, "trees": [{"feature": [0, -1, -1], '
    '"threshold": [4.5, null, null], "left": [1, -1, -1], "right": [2, -1, -1], '
    '"value": [0.0, -1.0, 1.0]}]}'
)


def key_tree(doc):
    """The keys of ``doc`` at every depth, None at a leaf; a list of objects
    shows the keys its objects share."""
    if isinstance(doc, dict):
        return {key: key_tree(value) for key, value in doc.items()}
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        trees = [key_tree(item) for item in doc]
        assert all(tree == trees[0] for tree in trees)
        return [trees[0]]
    return None


DECOMPOSITION_KEYS = dict.fromkeys([
    "observation", "reference", "total_delta", "first_order", "second_order",
    "residual", "f0", "np_used", "stderr_first_order", "stderr_second_order",
])


def report_keys(map_result, budget):
    return {
        "schema": None,
        "observation_index": None,
        "feature_names": None,
        "y_obs": None,
        "reference_kind": None,
        "mode_index": None,
        "y_ref": None,
        "x_ref": None,
        "scores": dict.fromkeys([
            "first_order", "second_order", "residual_share", "reference_kind",
            "mode_index", "degenerate",
        ]),
        "shap": dict.fromkeys(["values", "base_value", "np_used"]),
        "z": None,
        "z_m": None,
        "decomposition": DECOMPOSITION_KEYS,
        "map_result": map_result,
        "settings": {
            **dict.fromkeys(["seed", "np", "order", "k_max", "degeneracy_tau", "bg_source"]),
            "budget": budget,
        },
    }


class TestFileFormats:
    """The key tree of every JSON file the commands write; a renamed result
    field fails here instead of silently changing a file format."""

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("formats")
        common = ("--data", FIXTURE, "--label", "njr", "--seed", "0")
        assert run("fit", *common, "--split", "1", "--out", str(d / "linear")) == 0
        assert run("fit", *common, "--split", "1", "--kind", "gbt", "--trees", "2",
                   "--depth", "2", "--out", str(d / "gbt")) == 0
        assert run("modes", *common, "--out", str(d / "modes")) == 0
        assert run("explain", *common, "--model", str(d / "gbt" / "model.json"),
                   "--mean", "--order", "2", "--np", "20", "--index", "0",
                   "--out", str(d / "mean")) == 0
        assert run("explain", *common, "--model", str(d / "linear" / "model.json"),
                   "--mode", "0", "--budget-runs", "3", "--np", "20", "--index", "0",
                   "--out", str(d / "mode")) == 0
        paths = {
            "linear": "linear/model.json",
            "gbt": "gbt/model.json",
            "modes": "modes/modes.json",
            "mean": "mean/report_0.json",
            "mode": "mode/report_0.json",
        }
        return {name: json.loads((d / path).read_text()) for name, path in paths.items()}

    def test_order_2_mean_report(self, docs):
        assert docs["mean"]["settings"]["order"] == 2
        assert docs["mean"]["decomposition"]["second_order"] is not None
        assert key_tree(docs["mean"]) == report_keys(None, None)

    def test_mode_report(self, docs):
        map_result = {
            "map_point": None,
            "map_log_posterior": None,
            "local_optima": [dict.fromkeys(["point", "log_posterior", "hit_count"])],
            "n_runs_executed": None,
            "n_converged": None,
        }
        budget = dict.fromkeys(["n_runs", "assumed_k", "min_basin_prob", "failure_prob"])
        assert key_tree(docs["mode"]) == report_keys(map_result, budget)

    def test_linear_model(self, docs):
        assert key_tree(docs["linear"]) == dict.fromkeys(
            ["schema", "kind", "intercept", "coefficients"]
        )

    def test_gbt_model(self, docs):
        assert key_tree(docs["gbt"]) == {
            **dict.fromkeys(["schema", "kind", "learning_rate", "base_score", "n_features"]),
            "trees": [dict.fromkeys(["feature", "threshold", "left", "right", "value"])],
        }

    def test_modes(self, docs):
        assert key_tree(docs["modes"]) == {
            "k": None,
            "mixture": dict.fromkeys(["weights", "means", "stds"]),
            "modes": [
                dict.fromkeys(["location", "density", "component_index", "sigma_m", "weight"])
            ],
        }


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, content, code",
        [
            ("explain", None, 3),
            ("explain", "not json", 3),
            ("explain", '{"schema": 1, "kind": "linear", "coefficients": [1, 1, 1]}', 2),
            ("explain", GBT_STUMP.replace('"feature": [0', '"feature": [7'), 2),
            ("explain", GBT_STUMP.replace(", 1.0]", "]"), 2),  # value one short
            ("explain", GBT_STUMP.replace('"threshold": [4.5', '"threshold": [null'), 2),
            ("explain", GBT_STUMP.replace('"learning_rate": 0.1', '"learning_rate": NaN'), 2),
            ("explain", GBT_STUMP.replace('"base_score": 12.0', '"base_score": Infinity'), 2),
            ("explain", GBT_STUMP.replace('"threshold": [4.5', '"threshold": [NaN'), 2),
            ("explain", GBT_STUMP.replace(", 1.0]", ", NaN]"), 2),
            ("explain", '{"schema": 1, "kind": "linear", "intercept": NaN, '
                        '"coefficients": [1, 1, 1]}', 2),
            ("explain", '{"schema": 1, "kind": "linear", "intercept": 0, '
                        '"coefficients": [1, -Infinity, 1]}', 2),
            ("explain", '{"schema": true, "kind": "linear", "intercept": 0, '
                        '"coefficients": [1, 1, 1]}', 2),
            ("compare", "[1]", 3),
            ("compare", '{"schema": 1}', 3),
            ("compare", REPORT, 0),
            ("compare", REPORT.replace('"schema": 1', '"schema": true'), 3),
            ("compare", REPORT.replace('"schema": 1', '"schema": 1.0'), 3),
            ("compare", REPORT.replace('["a", "b"]', '"ab"'), 3),
            ("compare", REPORT.replace('["a", "b"]', '["a", 2]'), 3),
            ("compare", REPORT.replace('["a", "b"]', '["a"]'), 3),
            ("compare", REPORT.replace('"values": [0.5, 0.5]', '"values": [0.5]'), 3),
            ("compare", REPORT.replace('"degenerate": false', '"degen": false'), 3),
            ("compare", REPORT.replace('"values": [0.5, 0.5]', '"values": "ab"'), 3),
            ("compare", REPORT.replace('"decomposition": {"first_order": [0.5, 0.5]',
                                       '"decomposition": {"first_order": ["x", "y"]'), 3),
            ("compare", REPORT.replace('"scores": {"first_order": [0.5, 0.5]',
                                       '"scores": {"first_order": [true, 0.5]'), 3),
            ("compare", REPORT.replace('"scores": {"first_order": [0.5, 0.5]',
                                       '"scores": {"first_order": [null, 0.5]'), 3),
            ("compare", REPORT.replace('"scores": {"first_order": [0.5, 0.5], '
                                       '"degenerate": false',
                                       '"scores": {"first_order": [null, null], '
                                       '"degenerate": true'), 0),
            ("compare", REPORT.replace('"values": [0.5, 0.5]', '"values": [null, 0.5]'), 3),
            ("synth", '{"features": [{"weights": [1], "means": [0], "stds": [1]}], '
                      '"noise_std": "abc"}', 2),
        ],
        ids=["model-missing", "model-not-json", "model-no-intercept",
             "gbt-feature-out-of-range", "gbt-short-value", "gbt-null-split-threshold",
             "gbt-nan-learning-rate", "gbt-infinite-base-score",
             "gbt-nan-split-threshold", "gbt-nan-leaf-value",
             "linear-nan-intercept", "linear-infinite-coefficient", "model-schema-true",
             "report-not-object", "report-schema-only", "report-minimal",
             "report-schema-true", "report-schema-float", "report-names-string",
             "report-names-not-strings", "report-names-short", "report-shap-short",
             "report-no-degenerate-flag", "report-shap-string",
             "report-delta-strings", "report-score-bool", "report-score-null",
             "report-degenerate-null-scores", "report-shap-null", "spec-bad-noise"],
    )
    def test_exit_code(self, tmp_path, command, content, code):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        argv = {
            "explain": ("explain", "--data", FIXTURE, "--label", "njr", "--model", str(path),
                        "--index", "0", "--mean"),
            "compare": ("compare", str(path)),
            "synth": ("synth", "--spec", str(path), "--n", "5"),
        }[command]
        assert run(*argv, "--out", str(tmp_path)) == code


class TestTopLevel:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_run_log_appends(self, tmp_path):
        for _ in range(2):
            rc = run(
                "synth", "--preset", "trimodal", "--n", "10", "--seed", "0",
                "--out", str(tmp_path),
            )
            assert rc == 0
        log = (tmp_path / "run.log").read_text().splitlines()
        assert len(log) == 2

    def test_run_log_records_failure(self, river_ws, tmp_path):
        # a constant feature column collapses its fitted prior (which a
        # prior background reads): exit 4
        flat = tmp_path / "flat.csv"
        flat.write_text(
            "h,hp,ww,njr\n"
            + "".join(f"5.0,{i}.0,{i % 3}.5,{12 + i}.0\n" for i in range(10))
        )
        argv = [
            "explain", "--data", str(flat), "--label", "njr",
            "--model", str(river_ws / "model.json"), "--index", "0", "--mean",
            "--bg", "prior", "--out", str(tmp_path),
        ]
        assert run(*argv) == 4
        log = (tmp_path / "run.log").read_text().splitlines()
        assert len(log) == 1
        assert f" explain {argv} exit=4 elapsed=" in log[0]


def command_argv(command, ws):
    """A minimal valid argv for ``command``; ``ws`` holds a fitted model."""
    data = ("--data", FIXTURE, "--label", "njr")
    return {
        "synth": ("synth", "--preset", "trimodal", "--n", "10"),
        "fit": ("fit", *data, "--split", "1"),
        "modes": ("modes", *data, "--k-max", "2"),
        "explain": ("explain", *data, "--model", str(ws / "model.json"),
                    "--index", "0", "--mean", "--np", "10"),
        "compare": ("compare",),
    }[command]


COMMANDS = ["synth", "fit", "modes", "explain", "compare"]


class TestCommandFrame:
    """Every command runs in one frame: it makes --out, resolves the seed,
    echoes the config on success and maps errors to exit codes."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_writes_one_config_echo(self, command, river_ws, tmp_path):
        assert run(*command_argv(command, river_ws), "--out", str(tmp_path)) == 0
        echoes = sorted(p.name for p in tmp_path.glob("*_config.json"))
        assert echoes == [f"{command}_config.json"]
        config = json.loads((tmp_path / echoes[0]).read_text())
        assert config["command"] == command

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("synth", "--preset", "trimodal", "--n", "-1"), 2),
            (("fit", "--data", FIXTURE, "--label", "njr", "--split", "1.5"), 2),
            (("modes", "--data", FIXTURE, "--label", "njr", "--k-max", "0"), 2),
            (("explain", "--data", FIXTURE, "--label", "njr", "--model", "model.json",
              "--index", "0", "--mean", "--seed", "-1"), 2),
            (("compare", "missing.json"), 3),
        ],
        ids=COMMANDS,
    )
    def test_refused_run_writes_no_config_echo(self, argv, code, tmp_path, capsys):
        assert run(*argv, "--out", str(tmp_path)) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.glob("*_config.json")) == []
        log = (tmp_path / "run.log").read_text().splitlines()
        assert len(log) == 1
        assert f" exit={code} " in log[0]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (ValidationError("bad"), 2, "error: "),
            (IngestionError("bad"), 3, "error: "),
            (NumericalError("bad"), 4, "error: "),
            (SingularFitError("bad", column="x0"), 4, "error: "),
            (SearchFailureError("bad"), 4, "error: "),
            (DevexplainError("bad"), 5, "error: "),
            (RuntimeError("bad"), 5, "internal error: "),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
    )
    def test_error_exit_codes(
        self, command, error, code, prefix, river_ws, tmp_path, monkeypatch, capsys
    ):
        def fail(args, out):
            raise error

        monkeypatch.setattr(devexplain.cli, f"cmd_{command}", fail)
        assert run(*command_argv(command, river_ws), "--out", str(tmp_path)) == code
        assert capsys.readouterr().err == f"{prefix}bad\n"
        assert list(tmp_path.glob("*_config.json")) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_sees_the_resolved_seed(
        self, command, river_ws, tmp_path, monkeypatch
    ):
        seen = []

        def record(args, out):
            seen.append((args.seed if "seed" in args else "none", out))
            return {}

        monkeypatch.setenv("DEVEXPLAIN_SEED", "7")
        monkeypatch.setattr(devexplain.cli, f"cmd_{command}", record)
        assert run(*command_argv(command, river_ws), "--out", str(tmp_path / "new")) == 0
        assert seen == [("none" if command == "compare" else 7, tmp_path / "new")]
        assert (tmp_path / "new").is_dir()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_builds(self, command, capsys):
        # the shared options come from parent parsers; each command's help must build
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: devexplain {command} ")

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory(self, sub, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / sub if sub else afile
        rc = run("synth", "--preset", "trimodal", "--n", "5", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: ")
        assert afile.read_text() == ""

    @pytest.mark.parametrize("command", ["synth", "compare"])
    @pytest.mark.parametrize("name", ["", ".", "..", "nodir/x.csv", "../escape.csv"])
    def test_name_is_one_file_inside_out(self, command, name, river_ws, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(*command_argv(command, river_ws), "--name", name, "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --name {name!r}: must be a file name without a directory\n"
        )
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "run.log"]


class TestTraceHarness:
    """The benchmark's trace harness wraps library functions by name and
    reads their arguments and results; a signature drift must fail here."""

    def test_traced_mode_explanation(self, river_ws, tmp_path):
        root = Path(__file__).resolve().parents[1]
        trace = tmp_path / "trace.json"
        out = subprocess.run(
            [
                sys.executable, str(root / "perfbench" / "traced_cli.py"), str(trace),
                "explain", "--data", FIXTURE, "--label", "njr",
                "--model", str(river_ws / "model.json"),
                "--mode", "0", "--index", "0", "--budget-runs", "3",
                "--out", str(tmp_path),
            ],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(devexplain.__file__).resolve().parents[1])},
        )
        assert out.returncode == 0, out.stderr
        spans = json.loads(trace.read_text())["spans"]
        searches = [s for s in spans if s[2] == "inverse.direct_search_map"]
        assert len(searches) == 1
        assert searches[0][6]["restarts"] == 3
        fits = [s for s in spans if s[2] == "mixtures.fit_gmm"]
        assert fits
        assert all("em_iters" in s[6] for s in fits)


# the package's public names before they resolved lazily
PUBLIC_NAMES = sorted("""
    BackgroundSample Dataset DevexplainError DeviationDecomposition ExplainSettings
    ExplanationReport FeaturePriors GaussianMixture1D GbtModel GbtParams IngestionError
    LinearModel MapResult ModeInfo NumericalError PosteriorObjective PredictiveModel
    ResidualStats ResponsibleScores SearchBudget SearchFailureError ShapleyAttribution
    SingularFitError SyntheticSpec ValidationError anova attribution clamp_sigma_e_squared
    dataset decompose_deviation default_budget density direct_search_map draw_background
    errors explain explain_many f_zero first_order_effect fit_gbt fit_gmm fit_linear
    fit_priors generate_synthetic inverse load_csv load_model local_maximize log_posterior
    log_prior mean_based_scores_equal_shap_check mixtures mode_z_score model_from_json
    model_to_json models modes predict report_to_json required_runs residual_stats
    responsible_scores river_fixture_path second_order_effect select_k shapley_values
    split trimodal_benchmark_spec z_score
""".split())


def run_fresh(script, **env):
    """Run ``script`` in a fresh interpreter with none of the BLAS thread
    variables set (this process set them when it imported devexplain.cli),
    plus ``env``; return its last stdout line, parsed as JSON."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    out = subprocess.run(
        [sys.executable, "-c", "import json, os, sys\n" + script],
        capture_output=True, text=True, check=True,
        env={**base, "PYTHONPATH": str(Path(devexplain.__file__).resolve().parents[1]), **env},
    )
    return json.loads(out.stdout.splitlines()[-1])


class TestBlasThreads:
    """A CLI process runs BLAS on one thread unless the user chose a count;
    the package import itself loads no numpy and changes nothing."""

    ENV = f"[os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]"

    def test_package_import_loads_no_numpy(self):
        loaded, env = run_fresh(
            f"import devexplain\nprint(json.dumps(['numpy' in sys.modules, {self.ENV}]))"
        )
        assert loaded is False
        assert env == [None, None, None]

    def test_public_names_resolve(self):
        names, starred, resolved = run_fresh(
            "import devexplain\n"
            "ns = {}\n"
            "exec('from devexplain import *', ns)\n"
            "print(json.dumps([devexplain.__all__, sorted(set(ns) - {'__builtins__'}),\n"
            "    all(getattr(devexplain, n) is ns[n] for n in devexplain.__all__)]))"
        )
        assert len(PUBLIC_NAMES) == 69
        assert names == PUBLIC_NAMES
        assert starred == PUBLIC_NAMES
        assert resolved is True

    def test_cli_runs_one_blas_thread(self):
        env, threads = run_fresh(
            "import devexplain.cli, numpy\n"
            "task = '/proc/self/task'\n"
            f"print(json.dumps([{self.ENV},\n"
            "    len(os.listdir(task)) if os.path.isdir(task) else None]))"
        )
        assert env == ["1", "1", "1"]
        if threads is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert threads == 1

    def test_user_thread_count_is_kept(self):
        env = run_fresh(
            f"import devexplain.cli\nprint(json.dumps({self.ENV}))",
            OPENBLAS_NUM_THREADS="2",
        )
        assert env == ["2", "1", "1"]


@pytest.fixture(scope="module")
def river_gbt(tmp_path_factory):
    """The fixture data fitted with a 20-tree GBT, no test split."""
    d = tmp_path_factory.mktemp("river_gbt")
    assert run("fit", "--data", FIXTURE, "--label", "njr", "--kind", "gbt", "--trees", "20",
               "--split", "1", "--seed", "0", "--out", str(d)) == 0
    return d


class TestImportFootprint:
    """Each command loads only the package modules of the stages it runs,
    and no module of a test extra (scipy above all: numpy is the one
    dependency), counted in a fresh interpreter per case once the command
    returns."""

    BASE = ["cli", "dataset", "errors"]
    PIPELINE = ["anova", "attribution", "inverse", "mixtures", "models"]
    EXTRAS = ["hypothesis", "pytest", "scipy"]

    @classmethod
    def loaded(cls, argv):
        code, modules, extras = run_fresh(
            "import devexplain.cli\n"
            f"argv = {list(argv)!r}\n"
            "code = devexplain.cli.main(argv) if argv else 0\n"
            "tops = {m.split('.')[0] for m in sys.modules}\n"
            "print(json.dumps([code, sorted(m.split('.')[1] for m in sys.modules\n"
            f"    if m.startswith('devexplain.')), sorted(tops & set({cls.EXTRAS!r}))]))"
        )
        assert code == 0
        assert extras == []
        return modules

    def test_import_loads_the_frame_only(self):
        assert self.loaded([]) == self.BASE

    @pytest.mark.parametrize(
        "argv, stages",
        [
            (["synth", "--preset", "trimodal", "--n", "20"], ["mixtures"]),
            (["fit", "--kind", "linear", "--split", "1"], ["models"]),
            (["fit", "--kind", "gbt", "--trees", "5", "--split", "1"], ["models"]),
            (["modes", "--k-max", "2"], ["mixtures"]),
            (["explain", "--model", "{linear}", "--index", "0", "--mean", "--np", "20"], PIPELINE),
            (["explain", "--model", "{linear}", "--index", "0", "--mean", "--np", "20", "--svg"],
             PIPELINE + ["svgchart"]),
            (["explain", "--model", "{linear}", "--index", "0", "--mode", "0", "--np", "50",
              "--budget-runs", "3"], PIPELINE),
            (["explain", "--model", "{gbt}", "--index", "0", "--mode", "0", "--np", "50",
              "--budget-runs", "3"], PIPELINE),
        ],
        ids=["synth", "fit", "fit-gbt", "modes", "explain", "explain-svg", "explain-linear-map",
             "explain-tree-map"],
    )
    def test_command_loads_its_stages(self, river_ws, river_gbt, tmp_path, argv, stages):
        models = {"linear": river_ws / "model.json", "gbt": river_gbt / "model.json"}
        argv = [a.format(**models) for a in argv]
        if argv[0] != "synth":
            argv = argv + ["--data", FIXTURE, "--label", "njr"]
        assert self.loaded(argv + ["--out", str(tmp_path)]) == sorted(self.BASE + stages)

    def test_compare_loads_the_frame_only(self, two_reports, tmp_path):
        argv = ["compare", *map(str, two_reports), "--out", str(tmp_path)]
        assert self.loaded(argv) == self.BASE


class TestResultEncoding:
    """Result files and config echoes are the same bytes whatever the locale
    and the BLAS thread count."""

    UTF8 = {"PYTHONUTF8": "1"}
    ASCII = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    @staticmethod
    def environ(locale_vars: dict) -> dict:
        """The test's environment under ``locale_vars``, with no stdout
        encoding of its own unless ``locale_vars`` names one."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        return {**env, **locale_vars,
                "PYTHONPATH": str(Path(devexplain.__file__).resolve().parents[1])}

    def outputs(self, d: Path, env: dict, commands) -> dict:
        """Run each command line in ``d``; every file it holds after, less run.log."""
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-m", "devexplain.cli", *argv],
                cwd=d, env=env, capture_output=True,
            )
            assert done.returncode == 0, (argv[0], done.stderr)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.name != "run.log"}

    def explained(self, tmp_path: Path, runs: dict) -> dict:
        """The files of fit, explain --svg over two rows and compare, on the
        fixture with a non-ASCII first column name, under each of ``runs``."""
        lines = Path(FIXTURE).read_text().splitlines(keepends=True)
        outputs = {}
        for name, locale_vars in runs.items():
            env = self.environ(locale_vars)
            # the ASCII runs must really run under an ASCII preferred encoding
            check = [sys.executable, "-c", "import locale; print(locale.getpreferredencoding())"]
            encoding = subprocess.run(check, env=env, capture_output=True, text=True).stdout
            assert (encoding.strip().lower() == "utf-8") is (locale_vars is self.UTF8)
            d = tmp_path / name
            d.mkdir()
            (d / "data.csv").write_bytes(("hé,hp,ww,njr\n" + "".join(lines[1:])).encode())
            data = ["--data", "data.csv", "--label", "njr", "--seed", "1"]
            outputs[name] = self.outputs(d, env, (
                ["fit", *data, "--split", "1"],
                ["explain", *data, "--model", "model.json", "--index-range", "0:2",
                 "--mean", "--svg", "--np", "20"],
                ["compare", "report_0.json", "report_1.json"],
            ))
        return outputs

    def test_ascii_locale_writes_the_utf8_bytes(self, tmp_path):
        outputs = self.explained(
            tmp_path, {"utf8": self.UTF8, "ascii": {**self.ASCII, "PYTHONIOENCODING": "utf-8"}}
        )
        assert outputs["ascii"] == outputs["utf8"]
        assert {"reports.csv", "chart_0.svg", "compare.csv"} <= set(outputs["utf8"])
        assert "hé".encode() in outputs["utf8"]["compare.csv"]

    def test_ascii_stdout_prints_names_escaped(self, tmp_path):
        # printing "hé" to an ASCII stdout escapes it instead of failing the command
        outputs = self.explained(tmp_path, {"utf8": self.UTF8, "ascii": self.ASCII})
        assert outputs["ascii"] == outputs["utf8"]
        assert {"report_1.json", "reports.csv", "explain_config.json"} <= set(outputs["utf8"])

    def test_two_blas_threads_write_the_bytes_of_one(self, tmp_path):
        # the CLI defaults to one BLAS thread; a user's two must give the same bytes
        outputs = {}
        for threads in ("1", "2"):
            d = tmp_path / threads
            d.mkdir()
            env = self.environ({**self.UTF8, "OPENBLAS_NUM_THREADS": threads})
            data = ["--data", "synthetic.csv"]
            outputs[threads] = self.outputs(d, env, (
                ["synth", "--preset", "trimodal", "--n", "300", "--seed", "0"],
                ["fit", *data, "--kind", "linear", "--split", "1"],
                ["explain", *data, "--model", "model.json", "--index-range", "0:2",
                 "--mode", "0", "--k-max", "4", "--svg"],
            ))
        assert outputs["2"] == outputs["1"]
        assert {"model.json", "report_1.json", "reports.csv", "chart_1.svg"} <= set(outputs["1"])

    def test_config_echo_is_the_utf8_text_of_the_arguments(self, tmp_path):
        # under the ASCII locale Python decodes "donnés.csv" to surrogate escapes;
        # the file opens by that path, and the echo holds the UTF-8 text
        outputs = {}
        for name, locale_vars in (("utf8", self.UTF8), ("ascii", self.ASCII)):
            d = tmp_path / name
            d.mkdir()
            Path(d / "donnés.csv").write_text("h,y\n1,2\n2,3\n3,5\n4,4\n5,7\n6,6\n")
            outputs[name] = self.outputs(
                d, self.environ(locale_vars), [["modes", "--data", "donnés.csv", "--k-max", "2"]]
            )
        assert outputs["ascii"] == outputs["utf8"]
        assert b'"data": "donn\\u00e9s.csv"' in outputs["utf8"]["modes_config.json"]
