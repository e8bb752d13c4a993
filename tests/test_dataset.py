"""Dataset container, synthetic generator, CSV ingestion, and splitting."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from devexplain.anova import PRIOR_SAMPLED, BackgroundSample
from devexplain.dataset import (
    Dataset,
    _json_doc,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_synthetic_spec,
    trimodal_benchmark_spec,
    split,
    synthetic_spec_from_json,
    synthetic_spec_to_json,
)
from devexplain.errors import IngestionError, ValidationError
from devexplain.mixtures import GaussianMixture1D, mixture_from_json, mixture_to_json
from devexplain.models import LinearModel


def standard_normal_spec(d: int) -> SyntheticSpec:
    mix = GaussianMixture1D(components=((1.0, 0.0, 1.0),))
    return SyntheticSpec(feature_specs=(mix,) * d)


class TestDataset:
    def test_shapes_and_row(self):
        data = Dataset(
            features=[[1.0, 2.0], [3.0, 4.0]],
            labels=[5.0, 6.0],
            feature_names=("a", "b"),
        )
        assert data.n == 2 and data.d_x == 2
        x, y = data.row(1)
        assert x.tolist() == [3.0, 4.0] and y == 6.0
        with pytest.raises(ValidationError):
            data.row(2)

    def test_immutability(self):
        data = Dataset(features=[[1.0]], labels=[2.0], feature_names=("a",))
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0

    def test_caller_arrays_are_copied(self):
        features, labels, points, coef = (
            np.ones((2, 2)), np.ones(2), np.ones((3, 2)), np.ones(2)
        )
        data = Dataset(features=features, labels=labels, feature_names=("a", "b"))
        bg = BackgroundSample(points=points, source=PRIOR_SAMPLED, seed=0)
        model = LinearModel(0.0, coef)
        for caller in (features, labels, points, coef):
            assert caller.flags.writeable
            caller[0] = 9.0
        assert data.features.tolist() == [[1.0, 1.0]] * 2 and data.labels.tolist() == [1.0] * 2
        assert bg.points.tolist() == [[1.0, 1.0]] * 3
        assert model.predict_one(np.ones(2)) == 2.0

    @pytest.mark.parametrize(
        "features, labels, names",
        [
            ([[1.0]], [1.0, 2.0], ("a",)),  # label count mismatch
            ([[1.0, 2.0]], [1.0], ("a",)),  # name count mismatch
            ([[1.0, 2.0]], [1.0], ("a", "a")),  # duplicate names
            ([[np.nan]], [1.0], ("a",)),  # non-finite feature
            ([[1.0]], [np.inf], ("a",)),  # non-finite label
        ],
    )
    def test_rejects_bad_input(self, features, labels, names):
        with pytest.raises(ValidationError):
            Dataset(features=features, labels=labels, feature_names=names)


class TestGenerateSynthetic:
    def test_benchmark_label_mean(self, synth10k):
        # three mixtures each with mean 0.3*0 + 0.3*4 + 0.4*8 = 4.4
        assert abs(synth10k.labels.mean() - 13.2) <= 0.15

    def test_empty(self, trimodal_spec):
        data = generate_synthetic(trimodal_spec, 0, 0)
        assert data.n == 0 and data.d_x == 3

    def test_standard_normal_mean_bound(self):
        n = 100_000
        data = generate_synthetic(standard_normal_spec(3), n, 7)
        # label = sum of three independent N(0,1); CLT bound at 3 sigma
        assert abs(data.labels.mean()) <= 3.0 * math.sqrt(3.0 / n)

    def test_deterministic(self, trimodal_spec):
        a = generate_synthetic(trimodal_spec, 50, 11)
        b = generate_synthetic(trimodal_spec, 50, 11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_column_streams_stable_under_extra_feature(self):
        # adding a feature spec must not perturb existing columns' draws
        base = standard_normal_spec(2)
        wider = standard_normal_spec(3)
        a = generate_synthetic(base, 100, 5)
        b = generate_synthetic(wider, 100, 5)
        assert np.array_equal(a.features, b.features[:, :2])

    def test_label_is_feature_sum_plus_noise(self):
        noisy = SyntheticSpec(
            feature_specs=standard_normal_spec(2).feature_specs,
            label_noise_std=0.5,
        )
        data = generate_synthetic(noisy, 2000, 9)
        resid = data.labels - data.features.sum(axis=1)
        assert 0.4 < resid.std() < 0.6
        assert not np.allclose(resid, 0.0)

    def test_negative_n_rejected(self, trimodal_spec):
        with pytest.raises(ValidationError):
            generate_synthetic(trimodal_spec, -1, 0)


class TestMixtureSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            GaussianMixture1D(components=((0.5, 0.0, 1.0), (0.4, 1.0, 1.0)))

    def test_positive_stds(self):
        with pytest.raises(ValidationError):
            GaussianMixture1D(components=((1.0, 0.0, 0.0),))

    def test_mean(self):
        mix = GaussianMixture1D(components=((0.3, 0.0, 1.0), (0.3, 4.0, 1.0), (0.4, 8.0, 1.0)))
        assert mix.mean() == pytest.approx(4.4)

    def test_json_roundtrip(self):
        mix = GaussianMixture1D(components=((0.25, -1.0, 0.25), (0.75, 2.0, 2.25)))
        again = mixture_from_json(mixture_to_json(mix))
        assert again == mix

    def test_spec_json_roundtrip(self, trimodal_spec):
        again = synthetic_spec_from_json(synthetic_spec_to_json(trimodal_spec))
        assert again == trimodal_spec


class TestLoadCsv:
    def test_river_fixture(self, fixture_data):
        assert fixture_data.n == 20 and fixture_data.d_x == 3
        assert fixture_data.feature_names == ("h", "hp", "ww")
        assert fixture_data.label_name == "njr"

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,y\n")
        data = load_csv(path, "y")
        assert data.n == 0 and data.d_x == 2

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1.0,2.0\nNaN,3.0\n")
        with pytest.raises(IngestionError, match=r"line 3.*column 'a'"):
            load_csv(path, "y")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(IngestionError, match="label column"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="no such file"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("")
        with pytest.raises(IngestionError, match="empty"):
            load_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,y\n1.0\n")
        with pytest.raises(IngestionError, match="line 2"):
            load_csv(path, "y")

    def test_save_load_roundtrip_is_exact(self, tmp_path, trimodal_spec):
        data = generate_synthetic(trimodal_spec, 25, 13)
        path = tmp_path / "rt.csv"
        data.save_csv(path)
        again = load_csv(path, "y")
        assert np.array_equal(again.features, data.features)
        assert np.array_equal(again.labels, data.labels)
        assert again.feature_names == data.feature_names


class TestSplit:
    def test_sizes(self):
        data = generate_synthetic(standard_normal_spec(1), 10, 0)
        train, test = split(data, 0.8, 0)
        assert (train.n, test.n) == (8, 2)

    def test_deterministic(self, synth10k):
        a_train, a_test = split(synth10k, 0.8, 21)
        b_train, b_test = split(synth10k, 0.8, 21)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_partition_is_disjoint_and_complete(self, synth10k):
        train, test = split(synth10k, 0.7, 4)
        assert train.n + test.n == synth10k.n
        merged = np.sort(np.concatenate([train.labels, test.labels]))
        assert np.array_equal(merged, np.sort(synth10k.labels))

    def test_halves_have_similar_label_means(self, synth10k):
        train, test = split(synth10k, 0.5, 17)
        assert abs(train.labels.mean() - test.labels.mean()) <= 0.2

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_domain(self, synth10k, fraction):
        with pytest.raises(ValidationError):
            split(synth10k, fraction, 0)

    @pytest.mark.parametrize("fraction, empty", [(0.99, "test"), (0.01, "training")])
    def test_empty_side_rejected(self, fraction, empty):
        data = generate_synthetic(standard_normal_spec(1), 20, 0)
        with pytest.raises(ValidationError, match=f"{empty} set empty at N=20"):
            split(data, fraction, 0)


class TestSpecFiles:
    def test_load_synthetic_spec(self, tmp_path):
        doc = {
            "features": [{"weights": [1.0], "means": [0.0], "stds": [1.0]}],
            "noise_std": 0.1,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_synthetic_spec(path)
        assert spec.d_x == 1 and spec.label_noise_std == 0.1

    def test_load_synthetic_spec_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(IngestionError, match="invalid JSON"):
            load_synthetic_spec(path)

    def test_trimodal_preset_shape(self, trimodal_spec):
        assert trimodal_spec.d_x == 3
        assert trimodal_spec.label_noise_std == 0.0
        stds = [mix.stds[2] for mix in trimodal_spec.feature_specs]
        assert stds == [0.5, 0.75, 1.0]


@dataclass(frozen=True)
class _Inner:
    values: np.ndarray
    label: str


@dataclass(frozen=True)
class _Outer:
    items: tuple
    score: float
    count: int
    extra: dict | None


class TestJsonDoc:
    def test_dataclasses_become_objects_of_their_fields(self):
        doc = _json_doc(
            _Outer(
                items=(_Inner(np.array([1.5, 2.0]), "a"), _Inner(np.arange(2), "b")),
                score=0.25,
                count=3,
                extra={"k": [1, 2]},
            )
        )
        assert doc == {
            "items": [
                {"values": [1.5, 2.0], "label": "a"},
                {"values": [0, 1], "label": "b"},
            ],
            "score": 0.25,
            "count": 3,
            "extra": {"k": [1, 2]},
        }
        assert type(doc["items"][1]["values"][0]) is int

    def test_nan_becomes_null_and_infinity_passes(self):
        arr = np.array([[1.0, math.nan], [math.inf, -math.inf]])
        assert _json_doc(arr) == [[1.0, None], [math.inf, -math.inf]]
        assert _json_doc(math.nan) is None
        assert _json_doc(np.float64(math.nan)) is None
        assert _json_doc(-math.inf) == -math.inf
        assert _json_doc((math.nan, None, True)) == [None, None, True]

    def test_array_values_keep_their_json_text(self):
        values = np.random.default_rng(0).normal(size=50)
        with_nan = values.copy()
        with_nan[3] = math.nan
        plain = [float(v) for v in values]
        assert json.dumps(_json_doc(values)) == json.dumps(plain)
        assert json.dumps(_json_doc(with_nan)) == json.dumps(plain[:3] + [None] + plain[4:])
