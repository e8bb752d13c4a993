"""Data model, synthetic multimodal generator, input and result files.

A :class:`Dataset` is an immutable bundle of an ``N x d`` feature matrix and
a length-``N`` label vector.  Synthetic data is drawn feature-by-feature from
1-D Gaussian mixtures and combined additively, which is the generating
process the rest of the package is demonstrated on.

It also owns the file formats: every input file is read, and every JSON and
CSV result written, as UTF-8, and the report format lives here, apart from
the pipeline, so ``compare`` loads no pipeline module.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import IngestionError, ValidationError


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``: later writes to the caller's array
    change nothing, and the caller's array stays writable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _finite_vector(x, d: int, name: str = "x") -> np.ndarray:
    """``x`` flattened to a float vector; one that does not hold exactly ``d``
    finite entries is a ValidationError naming it ``name``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != d:
        raise ValidationError(f"{name} has {x.size} entries, expected {d}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains non-finite entries")
    return x


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of a C-order 2-D array: ``rows[first]`` holds each
    distinct row once, rows matching bit for bit, and ``rows[first][inverse]`` is ``rows``.
    A row of at most 8 bytes is keyed as one zero-padded integer, which sorts
    several times faster than the void key of a wider row."""
    n, width = rows.shape[0], rows.itemsize * rows.shape[1]
    if width <= 8:
        packed = np.zeros((n, 8), np.uint8)
        packed[:, :width] = rows.view(np.uint8).reshape(n, width)
        keys = packed.view(np.uint64).ravel()
    else:
        keys = rows.view(np.dtype((np.void, width))).ravel()
    return np.unique(keys, return_index=True, return_inverse=True)[1:]


@dataclass(frozen=True)
class Dataset:
    """N observations of d_x features plus a scalar label per observation."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    label_name: str = "y"

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=float).reshape(-1)
        if feats.size == 0:
            feats = feats.reshape(labels.shape[0], len(self.feature_names))
        object.__setattr__(self, "features", _frozen_array(feats))
        object.__setattr__(self, "labels", _frozen_array(labels))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.features.ndim != 2:
            raise ValidationError("features must be a 2-D matrix")
        n, d = self.features.shape
        if labels.shape[0] != n:
            raise ValidationError(
                f"labels has {labels.shape[0]} entries for {n} feature rows"
            )
        if len(self.feature_names) != d:
            raise ValidationError(
                f"{len(self.feature_names)} feature names for {d} columns"
            )
        if not all(name for name in self.feature_names):
            raise ValidationError("feature names must be non-empty")
        if len(set(self.feature_names)) != d:
            raise ValidationError("feature names must be unique")
        if n and not np.all(np.isfinite(self.features)):
            raise ValidationError("features contain non-finite entries")
        if n and not np.all(np.isfinite(self.labels)):
            raise ValidationError("labels contain non-finite entries")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_x(self) -> int:
        return self.features.shape[1]

    def row(self, index: int) -> tuple[np.ndarray, float]:
        """Feature vector and label of one observation."""
        if not 0 <= index < self.n:
            raise ValidationError(f"observation index {index} out of range 0..{self.n - 1}")
        return self.features[index].copy(), float(self.labels[index])

    def save_csv(self, path: str | Path) -> None:
        """Write header plus rows; floats use shortest round-trip repr."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.feature_names) + [self.label_name])
            for i in range(self.n):
                writer.writerow(
                    [repr(float(v)) for v in self.features[i]]
                    + [repr(float(self.labels[i]))]
                )


@dataclass(frozen=True)
class SyntheticSpec:
    """Additive generator: each feature from its mixture, y = sum_I x_I + noise."""

    feature_specs: tuple  # of mixtures.GaussianMixture1D
    label_noise_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "feature_specs", tuple(self.feature_specs))
        if len(self.feature_specs) < 1:
            raise ValidationError("need at least one feature spec")
        if not 0 <= self.label_noise_std < math.inf:
            raise ValidationError("label_noise_std must be nonnegative and finite")

    @property
    def d_x(self) -> int:
        return len(self.feature_specs)


def generate_synthetic(spec: SyntheticSpec, n: int, seed: int) -> Dataset:
    """Draw ``n`` observations from ``spec``.

    Each feature column gets its own child stream of ``seed`` (spawned via
    ``numpy.random.SeedSequence``), so adding a column never perturbs the
    draws of existing columns.  The label-noise stream is the last child.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    d = spec.d_x
    children = np.random.SeedSequence(seed).spawn(d + 1)
    features = np.empty((n, d))
    for i, mix in enumerate(spec.feature_specs):
        features[:, i] = mix.sample(np.random.default_rng(children[i]), n)
    labels = features.sum(axis=1)
    if spec.label_noise_std > 0:
        noise_rng = np.random.default_rng(children[d])
        labels = labels + spec.label_noise_std * noise_rng.standard_normal(n)
    names = tuple(f"x{i}" for i in range(d))
    return Dataset(features=features, labels=labels, feature_names=names)


def load_csv(path: str | Path, label_column: str) -> Dataset:
    """Read a one-header-row, comma-delimited numeric UTF-8 CSV (see ``_read_text``).

    The ``label_column`` becomes the labels; all remaining columns become
    features in header order.  Any cell that does not parse as a finite
    number raises :class:`IngestionError` naming its row and column; so
    does a header name that is empty or repeated, the label's included.
    """
    with io.StringIO(_read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        seen = set()
        for c, name in enumerate(header, start=1):
            if not name:
                raise IngestionError(f"{path}: header column {c} has no name")
            if name in seen:
                raise IngestionError(f"{path}: header repeats column {name!r}")
            seen.add(name)
        if label_column not in header:
            raise IngestionError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        label_idx = header.index(label_column)
        rows = []
        for r, row in enumerate(reader, start=2):  # header is line 1
            if not row:
                continue
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}: line {r} has {len(row)} cells, header has {len(header)}"
                )
            parsed = []
            for c, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise IngestionError(
                        f"{path}: non-numeric cell {cell.strip()!r} at line {r}, "
                        f"column {header[c]!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    if rows:
        data = np.array(rows)
        labels = data[:, label_idx]
        features = np.delete(data, label_idx, axis=1)
    else:
        features = np.empty((0, len(feature_names)))
        labels = np.empty(0)
    return Dataset(
        features=features,
        labels=labels,
        feature_names=feature_names,
        label_name=label_column,
    )


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint shuffled partition with round(train_fraction * N) training rows."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must be in (0, 1)")
    n_train = int(round(train_fraction * data.n))
    if not 0 < n_train < data.n:
        empty = "training" if n_train == 0 else "test"
        raise ValidationError(
            f"train_fraction {train_fraction} leaves the {empty} set empty at N={data.n}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n)
    picks = (order[:n_train], order[n_train:])
    return tuple(
        Dataset(
            features=data.features[idx],
            labels=data.labels[idx],
            feature_names=data.feature_names,
            label_name=data.label_name,
        )
        for idx in picks
    )


def synthetic_spec_to_json(spec: SyntheticSpec) -> dict:
    from .mixtures import mixture_to_json
    return {
        "features": [mixture_to_json(m) for m in spec.feature_specs],
        "noise_std": spec.label_noise_std,
    }


def synthetic_spec_from_json(doc: dict) -> SyntheticSpec:
    if not isinstance(doc, dict) or "features" not in doc:
        raise ValidationError("synthetic spec document needs a 'features' list")
    from .mixtures import mixture_from_json
    mixes = tuple(mixture_from_json(m) for m in doc["features"])
    try:
        noise_std = float(doc.get("noise_std", 0.0))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad noise_std: {exc}") from exc
    return SyntheticSpec(feature_specs=mixes, label_noise_std=noise_std)


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text, less a leading byte-order mark; a file that is
    missing, unreadable or not UTF-8 is an IngestionError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except FileNotFoundError:
        raise IngestionError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise IngestionError(f"{path}: unreadable ({exc})") from exc


def _read_json(path: str | Path):
    """Parse a JSON file read by ``_read_text``; invalid JSON is an IngestionError."""
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:
        raise IngestionError(f"{path}: invalid JSON ({exc})") from exc


def _json_doc(obj):
    """``obj`` as a JSON document, the one writer of every result file.

    A dataclass becomes an object of its fields, a tuple, list or array a
    list, and NaN null.  Everything else passes through, +-inf too: an
    infinite split threshold is a legal split and must survive a reload.
    """
    if is_dataclass(obj):
        return {f.name: _json_doc(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        nan = np.isnan(obj) if obj.dtype.kind == "f" else None
        if nan is not None and nan.any():
            obj = obj.astype(object)
            obj[nan] = None
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [_json_doc(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


REPORT_SCHEMA = 1

# the columns of a CSV of report_rows, in order
_REPORT_COLUMNS = (
    "observation_index", "feature", "reference_kind", "mode_index", "y_obs", "y_ref",
    "z", "z_m", "delta", "score", "shap", "degenerate",
)


def report_to_json(report) -> dict:
    """An ``attribution.ExplanationReport`` as its JSON document."""
    return {"schema": REPORT_SCHEMA, **_json_doc(report)}


def report_rows(doc: dict) -> list[dict]:
    """One flat dict per feature of a report document (``report_to_json``),
    for CSV export and cross-report tables.  A per-feature list whose length
    is not the number of feature names is a ValueError."""
    scores = doc["scores"]
    degenerate = scores["degenerate"]
    per_feature = zip(
        doc["feature_names"], doc["decomposition"]["first_order"], scores["first_order"],
        doc["shap"]["values"], strict=True,
    )
    return [
        {
            "observation_index": doc["observation_index"],
            "feature": name,
            "reference_kind": doc["reference_kind"],
            "mode_index": "" if doc["mode_index"] is None else doc["mode_index"],
            "y_obs": doc["y_obs"],
            "y_ref": doc["y_ref"],
            "z": doc["z"],
            "z_m": "" if doc["z_m"] is None else doc["z_m"],
            "delta": delta,
            "score": "" if degenerate or score is None else score,
            "shap": shap,
            "degenerate": degenerate,
        }
        for name, delta, score, shap in per_feature
    ]


def read_report(path: str | Path) -> dict:
    """The report document in ``path``.  One whose schema is not the JSON
    integer ``REPORT_SCHEMA``, whose ``feature_names`` are not a list of
    strings, that ``report_rows`` cannot tabulate, or whose per-feature lists
    hold anything but JSON numbers is an IngestionError.  Null, the writer's
    NaN, is allowed only in a degenerate report's scores."""
    doc = _read_json(path)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if type(schema) is not int or schema != REPORT_SCHEMA:  # true == 1 in Python
        raise IngestionError(f"{path}: unsupported report schema")
    names = doc.get("feature_names")
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise IngestionError(f"{path}: feature_names must be a list of strings")
    try:
        report_rows(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"{path}: malformed report ({exc!r})") from exc
    for part, key in (("decomposition", "first_order"), ("scores", "first_order"),
                      ("shap", "values")):
        nullable = part == "scores" and doc["scores"]["degenerate"] is True
        entries = doc[part][key]
        # type, not isinstance: a JSON true is not a number here
        if not isinstance(entries, list) or not all(
            type(x) in (int, float) or (x is None and nullable) for x in entries
        ):
            raise IngestionError(f"{path}: {part}.{key} must be a list of numbers")
    return doc


def write_report_csv(path: Path, docs) -> int:
    """Write the ``report_rows`` of ``docs`` as one CSV; returns the row count."""
    rows = [row for doc in docs for row in report_rows(doc)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def load_synthetic_spec(path: str | Path) -> SyntheticSpec:
    return synthetic_spec_from_json(_read_json(path))


def river_fixture_path() -> Path:
    """Path of the bundled 20-row river-flow style fixture CSV.

    Columns h, hp, ww are upstream level/precipitation/wastewater style
    features; njr is the label, close to 1.2 h + 0.6 hp + 1.02 ww plus
    small noise, with a 16-row low cluster, a 3-row high cluster, and one
    row whose label sits almost exactly on the overall mean.
    """
    return Path(resources.files("devexplain") / "data" / "river_fixture.csv")


def trimodal_benchmark_spec() -> SyntheticSpec:
    """The three-feature trimodal benchmark generator used throughout the docs.

    Features share components 0.3 N(0,1) + 0.3 N(4,1) + 0.4 N(8, s^2) with
    s = 0.5, 0.75, 1.  Labels are the plain feature sum (no noise), so a
    linear fit recovers unit coefficients.
    """
    from .mixtures import GaussianMixture1D
    stds = (0.5, 0.75, 1.0)
    mixes = tuple(
        GaussianMixture1D(components=((0.3, 0.0, 1.0), (0.3, 4.0, 1.0), (0.4, 8.0, s * s)))
        for s in stds
    )
    return SyntheticSpec(feature_specs=mixes, label_noise_std=0.0)
