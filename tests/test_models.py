"""Linear and boosted-tree forward models, residual stats, serialization."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import devexplain
from devexplain import models
from devexplain.dataset import Dataset
from devexplain.errors import NumericalError, SingularFitError, ValidationError
from devexplain.models import (
    GbtModel,
    GbtParams,
    LinearModel,
    clamp_sigma_e_squared,
    fit_gbt,
    fit_linear,
    model_from_json,
    model_to_json,
    predict,
    residual_stats,
)


def tree_depth(tree) -> int:
    """Levels of splits on the longest root-to-leaf path of a ``_Tree``."""

    def walk(i: int) -> int:
        if tree.feature[i] < 0:
            return 0
        return 1 + max(walk(tree.left[i]), walk(tree.right[i]))

    return walk(0)


def linear_data(n: int = 50, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 2, size=(n, 2))
    y = 2.0 * x[:, 0] - x[:, 1] + 3.0
    return Dataset(features=x, labels=y, feature_names=("x0", "x1"))


class TestFitLinear:
    def test_exact_recovery(self):
        model = fit_linear(linear_data())
        assert model.intercept == pytest.approx(3.0, abs=1e-8)
        assert model.coefficients == pytest.approx([2.0, -1.0], abs=1e-8)

    def test_benchmark_unit_coefficients(self, linear_outlier):
        assert np.all(np.abs(linear_outlier.coefficients - 1.0) <= 0.02)
        assert abs(linear_outlier.intercept) <= 0.05

    def test_duplicate_column_names_culprit(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=40)
        data = Dataset(
            features=np.column_stack([col, col]),
            labels=rng.normal(size=40),
            feature_names=("a", "b"),
        )
        with pytest.raises(SingularFitError) as info:
            fit_linear(data)
        assert info.value.column == "b"

    def test_constant_column_collides_with_intercept(self):
        rng = np.random.default_rng(2)
        data = Dataset(
            features=np.column_stack([np.full(30, 7.0), rng.normal(size=30)]),
            labels=rng.normal(size=30),
            feature_names=("const", "x"),
        )
        with pytest.raises(SingularFitError) as info:
            fit_linear(data)
        assert info.value.column == "const"

    def test_needs_enough_rows(self):
        data = Dataset(
            features=[[1.0, 2.0], [3.0, 4.0]],
            labels=[1.0, 2.0],
            feature_names=("a", "b"),
        )
        with pytest.raises(ValidationError):
            fit_linear(data)

    def test_residual_orthogonality(self, synth10k):
        model = fit_linear(synth10k)
        resid = synth10k.labels - model.predict_batch(synth10k.features)
        # least squares leaves residuals orthogonal to every design column
        assert abs(resid.sum()) <= 1e-6 * synth10k.n
        assert np.all(np.abs(synth10k.features.T @ resid) <= 1e-5 * synth10k.n)


@st.composite
def linear_models(draw):
    d = draw(st.integers(1, 6))
    floats = st.floats(-1e3, 1e3)
    return LinearModel(
        intercept=draw(floats),
        coefficients=draw(st.lists(floats, min_size=d, max_size=d)),
    )


@st.composite
def gbt_models(draw):
    d = draw(st.integers(1, 4))
    doc, _ = random_gbt_doc(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 20)),
        draw(st.integers(0, 4)), 0.7, d, d, 10,
    )
    return model_from_json(doc)


class TestPredict:
    def test_linear_point(self):
        model = fit_linear(linear_data())
        assert predict(model, [1.0, 1.0]) == pytest.approx(4.0, abs=1e-8)

    def test_benchmark_point_value(self, linear_outlier):
        value = predict(linear_outlier, [7.97, 7.94, -0.11])
        assert value == pytest.approx(15.8, abs=0.05)

    def test_zero_tree_model_returns_base_score(self):
        data = linear_data(30, 3)
        model = fit_gbt(data, GbtParams(n_trees=0))
        assert predict(model, [5.0, -5.0]) == data.labels.mean()

    def test_scalar_and_batch_paths_agree_bitwise(self, gbt10k):
        rng = np.random.default_rng(4)
        xs = rng.normal(4, 3, size=(100, 3))
        # rows exactly at a split threshold, which x <= t sends left
        at_threshold = xs[:50].copy()
        for row, tree in zip(at_threshold, gbt10k.trees[::6]):
            node = rng.choice(np.flatnonzero(tree.feature >= 0))
            row[tree.feature[node]] = tree.threshold[node]
        # background rows with two features pinned, as the coalition values make them
        pinned = xs.copy()
        pinned[:, [0, 2]] = at_threshold[3, [0, 2]]
        xs = np.vstack([xs, at_threshold, pinned])
        batch = gbt10k.predict_batch(xs)
        singles = np.array([predict(gbt10k, x) for x in xs])
        assert np.array_equal(batch, singles)

    def test_input_validation(self, linear_outlier):
        with pytest.raises(ValidationError):
            predict(linear_outlier, [1.0, 2.0])
        with pytest.raises(ValidationError):
            predict(linear_outlier, [1.0, np.nan, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(
        model=st.one_of(linear_models(), gbt_models()),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 50),
        scale=st.floats(1e-3, 1e3),
    )
    @example(model=LinearModel(0.5, [1.0, -2.0, 3.0]), seed=0, n=50, scale=3.0)
    def test_batch_rows_are_one_row_predictions(self, model, seed, n, scale):
        # a row's value does not depend on the batch it is predicted in, nor
        # on the rows that repeat it or share its cell; 0.0 and -0.0 included
        rows = np.random.default_rng(seed).normal(0.0, scale, size=(n, model.d_x))
        zeros = np.zeros((2, model.d_x))
        zeros[1] = -0.0
        rows = np.vstack([rows, rows[: n // 2], zeros])
        batch, evaluated = cells_evaluated(model, rows)
        assert batch.tobytes() == np.array([model.predict_one(x) for x in rows]).tobytes()
        if isinstance(model, GbtModel):
            assert evaluated == [len(set(textbook_cells(model, rows)))] * n_blocks(model)


def random_gbt_doc(
    seed, n_trees, max_depth, split_prob, n_features, n_split, n_thresholds
):
    """A model document of random, often unbalanced trees.

    Splits use features 0..n_split-1 only, with thresholds from a pool of
    ``n_thresholds`` values (so trees share them) that may hold +-inf.
    """
    rng = np.random.default_rng(seed)
    pool = rng.normal(0, 1, size=n_thresholds)
    pool[rng.random(n_thresholds) < 0.1] = np.inf
    pool[rng.random(n_thresholds) < 0.1] = -np.inf

    def tree():
        arrays = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

        def grow(depth):
            node = len(arrays["feature"])
            for key in ("feature", "left", "right"):
                arrays[key].append(-1)
            arrays["threshold"].append(None)
            arrays["value"].append(float(rng.normal()))
            if depth < max_depth and rng.random() < split_prob:
                arrays["feature"][node] = int(rng.integers(n_split))
                arrays["threshold"][node] = float(rng.choice(pool))
                arrays["left"][node] = grow(depth + 1)
                arrays["right"][node] = grow(depth + 1)
            return node

        grow(0)
        return arrays

    return {
        "schema": 1,
        "kind": "gbt",
        "learning_rate": float(rng.uniform(0.01, 1.0)),
        "base_score": float(rng.normal(0, 10)),
        "n_features": n_features,
        "trees": [tree() for _ in range(n_trees)],
    }, pool


def textbook_cells(model, xs):
    """Each row's cell of the threshold grid: for every split feature, how
    many of its distinct thresholds send the row right (not x <= t)."""
    thresholds = {}
    for tree in model.trees:
        for f, t in zip(tree.feature.tolist(), tree.threshold.tolist()):
            if f >= 0:
                thresholds.setdefault(f, set()).add(t)
    return [
        tuple(sum(not row[f] <= t for t in thresholds[f]) for f in sorted(thresholds))
        for row in xs
    ]


def n_blocks(model) -> int:
    return -(-len(model.trees) // models._BLOCK_TREES)


def cells_evaluated(model, xs):
    """``model.predict_batch(xs)``, and the rows of every block's leaf lookup."""
    with mock.patch.object(models, "_exit_leaves", wraps=models._exit_leaves) as spy:
        out = model.predict_batch(xs)
    return out, [call.args[0].shape[0] for call in spy.call_args_list]


def textbook_predict(model, xs):
    """Per-tree descent, one row at a time; NaN fails x <= t and goes right."""
    out = np.full(len(xs), model.base_score)
    for tree in model.trees:
        leaf_values = []
        for row in xs:
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            leaf_values.append(tree.value[node])
        out += model.learning_rate * np.array(leaf_values)
    return out


class TestBatchEvaluator:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trees=st.integers(0, 40),
        max_depth=st.integers(0, 8),
        split_prob=st.floats(0.3, 1.0),
        n_split=st.integers(1, 3),
        n_unsplit=st.integers(0, 2),
        n_thresholds=st.integers(1, 30),
    )
    @example(seed=0, n_trees=0, max_depth=3, split_prob=1.0, n_split=2, n_unsplit=0,
             n_thresholds=5)
    # leaf-only trees in two blocks: one cell, whose leaves still count
    @example(seed=1, n_trees=20, max_depth=0, split_prob=1.0, n_split=2, n_unsplit=0,
             n_thresholds=5)
    # full depth-8 trees: 256 leaves, four 64-bit words per tree
    @example(seed=2, n_trees=3, max_depth=8, split_prob=1.0, n_split=3, n_unsplit=1,
             n_thresholds=5)
    def test_matches_textbook_walk(
        self, seed, n_trees, max_depth, split_prob, n_split, n_unsplit, n_thresholds
    ):
        n_features = n_split + n_unsplit
        doc, pool = random_gbt_doc(
            seed, n_trees, max_depth, split_prob, n_features, n_split, n_thresholds
        )
        model = model_from_json(doc)
        rng = np.random.default_rng(seed + 1)
        xs = rng.normal(0, 1.5, size=(40, n_features))
        # exactly at thresholds, infinite, NaN, and pinned constant columns
        xs[:10] = rng.choice(pool, size=(10, n_features))
        xs[10:20][rng.random((10, n_features)) < 0.3] = np.inf
        xs[20:30][rng.random((10, n_features)) < 0.3] = -np.inf
        xs[30:35][rng.random((5, n_features)) < 0.3] = np.nan
        pinned = xs.copy()
        pinned[:, rng.random(n_features) < 0.5] = xs[0, 0]
        # repeated rows, rows moved inside their cell, and both signed zeros
        nudged = np.nextafter(xs[:20], -np.inf)
        zeros = np.zeros((2, n_features))
        zeros[1] = -0.0
        xs = np.vstack([xs, pinned, xs[:10], nudged, zeros])
        got, evaluated = cells_evaluated(model, xs)
        assert np.array_equal(got, textbook_predict(model, xs))
        # each distinct cell once per block; a leaf-only ensemble is one cell
        assert evaluated == [len(set(textbook_cells(model, xs)))] * n_blocks(model)


def stump(feature, threshold, left, right):
    return {"feature": [feature, -1, -1], "threshold": [threshold, None, None],
            "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, left, right]}


class TestCells:
    """predict_batch evaluates each distinct cell of the threshold grid once."""

    def test_cell_edges(self):
        # feature 0 splits at 0 and at +inf: x <= 0 (both zeros, -inf), then
        # 0 < x (+inf too, as inf <= inf), then NaN, which goes right at both
        model = model_from_json({
            "schema": 1, "kind": "gbt", "learning_rate": 0.5, "base_score": 1.0,
            "n_features": 2,
            "trees": [stump(0, 0.0, -1.0, 2.0), stump(0, math.inf, 4.0, 8.0)],
        })
        xs = np.array([
            [-1.0, 7.0], [-0.0, 3.0], [0.0, -2.0], [-np.inf, 0.0], [-0.0, 3.0],
            [0.5, 1.0], [1e300, 9.0], [np.inf, 0.0], [5e-324, 1.0], [np.nan, 0.0],
        ])
        got, evaluated = cells_evaluated(model, xs)
        assert evaluated == [3]
        assert got.tolist() == [2.5] * 5 + [4.0] * 4 + [6.0]
        assert np.array_equal(got, textbook_predict(model, xs))

    @pytest.mark.parametrize("source", ["resampled", "prior"])
    def test_pinned_batches_evaluate_each_cell_once(self, source, synth10k, exact_priors):
        # the coalition values' batches: 400 rows resampled from 40 repeat
        # rows; 400 prior draws repeat none, yet share cells
        data = Dataset(features=synth10k.features[:300], labels=synth10k.labels[:300],
                       feature_names=synth10k.feature_names)
        model = fit_gbt(data, GbtParams(n_trees=20, max_depth=3))
        rng = np.random.default_rng(6)
        points = (data.features[rng.integers(0, 40, size=400)] if source == "resampled"
                  else exact_priors.sample(rng, 400))
        x = synth10k.features[17]
        counts = []
        for size in range(4):
            for c in itertools.combinations(range(3), size):
                pinned = points.copy()
                pinned[:, list(c)] = x[list(c)]
                got, evaluated = cells_evaluated(model, pinned)
                cells = len(set(textbook_cells(model, pinned)))
                assert evaluated == [cells] * n_blocks(model)
                assert np.array_equal(got, textbook_predict(model, pinned))
                counts.append((cells, len({row.tobytes() for row in pinned})))
        # the plain batch: fewer cells than distinct rows; the full coalition: one cell
        assert counts[0][0] < counts[0][1]
        assert counts[-1] == (1, 1)


def textbook_best_split(xs, rs, min_leaf):
    """Max variance-reduction threshold for one feature, or None.

    ``xs`` is the node's column sorted ascending, ties in row order, and
    ``rs`` the residuals in that order.  Returns (gain, threshold); among
    equal gains the lowest threshold wins because argmax takes the first of
    the sorted candidates.
    """
    n = xs.size
    if n < 2 * min_leaf:
        return None
    prefix = np.cumsum(rs)
    total = prefix[-1]
    sizes = np.arange(1, n)  # left-child sizes for a cut after position i-1
    valid = (xs[:-1] < xs[1:]) & (sizes >= min_leaf) & (n - sizes >= min_leaf)
    if not valid.any():
        return None
    left_sum = prefix[:-1]
    # SSE reduction = S_L^2/n_L + S_R^2/n_R - S^2/n, constant term dropped
    score = left_sum**2 / sizes + (total - left_sum) ** 2 / (n - sizes)
    score[~valid] = -np.inf
    best = int(np.argmax(score))
    gain = float(score[best] - total**2 / n)
    if gain <= 0:
        return None
    threshold = float((xs[best] + xs[best + 1]) / 2.0)
    return gain, threshold


def textbook_grow_tree(columns, orders, residual, params):
    """The textbook grower: one split search per (node, feature).

    ``columns`` is the features transposed and ``orders[f]`` the stable
    argsort of ``columns[f]``; each node keeps, per feature, its rows in that
    order.  Returns the tree's (feature, threshold, left, right, value)
    arrays, in preorder, and its value at every training row.
    """
    fitted = np.empty(columns.shape[1])
    nodes = []
    in_left = np.empty(columns.shape[1], dtype=bool)

    def build(idx, sorted_idx, depth):
        node = len(nodes)
        nodes.append([-1, math.nan, -1, -1, float(residual[idx].mean())])
        best = None
        if depth < params.max_depth:
            for f, order in enumerate(sorted_idx):  # lowest feature index wins ties
                cand = textbook_best_split(
                    columns[f, order], residual[order], params.min_samples_leaf
                )
                if cand is not None and (best is None or cand[0] > best[1]):
                    best = (f, cand[0], cand[1])
        if best is None:
            fitted[idx] = nodes[node][4]
            return node
        f, _, thr = best
        go_left = columns[f, idx] <= thr
        nodes[node][:2] = f, thr
        in_left[idx] = go_left
        left_sorted = [order[in_left[order]] for order in sorted_idx]
        right_sorted = [order[~in_left[order]] for order in sorted_idx]
        nodes[node][2] = build(idx[go_left], left_sorted, depth + 1)
        nodes[node][3] = build(idx[~go_left], right_sorted, depth + 1)
        return node

    build(np.arange(columns.shape[1]), list(orders), 0)
    feature, threshold, left, right, value = zip(*nodes)
    arrays = (
        np.array(feature, dtype=np.intp), np.array(threshold),
        np.array(left, dtype=np.intp), np.array(right, dtype=np.intp), np.array(value),
    )
    return arrays, fitted


class TestGrowerOracle:
    """fit_gbt grows every tree as the textbook grower does, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        d=st.integers(1, 4),
        ties=st.booleans(),
        constant=st.booleans(),
        max_depth=st.integers(1, 5),
        min_leaf=st.integers(1, 8),
    )
    @example(seed=0, n=60, d=4, ties=True, constant=True, max_depth=5, min_leaf=1)
    @example(seed=1, n=60, d=3, ties=False, constant=False, max_depth=3, min_leaf=8)
    def test_trees_and_fitted_values_match(
        self, seed, n, d, ties, constant, max_depth, min_leaf
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 2.0, size=(n, d))
        if ties:
            x = np.round(x, 1)
        if constant:
            x[:, rng.integers(d)] = 0.5
        y = np.round(x[:, 0] ** 2 + rng.normal(size=n), 2)
        data = Dataset(features=x, labels=y, feature_names=tuple(f"x{i}" for i in range(d)))
        params = GbtParams(
            n_trees=3, max_depth=max_depth, learning_rate=0.5,
            min_samples_leaf=min(min_leaf, n // 2),
        )
        grown = []

        def spy(*args):
            grown.append(grow(*args))
            return grown[-1]

        grow = models._grow_tree
        with mock.patch.object(models, "_grow_tree", spy):
            model = fit_gbt(data, params)
        assert len(grown) == len(model.trees)
        assert all(tree is kept for (tree, _), kept in zip(grown, model.trees))
        columns = np.ascontiguousarray(x.T)
        orders = np.argsort(columns, axis=1, kind="stable")
        residual = y - model.base_score
        for tree, fitted in grown:
            arrays, want_fitted = textbook_grow_tree(columns, orders, residual, params)
            got = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
            for a, b in zip(got, arrays):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert fitted.tobytes() == want_fitted.tobytes()
            residual = residual - params.learning_rate * want_fitted


class TestFitGbt:
    def test_single_stump_fits_step(self):
        x = np.linspace(-1, 1, 40).reshape(-1, 1)
        y = (x[:, 0] >= 0).astype(float)
        data = Dataset(features=x, labels=y, feature_names=("x",))
        model = fit_gbt(data, GbtParams(n_trees=1, max_depth=1, learning_rate=1.0))
        assert np.allclose(model.predict_batch(x), y)

    def test_benchmark_train_r2(self, synth10k, gbt10k):
        stats = residual_stats(gbt10k, synth10k)
        assert stats.r_squared_train >= 0.95

    def test_sse_non_increasing_in_trees(self, synth10k, gbt10k):
        # prefix models share the fitted trees, so SSE must fall monotonically
        sse = []
        for m in (1, 10, 50, 200):
            prefix = GbtModel(
                trees=gbt10k.trees[:m],
                learning_rate=gbt10k.learning_rate,
                base_score=gbt10k.base_score,
                n_features=gbt10k.n_features,
            )
            resid = synth10k.labels - prefix.predict_batch(synth10k.features)
            sse.append(float(resid @ resid))
        assert all(b <= a for a, b in zip(sse, sse[1:]))

    def test_depth_cap(self, synth10k):
        model = fit_gbt(synth10k, GbtParams(n_trees=5, max_depth=2))
        assert all(tree_depth(tree) <= 2 for tree in model.trees)

    def test_min_samples_leaf_limits_depth(self):
        data = linear_data(20, 5)
        # a 10-per-side floor allows the root split but nothing below it
        model = fit_gbt(data, GbtParams(n_trees=3, min_samples_leaf=10))
        assert all(tree_depth(tree) <= 1 for tree in model.trees)

    def test_too_few_rows_for_leaf_floor(self):
        data = linear_data(20, 5)
        with pytest.raises(ValidationError):
            fit_gbt(data, GbtParams(n_trees=3, min_samples_leaf=20))

    def test_tie_breaks_to_lowest_feature(self):
        rng = np.random.default_rng(6)
        col = rng.normal(size=50)
        y = np.where(col > 0, 1.0, -1.0)
        data = Dataset(
            features=np.column_stack([col, col]),
            labels=y,
            feature_names=("a", "b"),
        )
        model = fit_gbt(data, GbtParams(n_trees=1, max_depth=1))
        assert model.trees[0].feature[0] == 0

    def test_needs_enough_rows(self):
        data = Dataset(features=[[1.0]], labels=[1.0], feature_names=("a",))
        with pytest.raises(ValidationError):
            fit_gbt(data, GbtParams(min_samples_leaf=1))

    def test_needs_a_feature_column(self):
        # a label-only table has no split to grow; the linear fit keeps its intercept
        data = Dataset(features=np.empty((5, 0)), labels=[1.0, 2.0, 3.0, 4.0, 5.0],
                       feature_names=())
        with pytest.raises(ValidationError, match="need at least one feature column"):
            fit_gbt(data, GbtParams(n_trees=2))
        model = fit_linear(data)
        assert model.intercept == pytest.approx(3.0)
        assert model.coefficients.shape == (0,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": -1},
            {"n_trees": 1, "max_depth": 0},
            {"learning_rate": 0.0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"min_samples_leaf": 0},
        ],
    )
    def test_param_validation(self, kwargs):
        with pytest.raises(ValidationError):
            GbtParams(**kwargs)

    @pytest.mark.parametrize(
        "lr, tree",
        # 1e308 overflows the first residual update, 1e160 the second tree's
        # squared sums
        [(1e308, 1), (1e160, 2)],
    )
    def test_overflowing_learning_rate_is_numerical_error(self, lr, tree):
        params = GbtParams(n_trees=3, max_depth=2, learning_rate=lr)
        with pytest.raises(NumericalError, match=f"^boosting overflowed at tree {tree}: "):
            fit_gbt(linear_data(), params)


class TestResidualStats:
    def test_perfect_fit(self):
        data = linear_data()
        model = fit_linear(data)
        stats = residual_stats(model, data)
        assert stats.sigma_e_squared <= 1e-16
        assert stats.r_squared_train == pytest.approx(1.0, abs=1e-12)

    def test_constant_model_on_two_labels(self):
        data = Dataset(
            features=[[0.0], [1.0]], labels=[0.0, 2.0], feature_names=("a",)
        )
        model = fit_gbt(data, GbtParams(n_trees=0))
        stats = residual_stats(model, data)
        assert stats.sigma_e_squared == 1.0
        assert stats.r_squared_train == 0.0

    def test_test_split_reported(self, synth10k, linear_outlier):
        stats = residual_stats(linear_outlier, synth10k, synth10k)
        assert stats.r_squared_test == pytest.approx(stats.r_squared_train)

    def test_zero_variance_labels(self):
        data = Dataset(
            features=[[0.0], [1.0]], labels=[3.0, 3.0], feature_names=("a",)
        )
        model = fit_gbt(data, GbtParams(n_trees=0))
        with pytest.raises(NumericalError):
            residual_stats(model, data)


class TestClampSigma:
    def test_passthrough_above_floor(self):
        labels = np.array([0.0, 1.0, 2.0])
        assert clamp_sigma_e_squared(0.5, labels) == 0.5

    def test_perfect_fit_clamped(self):
        labels = np.array([0.0, 1.0, 2.0])
        expected = 1e-12 * labels.var()
        assert clamp_sigma_e_squared(0.0, labels) == expected

    def test_zero_variance_labels_rejected(self):
        with pytest.raises(NumericalError):
            clamp_sigma_e_squared(0.0, np.ones(5))


class TestModelJson:
    def test_linear_roundtrip(self, linear_outlier):
        again = model_from_json(model_to_json(linear_outlier))
        assert again.intercept == linear_outlier.intercept
        assert np.array_equal(again.coefficients, linear_outlier.coefficients)

    def test_gbt_roundtrip_preserves_predictions(self, gbt10k, synth10k):
        again = model_from_json(model_to_json(gbt10k))
        xs = synth10k.features[:200]
        assert np.array_equal(again.predict_batch(xs), gbt10k.predict_batch(xs))

    def test_leaf_thresholds_serialize_as_null(self, gbt10k):
        doc = model_to_json(gbt10k)
        tree0 = doc["trees"][0]
        for feat, thr in zip(tree0["feature"], tree0["threshold"]):
            assert (feat == -1) == (thr is None)

    def test_infinite_thresholds_survive_a_reload(self):
        doc, _ = random_gbt_doc(
            seed=0, n_trees=20, max_depth=4, split_prob=0.8, n_features=3,
            n_split=3, n_thresholds=8,
        )
        thresholds = {t for tree in doc["trees"] for t in tree["threshold"]}
        assert {np.inf, -np.inf, None} <= thresholds
        model = model_from_json(doc)
        text = json.dumps(model_to_json(model), sort_keys=True)
        assert model_to_json(model_from_json(json.loads(text))) == doc

    def test_schema_guard(self):
        with pytest.raises(ValidationError):
            model_from_json({"schema": 99, "kind": "linear"})

    @pytest.mark.parametrize(
        "field, index, bad",
        [
            ("left", 0, 0),  # node 0 is its own child: predict would loop forever
            ("right", 1, 0),  # a leaf with a child
            ("right", 0, 1),  # node 1 has two parents
            ("left", 0, 3),  # child index out of range
            ("feature", 0, 7),
            ("feature", 0, -2),
            ("value", None, None),  # shortened array
            ("threshold", 0, None),  # null threshold at a split
        ],
        ids=["cycle", "leaf-child", "two-parents", "child-out-of-range",
             "feature-too-large", "feature-negative", "short-value",
             "null-split-threshold"],
    )
    def test_malformed_tree_rejected(self, field, index, bad):
        tree = {"feature": [1, -1, -1], "threshold": [0.5, None, None],
                "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -1.0, 1.0]}
        if index is None:
            tree[field].pop()
        else:
            tree[field][index] = bad
        doc = {"schema": 1, "kind": "gbt", "learning_rate": 0.1, "base_score": 0.0,
               "n_features": 3, "trees": [tree]}
        with pytest.raises(ValidationError, match="tree 0: "):
            model_from_json(doc)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            model_from_json({"schema": 1, "kind": "forest"})

    def test_first_bad_tree_is_named(self):
        # tree 1 has an out-of-range feature, tree 2 a cycle, tree 3 is short
        doc, _ = random_gbt_doc(
            seed=3, n_trees=5, max_depth=2, split_prob=1.0, n_features=2, n_split=2,
            n_thresholds=4,
        )
        doc["trees"][1]["feature"][0] = 5
        doc["trees"][2]["left"][0] = 0
        doc["trees"][3]["value"].pop()
        with pytest.raises(ValidationError, match=r"^tree 1: a split feature is outside"):
            model_from_json(doc)
        doc["trees"][1]["feature"][0] = 0
        with pytest.raises(ValidationError, match=r"^tree 2: a child index"):
            model_from_json(doc)
        doc["trees"][2]["left"][0] = 1
        with pytest.raises(ValidationError, match=r"^tree 3: the tree's arrays"):
            model_from_json(doc)
        # arrays of one shape that is not a plain list
        doc["trees"][3]["value"].append(0.0)
        doc["trees"][4] = {k: [[v] for v in column] for k, column in doc["trees"][4].items()}
        with pytest.raises(ValidationError, match=r"^tree 4: the tree's arrays"):
            model_from_json(doc)


def test_gbt_fit_predict_and_reload_never_import_numpy_ma():
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "print('numpy.ma' in sys.modules)\n"
        "from devexplain.dataset import Dataset\n"
        "from devexplain.models import GbtParams, fit_gbt, model_from_json, model_to_json\n"
        "rng = np.random.default_rng(0)\n"
        "x = rng.normal(size=(80, 3))\n"
        "data = Dataset(features=x, labels=x[:, 0] - x[:, 1], feature_names=('a', 'b', 'c'))\n"
        "model = fit_gbt(data, GbtParams(n_trees=10))\n"
        "again = model_from_json(json.loads(json.dumps(model_to_json(model))))\n"
        "assert np.array_equal(again.predict_batch(x), model.predict_batch(x))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(devexplain.__file__).resolve().parents[1])},
    )
    with_numpy, after = out.stdout.split()
    if with_numpy == "True":
        pytest.skip(f"numpy {np.__version__} imports numpy.ma with numpy itself")
    assert after == "False"
