"""Forward models f(x): linear least squares and boosted regression trees.

Both model kinds share a tiny protocol (``d_x``, batch prediction) so the
inverse-search and decomposition code never branches on kind except where
smoothness matters.  Residual statistics feed the likelihood; a perfect fit
is clamped away from sigma_e = 0 so the log-likelihood stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, _frozen_array, _json_doc, _read_json
from .errors import NumericalError, SingularFitError, ValidationError

_RANK_TOL = 1e-10
_SIGMA_CLAMP_FRAC = 1e-12

MODEL_SCHEMA = 1


def _dot(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """theta . v for every row v, each bitwise ``theta @ v`` (a stacked
    1 x d by d x 1 product; ``rows @ theta`` sums in another order)."""
    return (rows[:, None, :] @ theta[:, None])[:, 0, 0]


@dataclass(frozen=True)
class LinearModel:
    """f(x) = intercept + coefficients . x; a row's value never depends on its batch."""

    intercept: float
    coefficients: np.ndarray

    kind = "linear"

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen_array(np.reshape(self.coefficients, -1)))

    @property
    def d_x(self) -> int:
        return self.coefficients.size

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + _dot(x, self.coefficients)

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])


@dataclass(frozen=True)
class _Tree:
    """Axis-aligned regression tree in flat arrays; feature -1 marks a leaf.

    Children come after their parent, so index order is a topological order.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def depth(self) -> int:
        def walk(i: int) -> int:
            if self.feature[i] < 0:
                return 0
            return 1 + max(walk(self.left[i]), walk(self.right[i]))

        return walk(0)

    def leaf_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, count): leaves are numbered left to right; node i's subtree
        holds leaves first[i] .. first[i] + count[i] - 1."""
        feature = self.feature.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        n = len(feature)
        count = [1] * n
        for i in range(n - 1, -1, -1):
            if feature[i] >= 0:
                count[i] = count[left[i]] + count[right[i]]
        first = [0] * n
        for i in range(n):
            if feature[i] >= 0:
                first[left[i]] = first[i]
                first[right[i]] = first[i] + count[left[i]]
        return np.array(first, dtype=np.intp), np.array(count, dtype=np.intp)


# Trees per block of the batch evaluator: it bounds the (rows, trees, bytes)
# temporaries of predict_batch.
_BLOCK_TREES = 16
# _LOWEST_BIT[b]: index of the lowest set bit of the byte b > 0
_LOWEST_BIT = np.array(
    [0] + [(b & -b).bit_length() - 1 for b in range(1, 256)], dtype=np.uint8
)


def _threshold_tables(trees: tuple[_Tree, ...], learning_rate: float):
    """Tables for the bitmask traversal of QuickScorer (Lucchese et al. 2015).

    A row goes right at a node exactly when the node's threshold is below its
    value (``not x <= t``, also for NaN), and that rules out every leaf of the
    node's left subtree.  Leaves are numbered left to right, one bit each; a
    row's exit leaf is the lowest bit left once the masks of all the nodes it
    goes right at are ANDed, whether they are on its path or not.

    Returns ``(features, blocks)``: ``features`` holds (feature, sorted
    distinct split thresholds of the ensemble) for each split feature, and
    ``blocks`` one ``_block_tables`` per ``_BLOCK_TREES`` trees.
    """
    if not trees:
        return (), ()
    feature = np.concatenate([t.feature[t.feature >= 0] for t in trees])
    threshold = np.concatenate([t.threshold[t.feature >= 0] for t in trees])
    features = tuple(
        (int(f), np.unique(threshold[feature == f])) for f in np.unique(feature)
    )
    blocks = tuple(
        _block_tables(trees[i : i + _BLOCK_TREES], features, learning_rate)
        for i in range(0, len(trees), _BLOCK_TREES)
    )
    return features, blocks


def _block_tables(trees: tuple[_Tree, ...], features, learning_rate: float):
    """``(splits, scaled)`` for one block of trees.

    Each tree's mask is ``scaled.shape[1] // 8`` bytes, leaf j at bit j % 8
    of byte j // 8.  ``splits`` has one ``(position, rank, table)`` per entry
    of ``features`` that the block splits on: a row with k of that feature's
    ensemble thresholds below its value has ``rank[k]`` of the block's below
    it, and ``table[rank[k]]`` holds each tree's AND of their masks.
    ``scaled[t, j]`` is learning_rate times the value of tree t's leaf j.
    """
    numbering = [tree.leaf_numbers() for tree in trees]
    n_bytes = -(-max(int(count[0]) for _, count in numbering) // 8)
    scaled = np.zeros((len(trees), 8 * n_bytes))
    slot, feature, threshold, lo, hi = [], [], [], [], []
    for j, (tree, (first, count)) in enumerate(zip(trees, numbering)):
        leaf = tree.feature < 0
        scaled[j, first[leaf]] = learning_rate * tree.value[leaf]
        inner = np.flatnonzero(~leaf)
        slot.append(np.full(inner.size, j))
        feature.append(tree.feature[inner])
        threshold.append(tree.threshold[inner])
        lo.append(first[inner])
        hi.append(first[inner] + count[tree.left[inner]])
    slot, feature, threshold, lo, hi = map(
        np.concatenate, (slot, feature, threshold, lo, hi)
    )
    leaf_no = np.arange(8 * n_bytes)
    reach = (leaf_no < lo[:, None]) | (leaf_no >= hi[:, None])
    masks = np.packbits(reach, axis=1, bitorder="little")
    splits = []
    for position, (f, ensemble_thresholds) in enumerate(features):
        at = np.flatnonzero(feature == f)
        if at.size == 0:
            continue
        at = at[np.argsort(threshold[at])]
        table = np.full((at.size + 1, len(trees), n_bytes), 0xFF, dtype=np.uint8)
        table[np.arange(1, at.size + 1), slot[at]] = masks[at]
        np.bitwise_and.accumulate(table, axis=0, out=table)
        rank = np.searchsorted(threshold[at], ensemble_thresholds, side="right")
        # the narrowest type: these maps are most of the tables' memory
        rank = np.concatenate([[0], rank]).astype(np.min_scalar_type(at.size))
        splits.append((position, rank, table))
    return tuple(splits), scaled


def _exit_leaves(reach: np.ndarray) -> np.ndarray:
    """Number of the lowest set bit of each (row, tree) over its mask bytes."""
    leaves = None
    for k in range(reach.shape[2] - 1, -1, -1):
        byte = reach[..., k]
        # uint8 + a Python int above 255 overflows, so add the offset as intp
        at = _LOWEST_BIT[byte] if k == 0 else _LOWEST_BIT[byte] + np.intp(8 * k)
        leaves = at if leaves is None else np.where(byte != 0, at, leaves)
    return leaves


@dataclass(frozen=True)
class GbtParams:
    n_trees: int = 300
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValidationError("n_trees must be >= 0")
        if self.n_trees > 0 and self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1")
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be positive")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")


@dataclass(frozen=True)
class GbtModel:
    """Stagewise squared-loss boosting: base_score + lr * sum of tree outputs."""

    trees: tuple[_Tree, ...]
    learning_rate: float
    base_score: float
    n_features: int

    kind = "gbt"

    @property
    def d_x(self) -> int:
        return self.n_features

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        # leaf values are added one tree after another, in tree order, so the
        # sum is the per-tree descent's to the last bit
        out = np.full(x.shape[0], self.base_score)
        features, blocks = self._tables()
        ranks = [np.searchsorted(thr, x[:, f], side="left") for f, thr in features]
        for splits, scaled in blocks:
            n_trees, n_leaves = scaled.shape
            reach = np.full((x.shape[0], n_trees, n_leaves // 8), 0xFF, dtype=np.uint8)
            for position, rank, table in splits:
                reach &= np.take(table, rank[ranks[position]], axis=0)
            for values, leaves in zip(scaled, _exit_leaves(reach).T):
                out += np.take(values, leaves)
        return out

    def _tables(self):
        # built once per model: predict_batch and the MAP search's cells read them
        cache = getattr(self, "_table_cache", None)
        if cache is None:
            cache = _threshold_tables(self.trees, self.learning_rate)
            object.__setattr__(self, "_table_cache", cache)
        return cache

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])


PredictiveModel = LinearModel | GbtModel


def fit_linear(train: Dataset) -> LinearModel:
    """Least-squares fit of intercept + theta . x via QR on [1 | X].

    Raises
    ------
    SingularFitError
        If the design matrix is rank deficient; the error names the first
        column (intercept or feature) that is linearly dependent on the
        columns before it.
    """
    if train.n <= train.d_x:
        raise ValidationError(
            f"need more than d_x={train.d_x} observations, got {train.n}"
        )
    design = np.column_stack([np.ones(train.n), train.features])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    bad = np.flatnonzero(diag <= _RANK_TOL * diag.max())
    if bad.size:
        j = int(bad[0])
        column = "intercept" if j == 0 else train.feature_names[j - 1]
        raise SingularFitError(
            f"design matrix is rank deficient at column {column!r}", column=column
        )
    c = q.T @ train.labels
    beta = np.empty_like(c)
    for j in range(c.size - 1, -1, -1):  # back-substitution, one row of R at a time
        beta[j] = (c[j] - r[j, j + 1 :] @ beta[j + 1 :]) / r[j, j]
    return LinearModel(intercept=float(beta[0]), coefficients=beta[1:])


def _best_split(xs: np.ndarray, rs: np.ndarray, min_leaf: int):
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


def _grow_tree(
    columns: np.ndarray, orders: np.ndarray, residual: np.ndarray, params: GbtParams
) -> tuple[_Tree, np.ndarray]:
    """One tree fitted to ``residual``, and its value at every training row.

    ``columns`` is the features transposed (one row per feature) and
    ``orders[f]`` the stable argsort of ``columns[f]``.  Each node keeps,
    per feature, its rows in that order: the stable filter of its parent's,
    so no node sorts again.
    """
    n = columns.shape[1]
    fitted = np.empty(n)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    in_left = np.empty(n, dtype=bool)

    def add_node() -> int:
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(idx: np.ndarray, sorted_idx: list, depth: int) -> int:
        node = add_node()
        value[node] = float(residual[idx].mean())
        best = None
        if depth < params.max_depth:
            for f, order in enumerate(sorted_idx):  # lowest feature index wins ties
                cand = _best_split(
                    columns[f, order], residual[order], params.min_samples_leaf
                )
                if cand is not None and (best is None or cand[0] > best[1]):
                    best = (f, cand[0], cand[1])
        if best is None:
            fitted[idx] = value[node]
            return node
        f, _, thr = best
        go_left = columns[f, idx] <= thr
        feature[node] = f
        threshold[node] = thr
        in_left[idx] = go_left
        left_sorted, right_sorted = [], []
        for order in sorted_idx:
            mask = in_left[order]
            left_sorted.append(order[mask])
            right_sorted.append(order[~mask])
        left[node] = build(idx[go_left], left_sorted, depth + 1)
        right[node] = build(idx[~go_left], right_sorted, depth + 1)
        return node

    build(np.arange(n), list(orders), 0)
    tree = _Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value),
    )
    return tree, fitted


def fit_gbt(train: Dataset, params: GbtParams = GbtParams()) -> GbtModel:
    """Gradient-boosted trees for squared loss.

    base_score is the label mean; each tree greedily fits the current
    residuals by variance reduction with midpoint thresholds, ties broken
    by lowest feature index then lowest threshold.
    """
    if train.n < 2 * params.min_samples_leaf:
        raise ValidationError(
            f"need at least {2 * params.min_samples_leaf} observations"
        )
    base = float(train.labels.mean())
    residual = train.labels - base
    # the columns never change, so each is sorted once per fit
    columns = np.ascontiguousarray(train.features.T)
    orders = np.argsort(columns, axis=1, kind="stable")
    trees = []
    for _ in range(params.n_trees):
        tree, fitted = _grow_tree(columns, orders, residual, params)
        residual = residual - params.learning_rate * fitted
        trees.append(tree)
    return GbtModel(
        trees=tuple(trees),
        learning_rate=params.learning_rate,
        base_score=base,
        n_features=train.d_x,
    )


def predict(model: PredictiveModel, x) -> float:
    """Evaluate f at one feature vector."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != model.d_x:
        raise ValidationError(f"x has {x.size} entries, model expects {model.d_x}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("x contains non-finite entries")
    return model.predict_one(x)


@dataclass(frozen=True)
class ResidualStats:
    sigma_e_squared: float
    r_squared_train: float
    r_squared_test: float | None = None


def _r_squared(pred: np.ndarray, data: Dataset) -> float:
    sse = float(np.sum((data.labels - pred) ** 2))
    sst = float(np.sum((data.labels - data.labels.mean()) ** 2))
    if sst == 0:
        raise NumericalError("labels have zero variance; R^2 is undefined")
    return 1.0 - sse / sst


def residual_stats(
    model: PredictiveModel, train: Dataset, test: Dataset | None = None
) -> ResidualStats:
    """sigma_e^2 = mean squared training residual; R^2 per split."""
    if train.n == 0:
        raise ValidationError("train set is empty")
    if train.d_x != model.d_x:
        raise ValidationError("train d_x does not match model")
    pred = model.predict_batch(train.features)
    sigma2 = float(np.mean((pred - train.labels) ** 2))
    return ResidualStats(
        sigma_e_squared=sigma2,
        r_squared_train=_r_squared(pred, train),
        r_squared_test=None
        if test is None
        else _r_squared(model.predict_batch(test.features), test),
    )


def clamp_sigma_e_squared(sigma_e_squared: float, labels) -> float:
    """Likelihood-ready variance: max(sigma_e^2, 1e-12 * Var(y)).

    A perfect fit would make the likelihood term infinitely sharp; the clamp
    keeps the objective finite while still forcing f(x) ~= y_target at any
    realistic prior scale.
    """
    label_var = float(np.asarray(labels, dtype=float).var())
    if label_var <= 0:
        raise NumericalError("labels have zero variance; cannot scale likelihood")
    return max(float(sigma_e_squared), _SIGMA_CLAMP_FRAC * label_var)


def _tree_from_json(doc: dict, n_features: int, index: int) -> _Tree:
    tree = _Tree(
        feature=np.array(doc["feature"], dtype=np.intp),
        threshold=np.array(
            [math.nan if t is None else float(t) for t in doc["threshold"]]
        ),
        left=np.array(doc["left"], dtype=np.intp),
        right=np.array(doc["right"], dtype=np.intp),
        value=np.array(doc["value"], dtype=float),
    )
    problem = _tree_problem(tree, n_features)
    if problem:
        raise ValidationError(f"tree {index}: {problem}")
    return tree


def _tree_problem(tree: _Tree, n_features: int) -> str | None:
    """Why ``tree`` is not a binary tree rooted at node 0, or None.

    Children must come after their parent (so no path cycles) and every node
    but the root must be the child of exactly one node.
    """
    n = tree.feature.size
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if n == 0 or any(a.shape != (n,) for a in arrays):
        return "the tree's arrays must be non-empty and of equal length"
    leaf = tree.feature == -1
    if np.any(tree.left[leaf] != -1) or np.any(tree.right[leaf] != -1):
        return "a leaf (feature -1) has a child"
    inner = np.flatnonzero(~leaf)
    children = np.concatenate([tree.left[inner], tree.right[inner]])
    if np.any(children <= np.tile(inner, 2)) or np.any(children >= n):
        return "a child index is out of range or not after its parent"
    if not np.array_equal(np.sort(children), np.arange(1, n)):
        return "a node other than the root is not the child of exactly one node"
    if np.any(tree.feature[inner] >= n_features) or np.any(tree.feature[inner] < 0):
        return f"a split feature is outside [0, {n_features})"
    # an infinite threshold is still a split (x <= t is defined); NaN is not
    if np.any(np.isnan(tree.threshold[inner])):
        return "a split threshold is null or NaN"
    if not np.all(np.isfinite(tree.value[leaf])):
        return "a leaf value is not finite"
    return None


def model_to_json(model: PredictiveModel) -> dict:
    return {"schema": MODEL_SCHEMA, "kind": model.kind, **_json_doc(model)}


def _finite(value, name: str):
    """``value`` unchanged, unless it holds NaN or +-Infinity (which
    Python's json reads)."""
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"model field {name!r} is not finite")
    return value


def model_from_json(doc: dict) -> PredictiveModel:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != MODEL_SCHEMA:
        raise ValidationError(f"unsupported model schema {schema!r}")
    kind = doc.get("kind")
    try:
        if kind == "linear":
            return LinearModel(
                intercept=_finite(float(doc["intercept"]), "intercept"),
                coefficients=_finite(
                    np.array(doc["coefficients"], dtype=float), "coefficients"
                ),
            )
        if kind == "gbt":
            n_features = int(doc["n_features"])
            return GbtModel(
                trees=tuple(
                    _tree_from_json(t, n_features, i)
                    for i, t in enumerate(doc["trees"])
                ),
                learning_rate=_finite(float(doc["learning_rate"]), "learning_rate"),
                base_score=_finite(float(doc["base_score"]), "base_score"),
                n_features=n_features,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad {kind} model document: {exc!r}") from exc
    raise ValidationError(f"unknown model kind {kind!r}")


def load_model(path: str | Path) -> PredictiveModel:
    return model_from_json(_read_json(path))
