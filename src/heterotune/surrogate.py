"""Boosted regression tree surrogate for configuration performance models.

The model is an AdaBoost.R2 ensemble of CART regression trees fitted on
weighted bootstrap resamples. Split search minimizes the sum of squared
errors over (feature, midpoint-threshold) candidates; stage weights
are log(1/beta) with beta derived from the max-normalized linear loss, and
prediction is the weighted median of the stage predictions.

Trees grow a depth at a time, deterministically and invariant to row order:
candidate splits are evaluated in a canonical per-node ordering and ties are
broken by the lowest feature index, then the lowest threshold.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, asdict
from typing import Any, Callable, Generator, Sequence

import numpy as np

from ._documents import exact, failures_as, finite, read


class UndefinedScoreError(ValueError):
    """R-squared is undefined for the given targets."""


class ModelFormatError(ValueError):
    """A persisted model document is malformed."""


MODEL_FORMAT = "boosted-regression-tree"
MODEL_VERSION = 1
LINEAR_LOSS = "linear"
# Rows per block of batch prediction, and the training rows up to which the
# fits of one process grow together. Smaller blocks cost more per-call
# overhead; larger ones raise the peak memory.
PREDICT_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Hyperparameters:
    """Ensemble and tree fitting knobs."""

    n_estimators: int = 50
    max_depth: int | None = 8
    min_samples_leaf: int = 2
    learning_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or non-negative")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")


@dataclass
class Dataset:
    """Feature matrix with targets."""

    feature_names: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        self.feature_names = tuple(self.feature_names)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"feature arity {self.features.shape[1]} does not match "
                f"{len(self.feature_names)} feature names"
            )
        if self.targets.shape != (self.features.shape[0],):
            raise ValueError("targets must be one value per row")
        if self.features.shape[0] == 0:
            raise ValueError("dataset is empty")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("targets must be finite")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.feature_names, self.features[indices], self.targets[indices])

    @classmethod
    def from_rows(
        cls,
        feature_names: Sequence[str],
        rows: Sequence[tuple[Sequence[float], float]],
    ) -> "Dataset":
        features = np.array([list(vec) for vec, _ in rows], dtype=np.float64)
        targets = np.array([target for _, target in rows], dtype=np.float64)
        return cls(tuple(feature_names), features, targets)


# ----- regression trees ---------------------------------------------------


@dataclass(frozen=True)
class RegressionTree:
    """CART regression tree as five parallel preorder arrays; node 0 is the root.

    A split sends rows with x[feature] < threshold left; its value is NaN. A
    leaf has feature -1, threshold -inf and itself as both children. The
    arrays are tuples of Python numbers, which one-row prediction indexes fast;
    batch prediction reads NumPy copies of them, built with the tree.
    """

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]
    n_features: int

    def __post_init__(self) -> None:
        # The depth and the arrays `_descend` reads are built once per tree. They
        # are not fields, so equality, the hash and the repr stay on the tuples;
        # set here, on every tree alike, they leave attribute reads as fast as on
        # the fields alone.
        # Preorder puts every child after its parent, so one forward pass works.
        depths = [0] * len(self.feature)
        for node, f in enumerate(self.feature):
            if f >= 0:
                depths[self.left[node]] = depths[self.right[node]] = depths[node] + 1
        object.__setattr__(self, "_depth", max(depths))
        # children[2 * node + 1] is taken where x < threshold, so NaN goes right.
        object.__setattr__(self, "_arrays", (
            np.maximum(np.array(self.feature, dtype=np.intp), 0),  # leaves read column 0
            np.array(self.threshold),
            np.array([self.right, self.left], dtype=np.intp).T.ravel(),
            np.array(self.value),
        ))

    def depth(self) -> int:
        return self._depth

    def leaf_count(self) -> int:
        return self.feature.count(-1)


def _small(a: np.ndarray) -> np.ndarray:
    """Non-negative integers as uint16 where they fit, which NumPy's stable sort
    orders by radix."""
    return a.astype(np.uint16) if a.max(initial=0) < 2**16 else a


def _column_codes(X: np.ndarray) -> np.ndarray:
    """Rank of each value within its column, one row per feature: (features, rows).
    Equal values share a code."""
    return _small(np.stack([np.unique(column, return_inverse=True)[1] for column in X.T]))


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values begins."""
    starts = np.flatnonzero(a[1:] != a[:-1]) + 1
    return np.concatenate(([0], starts)) if len(a) else starts


def _level_splits(
    X: np.ndarray, r: np.ndarray, codes: np.ndarray, yc: np.ndarray,
    nid: np.ndarray, counts: np.ndarray, min_samples_leaf: int, work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best (feature, threshold) of each node of a depth, or (-1, -inf) where none.

    Rows X[r] are node-major in nodes nid and y-ascending within each node; codes
    are their `_column_codes`, (features, rows); yc = y - node mean keeps the
    sums well conditioned. A node is searched as if alone: rows in (x, yc)
    order, sums from its first row, then the lowest SSE, feature and midpoint
    threshold. The SSE is taken only at candidate cuts, where the code changes
    and both sides keep min_samples_leaf rows. The running sums go to `work`,
    of at least 4 * features * rows floats.
    """
    d, n, nodes = codes.shape[0], len(r), len(counts)
    starts = np.cumsum(counts) - counts
    # A stable sort on (node, code) keeps the y order, and so the yc order, among
    # equal codes; rows of equal yc add the same values in either order. The keys
    # take the fewest bits, as NumPy sorts 8- and 16-bit keys by radix.
    span = int(codes.max(initial=0)) + 1
    small = np.min_scalar_type(nodes * span - 1)
    perm = np.argsort(np.add(codes, (nid * span).astype(small), dtype=small, casting="unsafe"),
                      axis=1, kind="stable")
    ranked = codes.take(perm + (np.arange(d) * n)[:, None])  # as perm orders each row
    # A cut after sorted position p, where p is in node nid[p]; no cut ends a node.
    n_left = np.arange(1, n) - starts[nid[:-1]]
    n_right = counts[nid[:-1]] - n_left  # 0 where p is a node's last row
    f, p = np.nonzero((ranked[:, :-1] < ranked[:, 1:])
                      & ((n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)))
    node = nid[p]
    # Running sums and sums of squares per (feature, node) from the node's first
    # row, in buf, (2, d, P). Each node is padded to the largest count of its
    # power-of-two width class, and the nodes lie class by class, so a class is
    # one (2, d, nodes, W) block; a node's feature-f sums start at f * P + base[node].
    width = np.frexp(counts - 1)[1]  # log2 of the padded width: (count - 1).bit_length()
    by_class = np.argsort(width, kind="stable")
    first = _run_starts(width[by_class])
    W = np.maximum.reduceat(counts[by_class], first)
    padded = np.repeat(W, np.diff(np.append(first, nodes)))
    ends = np.cumsum(padded)
    P = int(ends[-1])
    base = np.empty(nodes, dtype=np.intp)
    base[by_class] = ends - padded
    # Positions past a node's last row repeat a later row and are never read.
    at = np.repeat(starts[by_class] - base[by_class], padded) + np.arange(P)
    buf = work[:2 * d * P].reshape(2, d, P)
    yc.take(perm).take(at, axis=1, mode="clip", out=buf[0])
    with np.errstate(over="ignore"):  # an infinite sum of squares never wins below
        np.multiply(buf[0], buf[0], out=buf[1])
        bounds = np.append(ends[first] - W, P).tolist()  # each class's first column, then P
        for a, b, w in zip(bounds, bounds[1:], W.tolist()):
            block = buf[:, :, a:b].reshape(2, d, -1, w)
            np.cumsum(block, axis=3, out=block)
    cum = buf.reshape(-1)
    at = f * P + base[node]
    last = at + counts[node] - 1  # the node's last row: its totals
    at += p - starts[node]
    s_left, q_left = cum.take(at), cum.take(at + d * P)
    n_left, n_right = n_left[p], n_right[p]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_right, q_right = cum.take(last) - s_left, cum.take(last + d * P) - q_left
        sse = (q_left - s_left * s_left / n_left) + (q_right - s_right * s_right / n_right)
    # An overflow gives NaN, or -inf where a square of a sum overflows but the sum
    # of squares does not; neither is an SSE, so neither wins.
    sse[~np.isfinite(sse)] = math.inf
    # Candidates come in (feature, node, cut) order; reduce each (feature, node).
    row = f * nodes + node
    first = _run_starts(row)
    best = np.full(d * nodes, math.inf)
    best[row[first]] = np.minimum.reduceat(sse, first) if len(sse) else []
    best = best.reshape(d, nodes)
    feature = np.where(best.min(axis=0) < math.inf, best.argmin(axis=0), -1)
    # Each node's first candidate that reaches the minimum of its winning feature:
    # a node's hits are one run, as the node lies in one (feature, node) group.
    hits = np.flatnonzero((sse == best.ravel()[row]) & (f == feature[node]))
    hits = hits[_run_starts(node[hits])]
    won, j, at = node[hits], f[hits], p[hits]
    lo, hi = X[r[perm[j, at]], j], X[r[perm[j, at + 1]], j]  # the values either side of the cut
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    mid = np.where(np.isfinite(mid), mid, lo / 2.0 + hi / 2.0)  # halve first where lo + hi overflows
    threshold = np.full(nodes, -math.inf)
    # A midpoint that rounds down to lo is replaced by hi.
    threshold[won] = np.where(mid <= lo, hi, mid)
    return feature, threshold


def _grow_trees(
    X: np.ndarray, y: np.ndarray, codes: np.ndarray, sizes: Sequence[int],
    max_depth: int | None, min_samples_leaf: int,
) -> list[RegressionTree]:
    """Grow one tree per root, one depth at a time; a repeated row counts each time.

    Root i holds the next sizes[i] rows of X and y, in y-ascending order, and
    codes are their `_column_codes`, (features, rows). Every root is a depth-0
    node, so the trees share each depth's split search. A stable partition by
    child keeps each node's rows y-ascending. Breadth-first ids, where a split's
    children are left and left + 1, are relabelled in preorder at the end.
    """
    levels, first = [], 0  # per depth: feature, threshold, value, left; next depth's first id
    at = np.arange(len(y))  # node-major
    nid = np.repeat(np.arange(len(sizes)), sizes)
    # Every depth's running sums share one buffer: padding leaves a depth fewer
    # than twice its rows, and a fresh buffer per depth cost page faults.
    work = np.empty(4 * codes.shape[0] * len(y))
    while len(at):
        yr, counts = y.take(at), np.bincount(nid)
        starts = np.cumsum(counts) - counts
        y_l = yr.tolist()
        # fsum is exactly rounded, so row order is moot.
        center = [math.fsum(y_l[a:b]) / (b - a)
                  for a, b in zip(starts.tolist(), (starts + counts).tolist())]
        open_ = (counts >= 2 * min_samples_leaf) & (max_depth is None or len(levels) < max_depth)
        open_ &= yr[starts] < yr[starts + counts - 1]  # y-ascending: first < last unless constant
        split, cut, keep = np.full(len(counts), -1), np.full(len(counts), -math.inf), open_[nid]
        if open_.any():
            r = at[keep]
            split[open_], cut[open_] = _level_splits(
                X, r, codes.take(r, axis=1), yr[keep] - np.array(center)[nid[keep]],
                (np.cumsum(open_) - 1)[nid[keep]], counts[open_], min_samples_leaf, work)
        rank = np.cumsum(split >= 0) - 1
        first += len(counts)
        levels.append((split, cut, np.where(split >= 0, math.nan, center), first + 2 * rank))
        at, nid = at[split[nid] >= 0], nid[split[nid] >= 0]
        nid = 2 * rank[nid] + ~(X[at, split[nid]] < cut[nid])  # children, breadth-first
        by_child = np.argsort(_small(nid), kind="stable")
        at, nid = at[by_child], nid[by_child]
    feature, threshold, value, left = (np.concatenate(a).tolist() for a in zip(*levels))
    trees = []
    for root in range(len(sizes)):
        order, stack = [], [root]
        while stack:  # preorder: a node, its left subtree, then its right subtree
            order.append(stack.pop())
            if feature[order[-1]] >= 0:
                stack += [left[order[-1]] + 1, left[order[-1]]]
        pre = {node: i for i, node in enumerate(order)}
        nodes = [
            (feature[b], threshold[b], pre[left[b]], pre[left[b] + 1], value[b]) if feature[b] >= 0
            else (-1, -math.inf, i, i, value[b]) for i, b in enumerate(order)
        ]
        trees.append(RegressionTree(*zip(*nodes), X.shape[1]))
    return trees


# A fit in steps: a generator that yields each tree it needs as
# (X, y, codes, rows, max_depth, min_samples_leaf), with codes = _column_codes(X),
# is sent the tree grown on X[rows], and returns the fit's result.
Steps = Generator[tuple, RegressionTree, Any]


def _build_trees(asks: Sequence[tuple]) -> list[RegressionTree]:
    """The trees asked for, of one max_depth and min_samples_leaf, in one level pass."""
    sizes = [len(ask[3]) for ask in asks]
    X = np.empty((sum(sizes), asks[0][0].shape[1]))
    y = np.empty(len(X))
    codes = np.empty((X.shape[1], len(X)), dtype=np.result_type(*(ask[2] for ask in asks)))
    end = 0
    for (X_i, y_i, codes_i, rows, *_), size in zip(asks, sizes):
        rows = rows[np.argsort(y_i.take(rows), kind="stable")]  # y-ascending, once per tree
        X_i.take(rows, axis=0, out=X[end:end + size])
        y_i.take(rows, out=y[end:end + size])
        codes_i.take(rows, axis=1, out=codes[:, end:end + size])
        end += size
    return _grow_trees(X, y, codes, sizes, *asks[0][4:])


def _run_together(fits: Sequence[Steps]) -> list[Any]:
    """Run fits of one max_depth and min_samples_leaf stage by stage, growing
    the trees that a stage asks for in one level pass.

    The outcomes of the fits up to the first that raised: each one's result, or
    the exception it raised; an error in a shared pass is that of its first fit.
    Each fit draws only from its own generator, so these are the bits of running
    the fits one after another, which starts no fit after a failure.
    """
    outcomes: dict[int, Any] = {}
    sent: dict[int, Any] = dict.fromkeys(range(len(fits)))
    while sent:
        asked: dict[int, tuple] = {}
        for i, tree in sent.items():
            try:
                asked[i] = fits[i].send(tree)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:
                outcomes[i] = exc
                break  # a serial run never gets to the fits after it
        sent = {}
        if asked:
            try:
                sent = dict(zip(asked, _build_trees(list(asked.values()))))
            except Exception as exc:
                outcomes[min(asked)] = exc
    failed = min((i for i, outcome in outcomes.items() if isinstance(outcome, Exception)),
                 default=len(fits) - 1)
    return [outcomes[i] for i in range(failed + 1)]


def _value(outcome: Any) -> Any:
    """A fit's result; the exception it raised is raised here."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _one_tree(data: Dataset, max_depth: int | None, min_samples_leaf: int) -> Steps:
    """A single tree on every row, in steps."""
    X = data.features
    return (yield X, data.targets, _column_codes(X), np.arange(len(data)), max_depth, min_samples_leaf)


def fit_tree(
    data: Dataset, max_depth: int | None = 8, min_samples_leaf: int = 2
) -> RegressionTree:
    """Fit a CART regression tree by greedy variance reduction."""
    Hyperparameters(max_depth=max_depth, min_samples_leaf=min_samples_leaf)  # checks both
    return _value(_run_together([_one_tree(data, max_depth, min_samples_leaf)])[0])


def _descend(tree: RegressionTree, X: np.ndarray, row_start: np.ndarray) -> np.ndarray:
    """Each row's leaf value, descending level by level; row_start is
    np.arange(len(X)) * X.shape[1], as X.take indexes the flattened rows.

    A row stays on its leaf: x < -inf is false and a leaf's right child is itself.
    """
    feature, threshold, children, value = tree._arrays
    node = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(tree._depth):
        goes_left = X.take(feature.take(node) + row_start) < threshold.take(node)
        node = children.take(2 * node + goes_left)
    return value.take(node)


def predict_tree_batch(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Predict a feature matrix, one value per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise ValueError(f"expected an (n, {tree.n_features}) feature matrix")
    return _descend(tree, X, np.arange(X.shape[0]) * X.shape[1])


# ----- boosted ensemble -----------------------------------------------------


@dataclass(frozen=True)
class BoostStage:
    tree: RegressionTree
    weight: float


@dataclass(frozen=True)
class BoostedModel:
    feature_names: tuple[str, ...]
    stages: tuple[BoostStage, ...]
    hyperparameters: Hyperparameters
    loss: str = LINEAR_LOSS

    def __post_init__(self) -> None:
        # One-row prediction reads this table: the element types of a row it
        # walks as given, each stage's tree arrays and the stage weights. It is
        # not a field, so equality and the hash stay on the model; as on
        # RegressionTree, it is set on every model alike.
        trees = tuple((s.tree.feature, s.tree.threshold, s.tree.left, s.tree.right, s.tree.value)
                      for s in self.stages)
        object.__setattr__(self, "_walk_table", (
            (float,) * len(self.feature_names), trees, tuple(s.weight for s in self.stages)))


def fit_boosted(
    data: Dataset,
    rng: np.random.Generator,
    *,
    n_estimators: int = 50,
    max_depth: int | None = 8,
    min_samples_leaf: int = 2,
    learning_rate: float = 1.0,
) -> BoostedModel:
    """Fit an AdaBoost.R2 ensemble of regression trees.

    Each stage fits a tree on a weighted bootstrap resample, computes the
    max-normalized absolute losses on the full data and reweights samples by
    beta = avg_loss / (1 - avg_loss). Boosting stops early when a stage fits
    the data exactly or when the average loss reaches 0.5.
    """
    hyper = Hyperparameters(n_estimators, max_depth, min_samples_leaf, learning_rate)
    return _value(_run_together([_boosting(data, rng, hyper)])[0])


def _boosting(data: Dataset, rng: np.random.Generator, hyper: Hyperparameters) -> Steps:
    """`fit_boosted` in steps: one tree per stage."""
    n = len(data)
    if n < 2:
        raise ValueError("boosting needs at least 2 rows")
    X = data.features
    y = data.targets
    sample_weight, codes = np.full(n, 1.0 / n), _column_codes(X)
    learning_rate = hyper.learning_rate
    stages: list[BoostStage] = []
    for _ in range(hyper.n_estimators):
        sample_weight = sample_weight / sample_weight.sum()
        bootstrap = rng.choice(n, size=n, replace=True, p=sample_weight)
        tree = yield X, y, codes, bootstrap, hyper.max_depth, hyper.min_samples_leaf
        error_vect = np.abs(predict_tree_batch(tree, X) - y)
        error_max = error_vect.max()
        if error_max > 0:
            error_vect = error_vect / error_max
        avg_loss = float(np.sum(sample_weight * error_vect))
        if avg_loss <= 0:
            # A stage that fits every row exactly ends the ensemble.
            stages.append(BoostStage(tree, 1.0))
            break
        if avg_loss >= 0.5:
            # Keep a lone degenerate stage so prediction stays defined.
            if not stages:
                stages.append(BoostStage(tree, 0.0))
            break
        beta = avg_loss / (1.0 - avg_loss)
        weight = learning_rate * math.log(1.0 / beta)
        if not math.isfinite(weight):
            raise ValueError(f"stage weight {weight!r} is not finite; lower learning_rate")
        stages.append(BoostStage(tree, weight))
        sample_weight = sample_weight * np.power(beta, (1.0 - error_vect) * learning_rate)
        total = sample_weight.sum()
        if not np.isfinite(total) or total <= 0:
            break
        sample_weight = sample_weight / total
    return BoostedModel(tuple(data.feature_names), tuple(stages), hyper)


def _weighted_median_rows(predictions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted median of each row of an (n, stages) prediction matrix: the
    prediction of the stage the sort order reaches half the total weight at."""
    order = np.argsort(predictions, axis=1, kind="stable")
    cdf = weights.take(order)
    np.cumsum(cdf, axis=1, out=cdf)
    median = (cdf >= 0.5 * cdf[:, -1:]).argmax(axis=1)
    rows = np.arange(len(order))
    return predictions[rows, order[rows, median]]


def predict_boosted(model: BoostedModel, x: Sequence[float]) -> float:
    """Predict one feature vector: one root-to-leaf walk per tree, combined
    exactly as in `predict_boosted_batch`, so both give the same bits.

    A tuple of exactly one Python float per feature, as `ParameterSpace.encode`
    returns, is walked as it is; any other input goes through NumPy first.
    The stable sort breaks ties by stage index as NumPy's stable argsort
    does, and the running sum adds in the same order as `np.cumsum`.
    """
    row_types, trees, weights = model._walk_table
    if not (type(x) is tuple and tuple(map(type, x)) == row_types):
        row = np.asarray(x, dtype=np.float64)
        if row.shape != (len(row_types),):
            raise ValueError(f"expected {len(row_types)} features, got shape {row.shape}")
        x = row.tolist()
    predictions = []
    for feature, threshold, left, right, value in trees:
        node = 0
        f = feature[0]
        while f >= 0:
            node = left[node] if x[f] < threshold[node] else right[node]
            f = feature[node]
        predictions.append(value[node])
    order = sorted(range(len(predictions)), key=predictions.__getitem__)
    cdf = list(itertools.accumulate(map(weights.__getitem__, order)))
    # The first stage whose running weight reaches half the total; argmax over
    # an all-False row picks the first stage, hence the default.
    median = next(itertools.compress(order, map((0.5 * cdf[-1]).__le__, cdf)), order[0])
    return float(predictions[median])


def predict_boosted_batch(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """Predict a feature matrix, one value per row.

    Rows go through in blocks of PREDICT_BLOCK_ROWS, so the working memory is
    bounded by the block size times the number of stages, whatever the number
    of rows. Each row is predicted on its own, so blocking changes no bit.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ValueError(f"expected an (n, {len(model.feature_names)}) feature matrix")
    weights = np.array([s.weight for s in model.stages])
    n, block = X.shape[0], PREDICT_BLOCK_ROWS
    row_start = np.arange(min(n, block)) * X.shape[1]
    stage_major = np.empty((len(model.stages), min(n, block)))  # a tree's block of values is one row
    result = np.empty(n)
    for first in range(0, n, block):
        rows = np.ascontiguousarray(X[first:first + block])  # X.take reads rows flat
        m = rows.shape[0]
        for stage, s in enumerate(model.stages):
            stage_major[stage, :m] = _descend(s.tree, rows, row_start[:m])
        result[first:first + m] = _weighted_median_rows(stage_major[:, :m].T, weights)
    return result


# ----- scoring and validation schemes ---------------------------------------


@dataclass(frozen=True)
class ModelMetrics:
    """Validation outcome: coefficient of determination over held-out rows."""

    r2: float
    n_samples: int
    scheme: str


def r2_score(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    preds = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if preds.shape != y.shape or y.ndim != 1 or len(y) == 0:
        raise ValueError("predictions and targets must be equal-length non-empty vectors")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        raise UndefinedScoreError("targets are constant")
    ss_res = float(np.sum((y - preds) ** 2))
    return 1.0 - ss_res / ss_tot


def kfold_indices(n: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffle once and partition into k near-equal disjoint folds."""
    if not 2 <= k <= n:
        raise ValueError(f"k must be between 2 and the number of rows, got {k}")
    return np.array_split(rng.permutation(n), k)


def _make_fitter(
    model_kind: str, hyper: Hyperparameters
) -> Callable[[Dataset, np.random.Generator, np.ndarray], Steps]:
    """Fit a model to a training set and predict held-out rows X, in steps."""
    if model_kind == "boosted":
        def fit(train: Dataset, fold_rng: np.random.Generator, X: np.ndarray) -> Steps:
            return predict_boosted_batch((yield from _boosting(train, fold_rng, hyper)), X)
    elif model_kind == "tree":
        def fit(train: Dataset, fold_rng: np.random.Generator, X: np.ndarray) -> Steps:
            tree = yield from _one_tree(train, hyper.max_depth, hyper.min_samples_leaf)
            return predict_tree_batch(tree, X)
    else:
        raise ValueError(f"unknown model kind {model_kind!r}")
    return fit


# ----- independent fits on every usable CPU -------------------------------------

Fit = tuple[int, Callable[[], Steps]]  # (training rows, a fit to start)


def _processes(fits: int) -> int:
    """One process per usable CPU, at most one per fit. Only the caller where
    os.fork or os.sched_getaffinity is missing, or where another Python thread
    could hold a lock across the fork."""
    import os  # imported here, as only training needs these modules
    import threading

    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(len(affinity(0)), fits)


def _shares(rows: Sequence[int], processes: int) -> list[list[int]]:
    """Fit indices per process, balanced by rows: the last fit goes to process 0,
    then each other fit, largest first, to the least loaded process."""
    loads, shares = [0] * processes, [[] for _ in range(processes)]
    last = len(rows) - 1
    for i in [last] + sorted(range(last), key=lambda i: -rows[i]):
        p = loads.index(min(loads))
        loads[p] += rows[i]
        shares[p].append(i)
    return [sorted(share) for share in shares]


def _run_share(fits: Sequence[Fit], share: Sequence[int]) -> dict[int, Any]:
    """Run a share's fits in order, the next ones together while their training
    rows sum to at most PREDICT_BLOCK_ROWS: a shared level pass pays NumPy's
    fixed cost per depth once. The first fit that raises ends the share, its
    exception standing as its outcome."""
    groups: list[list[int]] = []
    rows = 0
    for i in share:
        if groups and rows + fits[i][0] <= PREDICT_BLOCK_ROWS:
            groups[-1].append(i)
            rows += fits[i][0]
        else:
            groups.append([i])
            rows = fits[i][0]
    outcomes: dict[int, Any] = {}
    for group in groups:
        grown = _run_together([fits[i][1]() for i in group])
        outcomes.update(zip(group, grown))
        if len(grown) < len(group) or isinstance(grown[-1], Exception):
            break
    return outcomes


def _fork_share(fits: Sequence[Fit], share: list[int]) -> tuple[int, Any] | None:
    """Fork a child that runs a share and pickles into a pipe the results of the
    fits that returned (held-out predictions, never a model), then leaves by
    os._exit. Its pid and the pipe's read end; None if no process could be forked."""
    import os
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the child: never return into the caller's stack
        status = 1
        try:
            os.close(read_end)
            outcomes = _run_share(fits, share)
            with open(write_end, "wb") as pipe:
                pickle.dump({i: r for i, r in outcomes.items() if not isinstance(r, Exception)}, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _fit_concurrently(fits: Sequence[Fit]) -> list[Any]:
    """Each fit's outcome: its result, or the exception it raised; None after
    the first fit that raised, as a serial run never gets there.

    The calling process runs the share that holds the last fit, and each other
    share runs in a forked child. The caller then runs, in order, every fit
    before the first failure that no child returned: one that raised in a child
    raises again here, with its own traceback, and a share that could not be
    forked runs here whole. Every child is reaped before this returns or raises.
    Each fit draws only from its own generator, so the outcomes are the bits of
    calling the fits one after another.
    """
    import os
    import pickle
    import signal

    shares = _shares([rows for rows, _ in fits], _processes(len(fits)))
    children: list[tuple[int, Any]] = []  # (pid, read end of its pipe), until reaped
    try:
        for share in shares[1:]:
            child = _fork_share(fits, share)
            if child is not None:
                children.append(child)
        outcomes = _run_share(fits, shares[0])
        while children:
            pid, pipe = children[-1]
            message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop()
            pipe.close()
            if status or not message:
                code = os.waitstatus_to_exitcode(status)
                ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"a fitting process {ended} before sending its results")
            outcomes.update(pickle.loads(message))
    finally:
        for pid, pipe in children:  # left only when something above raised
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped just before the interruption
    failed = min((i for i, outcome in outcomes.items() if isinstance(outcome, Exception)),
                 default=len(fits))
    outcomes.update(_run_share(fits, [i for i in range(failed) if i not in outcomes]))
    return [outcomes.get(i) for i in range(len(fits))]


def _fold_fits(
    data: Dataset, folds: list[np.ndarray], rng: np.random.Generator,
    fit: Callable[[Dataset, np.random.Generator, np.ndarray], Steps],
) -> list[Fit]:
    """One fit per fold, each on its own seed: fit the other rows, predict the fold."""
    fold_seeds = rng.integers(0, 2**63, size=len(folds))

    def fold_fit(fold: np.ndarray, seed: int) -> Fit:
        mask = np.ones(len(data), dtype=bool)
        mask[fold] = False
        train_rows = np.flatnonzero(mask)

        def predict_fold() -> Steps:
            return fit(data.subset(train_rows), np.random.default_rng(seed), data.features[fold])

        return len(train_rows), predict_fold

    return [fold_fit(fold, seed) for fold, seed in zip(folds, fold_seeds)]


def _pooled_r2(data: Dataset, folds: list[np.ndarray], outcomes: list[Any]) -> ModelMetrics:
    """R2 over every fold's held-out predictions; the first failed fold raises."""
    pooled = np.empty(len(data), dtype=np.float64)
    for fold, outcome in zip(folds, outcomes):
        pooled[fold] = _value(outcome)
    return ModelMetrics(
        r2=r2_score(pooled, data.targets),
        n_samples=len(data),
        scheme=f"{len(folds)}-fold cross-validation",
    )


def kfold_cv(
    data: Dataset,
    k: int,
    rng: np.random.Generator,
    *,
    model_kind: str = "boosted",
    hyper: Hyperparameters | None = None,
) -> ModelMetrics:
    """K-fold cross-validation, scoring R2 over the pooled held-out predictions.

    Folds are fitted with independently derived seeds, at the same time on the
    usable CPUs; the result is the same bits as fitting them in turn.
    """
    hyper = hyper or Hyperparameters()
    folds = kfold_indices(len(data), k, rng)
    fits = _fold_fits(data, folds, rng, _make_fitter(model_kind, hyper))
    return _pooled_r2(data, folds, _fit_concurrently(fits))


def validate_and_fit(
    data: Dataset,
    seed: int,
    *,
    hyper: Hyperparameters | None = None,
    validation: tuple[str, Any] = ("none", None),
) -> tuple[ModelMetrics | None, BoostedModel]:
    """Validate as `harness.parse_validation_spec` reads it: ("kfold", K) by k-fold
    CV, ("split", FRACTION) by a holdout split, ("none", None) not at all; then
    fit the boosted model on every row. All fits run at once on the usable CPUs.

    Validation draws from default_rng(seed) and the model from a fresh
    default_rng(seed), so its bytes depend only on the data and the seed. Errors
    come in the order of a serial run: validation fits, scoring, then the model.
    """
    scheme, argument = validation
    hyper = hyper or Hyperparameters()
    fit, rng = _make_fitter("boosted", hyper), np.random.default_rng(seed)

    def model() -> Steps:
        # The model is grown alone, by `fit_boosted`, so a traced run times its fit.
        yield from ()
        return fit_boosted(data, np.random.default_rng(seed), **asdict(hyper))

    final = (len(data), model)
    if scheme == "kfold":
        parts = kfold_indices(len(data), argument, rng)
        *held_out, fitted = _fit_concurrently([*_fold_fits(data, parts, rng, fit), final])
        return _pooled_r2(data, parts, held_out), _value(fitted)
    if scheme == "split":
        train, test = split_train_test(data, argument, rng)
        held_out, fitted = _fit_concurrently(
            [(len(train), lambda: fit(train, rng, test.features)), final])
        return ModelMetrics(
            r2=r2_score(_value(held_out), test.targets),
            n_samples=len(test),
            scheme=f"holdout split (train={len(train)}, test={len(test)})",
        ), _value(fitted)
    if scheme == "none":
        return None, fit_boosted(data, np.random.default_rng(seed), **asdict(hyper))
    raise ValueError(f"unknown validation scheme {scheme!r}; expected kfold, split or none")


def split_train_test(
    data: Dataset, train_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Shuffled split with ceil(fraction * n) training rows."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(data)
    n_train = math.ceil(train_fraction * n)
    if n_train <= 0 or n_train >= n:
        raise ValueError(
            f"train fraction {train_fraction} leaves an empty part for {n} rows"
        )
    perm = rng.permutation(n)
    return data.subset(perm[:n_train]), data.subset(perm[n_train:])


# ----- persistence -----------------------------------------------------------


def _hyperparameters(raw: Any) -> Hyperparameters:
    """Hyperparameters as read; a missing one takes its default."""
    for name in ("n_estimators", "max_depth", "min_samples_leaf"):
        if name in raw and not (name == "max_depth" and raw[name] is None):
            exact(raw[name], int, f"hyperparameter {name}")
    if "learning_rate" in raw:
        finite(raw["learning_rate"], "hyperparameter learning_rate")
    return Hyperparameters(**raw)


def _tree_from_dict(doc: Any, n_features: int) -> RegressionTree:
    """Lay a nested v1 tree out in preorder; its child indices form a tree by construction."""
    nodes: list[list[Any]] = []
    pending: list[tuple[Any, int]] = [(doc, -1)]  # (node, parent it is the right child of)
    while pending:
        node_doc, parent = pending.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        if "value" in node_doc:  # a node that is no mapping fails with a TypeError
            value = float(finite(node_doc["value"], "leaf value"))
            nodes.append([-1, -math.inf, node, node, value])
            continue
        feature = exact(node_doc["feature"], int, "split feature")
        if not 0 <= feature < n_features:
            raise ModelFormatError(f"split feature {feature} is outside [0, {n_features})")
        threshold = float(finite(node_doc["threshold"], "split threshold"))
        nodes.append([feature, threshold, node + 1, -1, math.nan])
        pending += [(node_doc["right"], node), (node_doc["left"], -1)]
    return RegressionTree(*map(tuple, zip(*nodes)), n_features)


def _header(model: BoostedModel) -> dict[str, Any]:
    """Every member of the v1 document but its stages."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "feature_names": list(model.feature_names),
        "loss": model.loss,
        "hyperparameters": asdict(model.hyperparameters),
    }


@failures_as(ModelFormatError, "model document")
def model_from_dict(doc: Any) -> BoostedModel:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    names = exact(doc["feature_names"], list, "feature_names")
    feature_names = tuple(exact(name, str, "feature name") for name in names)
    hyper = _hyperparameters(doc["hyperparameters"])
    stages = tuple(
        BoostStage(
            _tree_from_dict(entry["tree"], len(feature_names)),
            float(finite(entry["weight"], "stage weight")),
        )
        for entry in doc["stages"]
    )
    loss = exact(doc.get("loss", LINEAR_LOSS), str, "loss")
    if not stages:
        raise ModelFormatError("model has no stages")
    return BoostedModel(feature_names, stages, hyper, loss)


def _number(x: Any) -> str:
    """A number as json.dumps writes it; ints and finite floats skip json."""
    if type(x) is int:
        return int.__repr__(x)
    if type(x) is float and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


def _tree_json(tree: RegressionTree, indent: str) -> str:
    """A tree's nested v1 text, as json.dumps(..., indent=2) writes it where the
    tree's closing brace is indented by `indent`: one preorder pass over the
    arrays, on an explicit stack rather than recursion, so any depth is written."""
    feature, threshold, left, right, value = (
        tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    parts: list[str] = []
    stack: list[Any] = [(0, indent)]  # nodes to write, with the text between them
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, outer = item
        inner = outer + "  "
        if feature[node] < 0:
            parts.append(f'{{\n{inner}"value": {_number(value[node])}\n{outer}}}')
            continue
        parts.append(f'{{\n{inner}"feature": {_number(feature[node])},\n'
                     f'{inner}"threshold": {_number(threshold[node])},\n{inner}"left": ')
        stack += [f"\n{outer}}}", (right[node], inner), f',\n{inner}"right": ', (left[node], inner)]
    return "".join(parts)


def model_to_json(model: BoostedModel) -> str:
    """The v1 document: `json.dumps(doc, indent=2) + "\\n"` of the header and
    each stage's weight and nested tree ({"value"} leaves, {"feature",
    "threshold", "left", "right"} splits), written straight from the tree arrays."""
    head = json.dumps({**_header(model), "stages": []}, indent=2)  # ends in '[]\n}'
    if not model.stages:
        return head + "\n"
    stages = ",".join(
        f'\n    {{\n      "weight": {_number(s.weight)},\n'
        f'      "tree": {_tree_json(s.tree, "      ")}\n    }}'
        for s in model.stages
    )
    return head.removesuffix("[]\n}") + f"[{stages}\n  ]\n}}\n"


def save_model(model: BoostedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model_to_json(model))


def load_model(path: str) -> BoostedModel:
    """Read a saved model; a file that cannot be read as one raises ModelFormatError.
    A tree nested deeper than json's recursion allows saves, but reads back as
    ModelFormatError until format v2."""
    return read(path, json.load, model_from_dict, ModelFormatError, "model document")
