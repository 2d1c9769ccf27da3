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
from typing import Any, Callable, Sequence

import numpy as np


class UndefinedScoreError(ValueError):
    """R-squared is undefined for the given targets."""


class ModelFormatError(ValueError):
    """A persisted model document is malformed."""


MODEL_FORMAT = "boosted-regression-tree"
MODEL_VERSION = 1
LINEAR_LOSS = "linear"


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
    arrays are tuples of Python numbers, which one-row prediction indexes fast.
    """

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]
    n_features: int

    def depth(self) -> int:
        # Preorder puts every child after its parent, so one forward pass works.
        depths = [0] * len(self.feature)
        for node, f in enumerate(self.feature):
            if f >= 0:
                depths[self.left[node]] = depths[self.right[node]] = depths[node] + 1
        return max(depths)

    def leaf_count(self) -> int:
        return self.feature.count(-1)


def _column_codes(X: np.ndarray) -> np.ndarray:
    """Rank of each value within its column; equal values share a code."""
    return np.column_stack([np.unique(column, return_inverse=True)[1] for column in X.T])


def _level_splits(
    X: np.ndarray, r: np.ndarray, codes: np.ndarray, yc: np.ndarray,
    nid: np.ndarray, counts: np.ndarray, min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best (feature, threshold) of each node of a depth, or (-1, -inf) where none.

    Rows X[r] are node-major in nodes nid; yc = y - node mean keeps the sums well
    conditioned. A node is searched as if alone: rows in (x, yc) order, sums
    from its first row, then the lowest SSE, feature and midpoint threshold. Nodes
    of one power-of-two padded width are searched as one matrix.
    """
    d, starts = X.shape[1], np.cumsum(counts) - counts
    order = np.lexsort((yc, nid))
    # A stable sort on (node, code) keeps the yc order among equal codes.
    keys = nid * (int(codes.max(initial=0)) + 1) + codes[order].T
    keys = keys.astype(np.uint16) if keys.max(initial=0) < 2**16 else keys  # radix-sortable
    perm = order[np.argsort(keys, axis=1, kind="stable")]
    stats = np.stack([yc, yc * yc])
    width = np.array([1 << (c - 1).bit_length() for c in counts.tolist()])
    node_sse, node_k = np.empty((d, len(counts))), np.empty((d, len(counts)), dtype=np.intp)
    for W in np.unique(width).tolist():
        nodes = np.flatnonzero(width == W)
        n, i = counts[nodes][:, None], np.arange(W)
        # (d, nodes, W); positions past a node's last row are masked out below.
        pos = perm.take(starts[nodes][:, None] + i, axis=1, mode="clip")
        cum = np.cumsum(stats.take(pos, axis=1), axis=3)
        code = codes.take(pos * d + np.arange(d)[:, None, None])
        s_left, q_left = cum[..., :-1]
        total = cum[:, :, np.arange(len(nodes))[:, None], n - 1]  # at the node's last row
        s_right, q_right = total - cum[..., :-1]
        n_left, n_right = i[1:], n - i[1:]  # rows either side of each cut
        valid = (code[..., :-1] < code[..., 1:]) & (
            (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sse = (q_left - s_left * s_left / n_left) + (q_right - s_right * s_right / n_right)
        sse = np.where(valid, sse, math.inf)
        # argmin takes the first minimum, the lowest threshold; min keeps a NaN.
        node_k[:, nodes], node_sse[:, nodes] = sse.argmin(axis=2), sse.min(axis=2)
    node_sse[np.isnan(node_sse)] = math.inf  # a NaN never wins, as under `<`
    feature = np.where(node_sse.min(axis=0) < math.inf, node_sse.argmin(axis=0), -1)
    j = np.maximum(feature, 0)
    at = starts + node_k[j, np.arange(len(counts))]
    lo, hi = X[r[perm[j, at]], j], X[r[perm[j, at + 1]], j]  # the values either side of the cut
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    mid = np.where(np.isfinite(mid), mid, lo / 2.0 + hi / 2.0)  # halve first where lo + hi overflows
    # A midpoint that rounds down to lo is replaced by hi.
    return feature, np.where(feature < 0, -math.inf, np.where(mid <= lo, hi, mid))


def _build_tree(
    X: np.ndarray, y: np.ndarray, codes: np.ndarray, rows: np.ndarray,
    max_depth: int | None, min_samples_leaf: int,
) -> RegressionTree:
    """Grow a tree on X[rows], one depth at a time; a repeated row counts each time.

    codes is `_column_codes(X)`. Breadth-first ids, where a split's children are
    left and left + 1, are relabelled in preorder at the end.
    """
    levels, first = [], 0  # per depth: feature, threshold, value, left; next depth's first id
    at, nid = np.arange(len(rows)), np.zeros(len(rows), dtype=np.intp)  # node-major
    while len(at):
        r = rows[at]
        yr, counts = y[r], np.bincount(nid)
        starts = np.cumsum(counts) - counts
        y_l = yr.tolist()
        # fsum is exactly rounded, so row order is moot.
        center = [math.fsum(y_l[a:b]) / (b - a)
                  for a, b in zip(starts.tolist(), (starts + counts).tolist())]
        open_ = (counts >= 2 * min_samples_leaf) & (max_depth is None or len(levels) < max_depth)
        open_ &= np.minimum.reduceat(yr, starts) < np.maximum.reduceat(yr, starts)
        split, cut, keep = np.full(len(counts), -1), np.full(len(counts), -math.inf), open_[nid]
        split[open_], cut[open_] = _level_splits(
            X, r[keep], codes[r[keep]], yr[keep] - np.array(center)[nid[keep]],
            (np.cumsum(open_) - 1)[nid[keep]], counts[open_], min_samples_leaf)
        rank = np.cumsum(split >= 0) - 1
        first += len(counts)
        levels.append((split, cut, np.where(split >= 0, math.nan, center), first + 2 * rank))
        at, nid = at[split[nid] >= 0], nid[split[nid] >= 0]
        nid = 2 * rank[nid] + ~(X[rows[at], split[nid]] < cut[nid])  # children, breadth-first
        at, nid = at[np.argsort(nid, kind="stable")], np.sort(nid, kind="stable")
    feature, threshold, value, left = (np.concatenate(a).tolist() for a in zip(*levels))
    order, stack = [], [0]
    while stack:  # preorder: a node, its left subtree, then its right subtree
        order.append(stack.pop())
        if feature[order[-1]] >= 0:
            stack += [left[order[-1]] + 1, left[order[-1]]]
    pre = {node: i for i, node in enumerate(order)}
    nodes = [
        (feature[b], threshold[b], pre[left[b]], pre[left[b] + 1], value[b]) if feature[b] >= 0
        else (-1, -math.inf, i, i, value[b]) for i, b in enumerate(order)
    ]
    return RegressionTree(*zip(*nodes), X.shape[1])


def fit_tree(
    data: Dataset, max_depth: int | None = 8, min_samples_leaf: int = 2
) -> RegressionTree:
    """Fit a CART regression tree by greedy variance reduction."""
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be None or non-negative")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be at least 1")
    codes, rows = _column_codes(data.features), np.arange(len(data))
    return _build_tree(data.features, data.targets, codes, rows, max_depth, min_samples_leaf)


def _walk(tree: RegressionTree, x: list[float]) -> float:
    feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
    node = 0
    while feature[node] >= 0:
        node = left[node] if x[feature[node]] < threshold[node] else right[node]
    return tree.value[node]


def predict_tree(tree: RegressionTree, x: Sequence[float]) -> float:
    """Predict one feature vector."""
    if len(x) != tree.n_features:
        raise ValueError(f"expected {tree.n_features} features, got {len(x)}")
    return _walk(tree, np.asarray(x, dtype=np.float64).tolist())


def predict_tree_batch(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Predict a feature matrix, one value per row, descending level by level.

    A row stays on its leaf: x < -inf is false and a leaf's right child is itself.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise ValueError(f"expected an (n, {tree.n_features}) feature matrix")
    row_start = np.arange(X.shape[0]) * X.shape[1]  # X.take indexes the flattened rows
    feature = np.maximum(np.array(tree.feature, dtype=np.intp), 0)  # leaves read column 0
    threshold = np.array(tree.threshold)
    # children[2 * node + 1] is taken where x < threshold, so NaN goes right.
    children = np.array([tree.right, tree.left], dtype=np.intp).T.ravel()
    node = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(tree.depth()):
        goes_left = X.take(feature.take(node) + row_start) < threshold.take(node)
        node = children.take(2 * node + goes_left)
    return np.array(tree.value).take(node)


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
    n = len(data)
    if n < 2:
        raise ValueError("boosting needs at least 2 rows")
    X = data.features
    y = data.targets
    sample_weight, codes = np.full(n, 1.0 / n), _column_codes(X)
    stages: list[BoostStage] = []
    for _ in range(n_estimators):
        sample_weight = sample_weight / sample_weight.sum()
        bootstrap = rng.choice(n, size=n, replace=True, p=sample_weight)
        tree = _build_tree(X, y, codes, bootstrap, max_depth, min_samples_leaf)
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


def _weighted_median_columns(predictions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted median over axis 0 of a (stages, n) prediction matrix."""
    order = np.argsort(predictions, axis=0, kind="stable")
    sorted_preds = np.take_along_axis(predictions, order, axis=0)
    cdf = np.cumsum(weights[order], axis=0)
    above = cdf >= 0.5 * cdf[-1, :]
    median_idx = above.argmax(axis=0)
    return sorted_preds[median_idx, np.arange(predictions.shape[1])]


def predict_boosted(model: BoostedModel, x: Sequence[float]) -> float:
    """Predict one feature vector: one root-to-leaf walk per tree, combined
    exactly as in `predict_boosted_batch`, so both give the same bits.

    The stable sort breaks ties by stage index as NumPy's stable argsort
    does, and the running sum adds in the same order as `np.cumsum`.
    """
    row = np.asarray(x, dtype=np.float64)
    if row.shape != (len(model.feature_names),):
        raise ValueError(f"expected {len(model.feature_names)} features, got shape {row.shape}")
    row_list = row.tolist()
    stages = model.stages
    predictions = [_walk(s.tree, row_list) for s in stages]
    order = sorted(range(len(stages)), key=predictions.__getitem__)
    cdf = list(itertools.accumulate(stages[i].weight for i in order))
    half = 0.5 * cdf[-1]
    # argmax over an all-False column picks the first row, hence the default.
    median = next((i for i, c in zip(order, cdf) if c >= half), order[0])
    return float(predictions[median])


def predict_boosted_batch(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """Predict a feature matrix, one value per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ValueError(f"expected an (n, {len(model.feature_names)}) feature matrix")
    predictions = np.vstack([predict_tree_batch(s.tree, X) for s in model.stages])
    weights = np.array([s.weight for s in model.stages])
    return _weighted_median_columns(predictions, weights)


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
) -> Callable[[Dataset, np.random.Generator], Callable[[np.ndarray], np.ndarray]]:
    if model_kind == "boosted":
        def fit(train: Dataset, fold_rng: np.random.Generator):
            model = fit_boosted(train, fold_rng, **asdict(hyper))
            return lambda X: predict_boosted_batch(model, X)
    elif model_kind == "tree":
        def fit(train: Dataset, fold_rng: np.random.Generator):
            tree = fit_tree(train, hyper.max_depth, hyper.min_samples_leaf)
            return lambda X: predict_tree_batch(tree, X)
    else:
        raise ValueError(f"unknown model kind {model_kind!r}")
    return fit


# ----- independent fits on every usable CPU -------------------------------------

Fit = tuple[int, Callable[[], Any]]  # (training rows, a fit to call)


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
    """Call a share's fits in order; the first that raises ends the share, its
    exception standing as its outcome."""
    outcomes: dict[int, Any] = {}
    for i in share:
        try:
            outcomes[i] = fits[i][1]()
        except Exception as exc:
            outcomes[i] = exc
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


def _value(outcome: Any) -> Any:
    """A fit's result; the exception it raised is raised here."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _fold_fits(
    data: Dataset, folds: list[np.ndarray], rng: np.random.Generator,
    fit: Callable[[Dataset, np.random.Generator], Callable[[np.ndarray], np.ndarray]],
) -> list[Fit]:
    """One fit per fold, each on its own seed: fit the other rows, predict the fold."""
    fold_seeds = rng.integers(0, 2**63, size=len(folds))

    def fold_fit(fold: np.ndarray, seed: int) -> Fit:
        mask = np.ones(len(data), dtype=bool)
        mask[fold] = False
        train_rows = np.flatnonzero(mask)

        def predict_fold() -> np.ndarray:
            predictor = fit(data.subset(train_rows), np.random.default_rng(seed))
            return predictor(data.features[fold])

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
    folds: int | None = None,
    train_fraction: float | None = None,
) -> tuple[ModelMetrics | None, BoostedModel]:
    """Validate by k-fold CV (`folds`), a holdout split (`train_fraction`) or not
    at all, and fit the boosted model on every row; all fits run at once on the
    usable CPUs.

    Validation draws from default_rng(seed) and the model from a fresh
    default_rng(seed), so its bytes depend only on the data and the seed. Errors
    come in the order of a serial run: validation fits, scoring, then the model.
    """
    hyper = hyper or Hyperparameters()
    fit, rng = _make_fitter("boosted", hyper), np.random.default_rng(seed)
    final = (len(data), lambda: fit_boosted(data, np.random.default_rng(seed), **asdict(hyper)))
    if folds is not None:
        parts = kfold_indices(len(data), folds, rng)
        *held_out, model = _fit_concurrently([*_fold_fits(data, parts, rng, fit), final])
        return _pooled_r2(data, parts, held_out), _value(model)
    if train_fraction is not None:
        train, test = split_train_test(data, train_fraction, rng)
        held_out, model = _fit_concurrently(
            [(len(train), lambda: fit(train, rng)(test.features)), final])
        validation = ModelMetrics(
            r2=r2_score(_value(held_out), test.targets),
            n_samples=len(test),
            scheme=f"holdout split (train={len(train)}, test={len(test)})",
        )
        return validation, _value(model)
    return None, final[1]()


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


def _tree_to_dict(tree: RegressionTree) -> dict[str, Any]:
    """The nested v1 form: {"value"} leaves, {"feature", "threshold", "left", "right"} splits."""
    docs: list[dict[str, Any]] = [{}] * len(tree.feature)
    for node in reversed(range(len(tree.feature))):  # children before parents
        if tree.feature[node] < 0:
            docs[node] = {"value": tree.value[node]}
        else:
            docs[node] = {
                "feature": tree.feature[node],
                "threshold": tree.threshold[node],
                "left": docs[tree.left[node]],
                "right": docs[tree.right[node]],
            }
    return docs[0]


def _finite(raw: Any, what: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ModelFormatError(f"{what} {value!r} is not finite")
    return value


def _tree_from_dict(doc: Any, n_features: int) -> RegressionTree:
    """Lay a nested v1 tree out in preorder; its child indices form a tree by construction."""
    nodes: list[list[Any]] = []
    pending: list[tuple[Any, int]] = [(doc, -1)]  # (node, parent it is the right child of)
    while pending:
        node_doc, parent = pending.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        if not isinstance(node_doc, dict):
            raise ModelFormatError("tree node must be a mapping")
        if "value" in node_doc:
            nodes.append([-1, -math.inf, node, node, _finite(node_doc["value"], "leaf value")])
            continue
        feature = int(node_doc["feature"])
        if not 0 <= feature < n_features:
            raise ModelFormatError(f"split feature {feature} is outside [0, {n_features})")
        threshold = _finite(node_doc["threshold"], "split threshold")
        nodes.append([feature, threshold, node + 1, -1, math.nan])
        pending += [(node_doc["right"], node), (node_doc["left"], -1)]
    return RegressionTree(*map(tuple, zip(*nodes)), n_features)


def model_to_dict(model: BoostedModel) -> dict[str, Any]:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "feature_names": list(model.feature_names),
        "loss": model.loss,
        "hyperparameters": asdict(model.hyperparameters),
        "stages": [
            {"weight": s.weight, "tree": _tree_to_dict(s.tree)}
            for s in model.stages
        ],
    }


def model_from_dict(doc: Any) -> BoostedModel:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        feature_names = tuple(str(n) for n in doc["feature_names"])
        hyper = Hyperparameters(**doc["hyperparameters"])
        stages = tuple(
            BoostStage(
                _tree_from_dict(entry["tree"], len(feature_names)),
                _finite(entry["weight"], "stage weight"),
            )
            for entry in doc["stages"]
        )
        loss = str(doc.get("loss", LINEAR_LOSS))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if not stages:
        raise ModelFormatError("model has no stages")
    return BoostedModel(feature_names, stages, hyper, loss)


def model_to_json(model: BoostedModel) -> str:
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def save_model(model: BoostedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model_to_json(model))


def load_model(path: str) -> BoostedModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    return model_from_dict(doc)
