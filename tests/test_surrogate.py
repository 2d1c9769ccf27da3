"""Regression trees, boosting, scoring, validation, and model persistence."""

import hashlib
import math
import os
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import reference_tree
from conftest import assert_no_children
from heterotune import (
    Dataset,
    Hyperparameters,
    ModelFormatError,
    PatternMatchOracle,
    UndefinedScoreError,
    bundled_space,
    dataset_from_measurements,
    fit_boosted,
    fit_tree,
    gen_dataset,
    kfold_cv,
    kfold_indices,
    load_model,
    model_from_dict,
    model_to_dict,
    model_to_json,
    predict_boosted,
    predict_boosted_batch,
    predict_tree,
    predict_tree_batch,
    r2_score,
    save_model,
    split_train_test,
)
from heterotune import surrogate
from heterotune.surrogate import BoostStage, BoostedModel, RegressionTree, _build_tree, _column_codes


def dataset(rows, feature_names=None):
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(len(rows[0][0]))]
    return Dataset.from_rows(feature_names, rows)


def random_dataset(rng, n=200, d=4):
    X = rng.uniform(-5.0, 5.0, size=(n, d))
    y = X[:, 0] ** 2 - 3.0 * X[:, d - 1] + np.sin(X).sum(axis=1)
    return Dataset(tuple(f"f{i}" for i in range(d)), X, y)


# ----- dataset ------------------------------------------------------------------


def test_dataset_rejects_mixed_arity():
    with pytest.raises(ValueError):
        dataset([([1.0, 2.0], 1.0), ([1.0], 2.0)], feature_names=["a", "b"])


def test_dataset_rejects_non_finite_target():
    with pytest.raises(ValueError):
        dataset([([1.0], float("nan"))])


# ----- fit_tree / predict_tree ---------------------------------------------------


def test_constant_targets_single_leaf():
    data = dataset([([float(i)], 5.0) for i in range(10)])
    tree = fit_tree(data, max_depth=None, min_samples_leaf=1)
    assert tree.leaf_count() == 1
    assert predict_tree(tree, [123.0]) == 5.0


def test_depth_one_split_between_clusters():
    data = dataset([([0.0], 1.0), ([1.0], 1.0), ([10.0], 9.0), ([11.0], 9.0)])
    tree = fit_tree(data, max_depth=1, min_samples_leaf=1)
    assert tree.depth() == 1
    threshold = tree.threshold[0]
    assert 1.0 < threshold < 10.0
    assert predict_tree(tree, [0.0]) == 1.0
    assert predict_tree(tree, [11.0]) == 9.0


def test_max_depth_zero_predicts_mean():
    data = dataset([([0.0], 1.0), ([1.0], 2.0), ([2.0], 6.0)])
    tree = fit_tree(data, max_depth=0, min_samples_leaf=1)
    assert tree.leaf_count() == 1
    assert predict_tree(tree, [5.0]) == pytest.approx(3.0)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        Dataset(("f0",), np.empty((0, 1)), np.empty(0))


def test_value_at_threshold_goes_right():
    data = dataset([([0.0], 1.0), ([1.0], 1.0), ([10.0], 9.0), ([11.0], 9.0)])
    tree = fit_tree(data, max_depth=1, min_samples_leaf=1)
    assert predict_tree(tree, [tree.threshold[0]]) == 9.0


@pytest.mark.parametrize("max_depth", [8, None])
@pytest.mark.parametrize(
    "xs",
    [(1e308, 1.7e308, 1.7e308), (-1e308, -1.7e308, -1.7e308), (-1.7e308, 1.7e308)],
    ids=["positive", "negative", "opposite-signs"],
)
def test_split_near_float_max_has_finite_midpoint(xs, max_depth):
    # For the first two inputs the sum of the values either side of the cut overflows.
    data = dataset([([x], 1.0 if x == xs[0] else 0.0) for x in xs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = fit_tree(data, max_depth=max_depth, min_samples_leaf=1)
    lo, hi = sorted((xs[0], xs[-1]))
    assert tree.feature[0] == 0
    assert math.isfinite(tree.threshold[0]) and lo < tree.threshold[0] < hi
    assert tree.leaf_count() == 2
    assert [predict_tree(tree, [x]) for x in xs] == [1.0] + [0.0] * (len(xs) - 1)


def test_predict_tree_arity_mismatch():
    data = dataset([([0.0], 1.0), ([1.0], 2.0)])
    tree = fit_tree(data, max_depth=2, min_samples_leaf=1)
    with pytest.raises(ValueError):
        predict_tree(tree, [0.0, 1.0])


def test_fully_grown_tree_memorizes_training_rows():
    rng = np.random.default_rng(0)
    data = random_dataset(rng, n=64, d=3)
    tree = fit_tree(data, max_depth=None, min_samples_leaf=1)
    predictions = predict_tree_batch(tree, data.features)
    assert np.allclose(predictions, data.targets, rtol=0, atol=1e-12)


def emil_rows_with_ties(rng):
    """Emil rows drawn with replacement: duplicate rows tie in x and y."""
    emil = bundled_space("emil")
    rows = gen_dataset(emil, PatternMatchOracle(), sample=150, seed=4)
    data = dataset_from_measurements(emil, rows)
    return data.subset(rng.choice(len(data), size=300))


@pytest.mark.parametrize(
    "make_data",
    [lambda rng: random_dataset(rng, n=100, d=3), emil_rows_with_ties],
    ids=["continuous", "emil-ties"],
)
def test_tree_invariant_to_row_order(make_data):
    rng = np.random.default_rng(1)
    data = make_data(rng)
    shuffled = data.subset(rng.permutation(len(data)))
    t1 = fit_tree(data, max_depth=4, min_samples_leaf=2)
    t2 = fit_tree(shuffled, max_depth=4, min_samples_leaf=2)
    grid = np.vstack([rng.uniform(-5, 5, size=(500, data.features.shape[1])), data.features])
    assert np.array_equal(predict_tree_batch(t1, grid), predict_tree_batch(t2, grid))


def assert_same_tree(tree, reference):
    for name in ("feature", "left", "right"):
        assert getattr(tree, name) == getattr(reference, name), name
    for name in ("threshold", "value"):
        assert np.array_equal(
            getattr(tree, name), getattr(reference, name), equal_nan=True
        ), name


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 7])
@pytest.mark.parametrize("max_depth", [None, 0, 1, 8])
def test_level_wise_tree_matches_recursive_reference(emil_data, max_depth, min_samples_leaf):
    # Emil bootstraps as boosting draws them: duplicate rows, passed by index into
    # the full matrix, which the reference sees with unit weights. Duplicates tie
    # in x and y. Emil's CPU-W and ACC-W = 100 - CPU-W give splits of equal SSE
    # up to rounding, so summing in another order shows.
    _, data = emil_data
    X, y = data.features, data.targets
    n = len(y)
    rng = np.random.default_rng(100 + min_samples_leaf)
    for _ in range(4):
        rows = rng.choice(n, size=n)
        tree = _build_tree(X, y, _column_codes(X), rows, max_depth, min_samples_leaf)
        assert_same_tree(tree, reference_tree._build_tree(
            X[rows], y[rows], np.ones(n), max_depth, min_samples_leaf))
    X = rng.uniform(-5.0, 5.0, size=(300, 4))
    y = X[:, 0] ** 2 - 3.0 * X[:, 3] + np.sin(X).sum(axis=1)
    tree = fit_tree(Dataset(("a", "b", "c", "d"), X, y), max_depth, min_samples_leaf)
    assert_same_tree(tree, reference_tree._build_tree(
        X, y, np.ones(300), max_depth, min_samples_leaf))


def test_skewed_tree_memory_stays_bounded():
    # One large node beside many small ones at the same depth. Rows with x0 = 0
    # share x1 = 0 except 40 of them, which are peeled off a few per depth, so a
    # node of about 1960 rows is still split at depth 8; rows with x0 = 1 have
    # distinct x1 and noisy targets, and split into 28 nodes of at most 773 rows there.
    rng = np.random.default_rng(0)
    n = 2000
    x1 = np.concatenate([np.zeros(n - 40), np.arange(1.0, 41.0), rng.permutation(n)])
    X = np.column_stack([np.repeat([0.0, 1.0], n), x1])
    y = np.concatenate([rng.normal(size=n), 100.0 + rng.normal(size=n)])
    data = Dataset(("x0", "x1"), X, y)
    fit_tree(data, max_depth=None, min_samples_leaf=1)  # one-time allocations are not the fit's
    tracemalloc.start()
    try:
        fit_tree(data, max_depth=None, min_samples_leaf=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Measured: 1.8 MiB; with every node of a depth padded to its largest node, 13.9 MiB.
    assert peak < 4 * 2**20


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(2)
    data = random_dataset(rng, n=50, d=2)

    def leaf_sizes(node, idx):
        feature = tree.feature[node]
        if feature < 0:
            return [len(idx)]
        X = data.features[idx]
        left = idx[X[:, feature] < tree.threshold[node]]
        right = idx[X[:, feature] >= tree.threshold[node]]
        return leaf_sizes(tree.left[node], left) + leaf_sizes(tree.right[node], right)

    tree = fit_tree(data, max_depth=None, min_samples_leaf=7)
    assert min(leaf_sizes(0, np.arange(len(data)))) >= 7


def test_tree_arrays_are_preorder_with_self_looping_leaves():
    rng = np.random.default_rng(19)
    data = random_dataset(rng, n=120, d=3)
    tree = fit_tree(data, max_depth=5, min_samples_leaf=2)
    n = len(tree.feature)
    assert all(len(a) == n for a in (tree.threshold, tree.left, tree.right, tree.value))
    parents = [0] * n
    for node in range(n):
        if tree.feature[node] < 0:
            assert tree.threshold[node] == -math.inf
            assert tree.left[node] == tree.right[node] == node
            assert math.isfinite(tree.value[node])
        else:
            assert 0 <= tree.feature[node] < tree.n_features
            assert tree.left[node] == node + 1 < tree.right[node] < n
            assert math.isnan(tree.value[node])
            parents[tree.left[node]] += 1
            parents[tree.right[node]] += 1
    assert parents == [0] + [1] * (n - 1)
    assert tree.leaf_count() == tree.feature.count(-1) == (n + 1) // 2
    assert 1 <= tree.depth() <= 5


def test_depth_limit_respected():
    rng = np.random.default_rng(3)
    data = random_dataset(rng, n=200, d=3)
    tree = fit_tree(data, max_depth=3, min_samples_leaf=1)
    assert tree.depth() <= 3


# ----- boosting -----------------------------------------------------------------


def test_exactly_fittable_data_one_stage():
    # Two point clusters, 50 copies each: any bootstrap holds both patterns,
    # so the first depth-1 tree fits the whole data and zero loss stops boosting.
    data = dataset([([0.0], 1.0)] * 50 + [([10.0], 9.0)] * 50)
    model = fit_boosted(data, np.random.default_rng(0), n_estimators=25, max_depth=3)
    assert len(model.stages) == 1
    predictions = predict_boosted_batch(model, data.features)
    assert r2_score(predictions, data.targets) == 1.0


def test_boosted_deterministic_with_seed():
    rng_data = np.random.default_rng(4)
    data = random_dataset(rng_data, n=150, d=3)
    m1 = fit_boosted(data, np.random.default_rng(7), n_estimators=10, max_depth=4)
    m2 = fit_boosted(data, np.random.default_rng(7), n_estimators=10, max_depth=4)
    assert model_to_json(m1) == model_to_json(m2)


def test_boosted_needs_two_rows():
    with pytest.raises(ValueError):
        fit_boosted(dataset([([0.0], 1.0)]), np.random.default_rng(0))


def test_boosted_training_r2_at_least_single_tree():
    rng = np.random.default_rng(5)
    data = random_dataset(rng, n=300, d=4)
    hyper = dict(max_depth=4, min_samples_leaf=2)
    tree = fit_tree(data, **hyper)
    model = fit_boosted(
        data, np.random.default_rng(0), n_estimators=30, **hyper
    )
    tree_r2 = r2_score(predict_tree_batch(tree, data.features), data.targets)
    boost_r2 = r2_score(predict_boosted_batch(model, data.features), data.targets)
    assert boost_r2 >= tree_r2


def test_boosted_stage_count_capped():
    rng = np.random.default_rng(6)
    data = random_dataset(rng, n=200, d=4)
    model = fit_boosted(data, np.random.default_rng(0), n_estimators=5, max_depth=3)
    assert 1 <= len(model.stages) <= 5


def test_boosted_stage_weights_finite_positive():
    rng = np.random.default_rng(7)
    data = random_dataset(rng, n=200, d=4)
    model = fit_boosted(data, np.random.default_rng(1), n_estimators=10, max_depth=4)
    for stage in model.stages:
        assert np.isfinite(stage.weight)
        assert stage.weight > 0


@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -1.0])
def test_hyperparameters_reject_bad_learning_rate(rate):
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        Hyperparameters(learning_rate=rate)


def test_boosted_rejects_non_finite_stage_weight():
    # A finite rate so large that rate * log(1 / beta) overflows to inf.
    data = random_dataset(np.random.default_rng(7), n=200, d=4)
    with pytest.raises(ValueError, match="stage weight inf is not finite"):
        fit_boosted(data, np.random.default_rng(1), n_estimators=3, learning_rate=1e308)


# ----- combination rule -----------------------------------------------------------


def test_single_stage_prediction_is_tree_prediction():
    data = dataset([([0.0], 1.0), ([1.0], 1.0), ([10.0], 9.0), ([11.0], 9.0)])
    model = fit_boosted(data, np.random.default_rng(0), n_estimators=1, max_depth=2)
    assert len(model.stages) == 1
    x = [3.0]
    assert predict_boosted(model, x) == predict_tree(model.stages[0].tree, x)


def test_equal_weight_median_of_three():
    # three constant trees predicting 1, 2 and 9 with equal weights -> median 2
    data = dataset([([0.0], 1.0), ([1.0], 2.0)])
    model = fit_boosted(data, np.random.default_rng(0), n_estimators=1, max_depth=0)
    base = model.stages[0]
    stages = []
    for value in (1.0, 2.0, 9.0):
        leaf_tree = fit_tree(dataset([([0.0], value), ([1.0], value)]), 0, 1)
        stages.append(type(base)(tree=leaf_tree, weight=1.0))
    patched = type(model)(
        stages=tuple(stages),
        feature_names=model.feature_names,
        hyperparameters=model.hyperparameters,
        loss="linear",
    )
    assert predict_boosted(patched, [0.0]) == 2.0


def test_identical_stages_return_common_prediction():
    leaf = fit_tree(dataset([([0.0], 7.5), ([1.0], 7.5)]), 0, 1)
    data = dataset([([0.0], 1.0), ([1.0], 2.0)])
    model = fit_boosted(data, np.random.default_rng(0), n_estimators=1, max_depth=0)
    base = model.stages[0]
    patched = type(model)(
        stages=tuple(
            type(base)(tree=leaf, weight=w) for w in (0.2, 1.0, 3.0)
        ),
        feature_names=("f0",),
        hyperparameters=model.hyperparameters,
        loss="linear",
    )
    assert predict_boosted(patched, [0.0]) == 7.5


def test_predict_boosted_arity_mismatch():
    data = dataset([([0.0], 1.0), ([1.0], 2.0)])
    model = fit_boosted(data, np.random.default_rng(0), n_estimators=2, max_depth=1)
    with pytest.raises(ValueError):
        predict_boosted(model, [0.0, 1.0])


# ----- pinned emil model ----------------------------------------------------------

#: SHA-256 of model_to_json for the model below, recorded with the recursive
#: node-object trees that the flat arrays replaced.
EMIL_MODEL_SHA256 = "98e67d4392c7c08e68d82a996ef3cba97e01d14cd67c9dd4cdf6866f12909525"


@pytest.fixture(scope="module")
def emil_data():
    emil = bundled_space("emil")
    rows = gen_dataset(emil, PatternMatchOracle(), sample=400, seed=3)
    return emil, dataset_from_measurements(emil, rows)


@pytest.fixture(scope="module")
def small_emil_model(emil_data):
    emil, data = emil_data
    model = fit_boosted(data, np.random.default_rng(11), n_estimators=8, max_depth=6)
    return emil, model


def test_emil_model_bytes_pinned(small_emil_model):
    _, model = small_emil_model
    assert len(model.stages) == 8
    digest = hashlib.sha256(model_to_json(model).encode("utf-8")).hexdigest()
    assert digest == EMIL_MODEL_SHA256


def test_one_row_predict_matches_batch_bit_for_bit(small_emil_model):
    emil, model = small_emil_model
    configs = np.array([emil.encode(c) for c in emil.enumerate_all()], dtype=np.float64)
    # Off-grid rows too, and rows exactly on every split threshold.
    rng = np.random.default_rng(20)
    lows, highs = configs.min(axis=0), configs.max(axis=0)
    off_grid = rng.uniform(lows - 1.0, highs + 1.0, size=(500, configs.shape[1]))
    on_threshold = []
    for stage in model.stages:
        for node, feature in enumerate(stage.tree.feature):
            if feature >= 0:
                row = configs[node % len(configs)].copy()
                row[feature] = stage.tree.threshold[node]
                on_threshold.append(row)
    grid = np.vstack([configs, off_grid, np.array(on_threshold)])
    batch = predict_boosted_batch(model, grid)
    one_row = np.array([predict_boosted(model, row) for row in grid])
    assert np.array_equal(one_row, batch)


def leaf_model(predictions, weights):
    """A one-feature model whose stages are single leaves."""
    stages = tuple(
        BoostStage(
            RegressionTree(
                feature=(-1,), threshold=(-math.inf,), left=(0,), right=(0,),
                value=(value,), n_features=1,
            ),
            weight,
        )
        for value, weight in zip(predictions, weights)
    )
    return BoostedModel(("f0",), stages, Hyperparameters())


@pytest.mark.parametrize(
    "predictions, weights, expected",
    [
        # 0.0 and -0.0 tie: the lower stage index comes first, so -0.0 wins.
        ((0.0, -0.0, 1.0), (1.0, 1.0, 1.0), -0.0),
        ((2.0, 1.0, 2.0, 1.0, 2.0), (0.3, 0.1, 0.2, 0.4, 0.5), 2.0),
        # The running sum lands exactly on half the total at the second stage.
        ((4.0, 3.0, 2.0, 1.0), (0.5, 0.5, 0.5, 0.5), 2.0),
        # Sequential sums of 0.1 end at 0.9999999999999999, not 1.0.
        (tuple(float(v) for v in range(9, -1, -1)), (0.1,) * 10, 4.0),
        # 0.3 + 0.1 + 0.2 sums to 0.6000000000000001, so the first stage's 0.3
        # falls short of half; summed exactly, it would be the median.
        ((1.0, 2.0, 3.0), (0.3, 0.1, 0.2), 2.0),
        # fit_boosted keeps a lone stage of weight 0 when its first is degenerate.
        ((6.25,), (0.0,), 6.25),
    ],
    ids=[
        "signed-zero-tie", "equal-predictions", "exact-half", "tenths",
        "rounding-decides", "zero-weight",
    ],
)
def test_one_row_predict_matches_batch_on_ties(predictions, weights, expected):
    model = leaf_model(predictions, weights)
    rows = np.array([[0.0], [-1.0], [np.nan]])
    batch = predict_boosted_batch(model, rows)
    one_row = np.array([predict_boosted(model, row) for row in rows])
    assert one_row.tobytes() == batch.tobytes()
    assert one_row.tobytes() == np.full(len(rows), expected).tobytes()


# ----- r2_score -------------------------------------------------------------------


def test_r2_perfect():
    assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_r2_mean_predictor_zero():
    assert r2_score([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0


def test_r2_half():
    assert r2_score([1.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)


def test_r2_constant_targets_undefined():
    with pytest.raises(UndefinedScoreError):
        r2_score([1.0, 2.0], [3.0, 3.0])


def test_r2_length_mismatch():
    with pytest.raises(ValueError):
        r2_score([1.0], [1.0, 2.0])


def test_r2_affine_invariance():
    rng = np.random.default_rng(8)
    y = rng.normal(size=50)
    p = y + rng.normal(scale=0.3, size=50)
    base = r2_score(p, y)
    scaled = r2_score(2.5 * p + 7.0, 2.5 * y + 7.0)
    assert scaled == pytest.approx(base, rel=1e-12)


# ----- k-fold cross-validation -----------------------------------------------------


def test_kfold_indices_partition():
    folds = kfold_indices(23, 5, np.random.default_rng(0))
    assert len(folds) == 5
    combined = np.sort(np.concatenate(folds))
    assert np.array_equal(combined, np.arange(23))
    sizes = sorted(len(f) for f in folds)
    assert sizes == [4, 4, 5, 5, 5]
    assert max(sizes) - min(sizes) <= 1


def test_kfold_k_equals_n_is_leave_one_out():
    rng = np.random.default_rng(9)
    data = random_dataset(rng, n=12, d=2)
    metrics = kfold_cv(
        data,
        12,
        np.random.default_rng(0),
        hyper=Hyperparameters(n_estimators=3, max_depth=3),
    )
    assert metrics.n_samples == 12
    assert metrics.scheme == "12-fold cross-validation"


def test_kfold_k_above_n_rejected():
    rng = np.random.default_rng(10)
    data = random_dataset(rng, n=5, d=2)
    with pytest.raises(ValueError):
        kfold_cv(data, 6, np.random.default_rng(0))


def test_kfold_reproducible():
    rng = np.random.default_rng(11)
    data = random_dataset(rng, n=80, d=3)
    hyper = Hyperparameters(n_estimators=5, max_depth=4)
    a = kfold_cv(data, 4, np.random.default_rng(3), hyper=hyper)
    b = kfold_cv(data, 4, np.random.default_rng(3), hyper=hyper)
    assert a == b


def test_kfold_tree_kind_supported():
    rng = np.random.default_rng(12)
    data = random_dataset(rng, n=80, d=3)
    metrics = kfold_cv(
        data,
        4,
        np.random.default_rng(0),
        model_kind="tree",
        hyper=Hyperparameters(max_depth=5),
    )
    assert metrics.r2 <= 1.0


# ----- folds on every usable CPU -----------------------------------------------------


def serial_tree_cv_r2(data, k, rng, max_depth):
    """The folds of `kfold_cv(model_kind="tree")`, fitted one after another here."""
    folds = kfold_indices(len(data), k, rng)
    pooled = np.empty(len(data))
    for fold in folds:
        tree = fit_tree(data.subset(np.setdiff1d(np.arange(len(data)), fold)), max_depth)
        pooled[fold] = predict_tree_batch(tree, data.features[fold])
    return r2_score(pooled, data.targets)


def test_kfold_same_bits_on_any_cpu_count(cpus):
    data = random_dataset(np.random.default_rng(20), n=150, d=3)
    expected = serial_tree_cv_r2(data, 5, np.random.default_rng(4), 5)
    for n in (1, 2, 3):
        forked = cpus(n)
        metrics = kfold_cv(data, 5, np.random.default_rng(4), model_kind="tree",
                           hyper=Hyperparameters(max_depth=5))
        assert metrics.r2 == expected
        assert len(forked) == n - 1
    assert_no_children()


def refuse_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("why", ["one-cpu", "no-fork", "fork-fails", "thread"])
def test_kfold_falls_back_to_the_calling_process(cpus, monkeypatch, why):
    data = random_dataset(np.random.default_rng(21), n=60, d=2)
    expected = serial_tree_cv_r2(data, 4, np.random.default_rng(6), 4)
    forked = cpus(1 if why == "one-cpu" else 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if why == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif why == "fork-fails":
        monkeypatch.setattr(os, "fork", refuse_fork)
    elif why == "thread":
        waiter.start()
    try:
        metrics = kfold_cv(data, 4, np.random.default_rng(6), model_kind="tree",
                           hyper=Hyperparameters(max_depth=4))
    finally:
        release.set()
    assert metrics.r2 == expected
    assert forked == []


def failing_folds(monkeypatch, data, folds, failing, raised):
    """Make the boosted fit of each fold in `failing` raise, noting the pid that raised."""
    fit = surrogate.fit_boosted

    def fit_or_fail(train, rng, **hyper):
        for number in failing:
            if data.targets[folds[number][0]] not in train.targets:
                with open(raised, "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()}\n")
                raise FloatingPointError(f"fold {number} failed")
        return fit(train, rng, **hyper)

    monkeypatch.setattr(surrogate, "fit_boosted", fit_or_fail)


@pytest.mark.parametrize("failing", [(0, 3), (1, 2)])
def test_fold_error_from_a_child_is_the_serial_error(cpus, monkeypatch, tmp_path, deadline, failing):
    data = random_dataset(np.random.default_rng(22), n=40, d=2)
    hyper = Hyperparameters(n_estimators=3, max_depth=3)
    raised = tmp_path / "raised"
    folds = kfold_indices(len(data), 4, np.random.default_rng(5))
    failing_folds(monkeypatch, data, folds, failing, raised)
    for n in (1, 2, 3):
        cpus(n)
        raised.write_text("")
        with pytest.raises(FloatingPointError) as error:
            kfold_cv(data, 4, np.random.default_rng(5), hyper=hyper)
        assert str(error.value) == f"fold {failing[0]} failed"
        assert error.traceback[-1].name == "fit_or_fail"  # raised here, not re-raised
        assert_no_children()
        pids = {int(pid) for pid in raised.read_text().split()}
        assert any(pid != os.getpid() for pid in pids) == (n > 1)


@pytest.mark.parametrize("how, message", [
    (lambda: os._exit(7), "a fitting process exited with status 7 before sending its results"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "a fitting process was killed by signal 9 before sending its results"),
], ids=["exit", "kill"])
def test_child_that_dies_raises(cpus, monkeypatch, deadline, how, message):
    data = random_dataset(np.random.default_rng(23), n=40, d=2)
    caller, fit = os.getpid(), surrogate.fit_boosted

    def fit_or_die(train, rng, **hyper):
        if os.getpid() != caller:
            how()
        return fit(train, rng, **hyper)

    monkeypatch.setattr(surrogate, "fit_boosted", fit_or_die)
    cpus(2)
    with pytest.raises(ChildProcessError, match=message):
        kfold_cv(data, 4, np.random.default_rng(5), hyper=Hyperparameters(n_estimators=3))
    assert_no_children()


def test_interrupt_stops_and_reaps_the_children(cpus, monkeypatch, deadline):
    data = random_dataset(np.random.default_rng(24), n=40, d=2)
    caller = os.getpid()

    def interrupt_or_stall(train, rng, **hyper):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(surrogate, "fit_boosted", interrupt_or_stall)
    cpus(3)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        kfold_cv(data, 4, np.random.default_rng(5))
    assert time.perf_counter() - started < 30
    assert_no_children()


# ----- train/test split -------------------------------------------------------------


def test_split_sizes():
    rng = np.random.default_rng(13)
    data = random_dataset(rng, n=10, d=2)
    train, test = split_train_test(data, 0.8, np.random.default_rng(0))
    assert (len(train), len(test)) == (8, 2)


def test_split_is_disjoint_partition():
    rng = np.random.default_rng(14)
    data = random_dataset(rng, n=40, d=2)
    train, test = split_train_test(data, 0.7, np.random.default_rng(1))
    rows = {tuple(row) for row in data.features}
    train_rows = {tuple(row) for row in train.features}
    test_rows = {tuple(row) for row in test.features}
    assert train_rows | test_rows == rows
    assert not (train_rows & test_rows)
    assert len(train) + len(test) == len(data)


def test_split_reproducible():
    rng = np.random.default_rng(15)
    data = random_dataset(rng, n=30, d=2)
    a = split_train_test(data, 0.8, np.random.default_rng(2))
    b = split_train_test(data, 0.8, np.random.default_rng(2))
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)


def test_split_rejects_degenerate_fraction():
    rng = np.random.default_rng(16)
    data = random_dataset(rng, n=3, d=2)
    with pytest.raises(ValueError):
        split_train_test(data, 0.99, np.random.default_rng(0))
    with pytest.raises(ValueError):
        split_train_test(data, 1.5, np.random.default_rng(0))


# ----- persistence -------------------------------------------------------------------


def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    data = random_dataset(rng, n=120, d=4)
    model = fit_boosted(data, np.random.default_rng(5), n_estimators=8, max_depth=5)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert model_to_json(back) == model_to_json(model)
    grid = rng.uniform(-5, 5, size=(200, 4))
    assert np.array_equal(
        predict_boosted_batch(back, grid), predict_boosted_batch(model, grid)
    )


def test_model_dict_round_trip():
    rng = np.random.default_rng(18)
    data = random_dataset(rng, n=60, d=2)
    model = fit_boosted(data, np.random.default_rng(0), n_estimators=4, max_depth=3)
    assert model_to_json(model_from_dict(model_to_dict(model))) == model_to_json(model)


def test_model_format_error_on_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"stages": "nope"}')
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_model_format_error_on_missing_fields():
    with pytest.raises(ModelFormatError):
        model_from_dict({"feature_names": ["a"]})


def small_model_doc():
    rng = np.random.default_rng(21)
    data = random_dataset(rng, n=60, d=2)
    model = fit_boosted(data, np.random.default_rng(0), n_estimators=3, max_depth=3)
    return model_to_dict(model)


def first_node(doc, leaf):
    node = doc["stages"][0]["tree"]
    while ("value" in node) != leaf:
        node = node["left"]
    return node


@pytest.mark.parametrize(
    "leaf, key, bad",
    [
        (False, "feature", 2),
        (False, "feature", 7),
        (False, "feature", -1),
        (False, "threshold", float("nan")),
        (False, "threshold", float("inf")),
        (True, "value", float("nan")),
        (True, "value", float("-inf")),
    ],
)
def test_model_from_dict_rejects_bad_node(leaf, key, bad):
    doc = small_model_doc()
    first_node(doc, leaf)[key] = bad
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


def test_model_from_dict_rejects_non_finite_stage_weight():
    doc = small_model_doc()
    doc["stages"][1]["weight"] = float("nan")
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


def test_model_from_dict_rejects_non_mapping_child():
    doc = small_model_doc()
    first_node(doc, leaf=False)["right"] = [1.0]
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)



def test_load_model_rejects_too_deeply_nested_tree(tmp_path):
    depth = 100_000  # far past the JSON decoder's recursion limit
    tree = (
        '{"feature": 0, "threshold": 0.5, "left": ' * depth
        + '{"value": 1.0}'
        + ', "right": {"value": 2.0}}' * depth
    )
    path = tmp_path / "deep.json"
    path.write_text(
        '{"format": "boosted-regression-tree", "version": 1, '
        f'"stages": [{{"weight": 1.0, "tree": {tree}}}]}}'
    )
    with pytest.raises(ModelFormatError):
        load_model(path)
