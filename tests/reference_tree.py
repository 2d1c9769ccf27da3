"""The recursive CART builder that level-wise growth replaced, and the
nested v1 model writer that `model_to_json` replaced.

The builder is kept as it was, except that an SSE that overflowed to -inf
loses as a NaN or +inf one does.

`tests/test_surrogate.py` compares the trees of `heterotune.surrogate` with
the ones this builder grows: the five node arrays must be identical. It also
checks `model_to_json` against `json.dumps(model_to_dict(model), indent=2)`.
"""
from __future__ import annotations

import math
from typing import Any

import numpy as np

from heterotune.surrogate import BoostedModel, RegressionTree, _header


def _weighted_mean(y: np.ndarray, w: np.ndarray) -> float:
    # fsum is order independent, which keeps leaf values identical under
    # row permutations.
    total = math.fsum(w)
    if total > 0:
        return math.fsum(w * y) / total
    return math.fsum(y) / len(y)


def _best_split(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, min_samples_leaf: int
) -> tuple[int, float] | None:
    """Find the (feature, threshold) minimizing child SSE, or None.

    Thresholds are midpoints between consecutive distinct feature values.
    Ties are broken by the lowest feature index, then the lowest threshold.
    """
    n = len(y)
    best_sse = math.inf
    best: tuple[int, float] | None = None
    center = _weighted_mean(y, w)
    yc = y - center  # SSE is shift invariant; centering improves conditioning
    for j in range(X.shape[1]):
        xj = X[:, j]
        # Canonical ordering makes the cumulative sums, and therefore the
        # chosen split, independent of the input row order.
        order = np.lexsort((w, yc, xj))
        xs = xj[order]
        ys = yc[order]
        ws = w[order]
        wy = ws * ys
        cum_w = np.cumsum(ws)
        cum_wy = np.cumsum(wy)
        cum_wyy = np.cumsum(wy * ys)
        i = np.arange(n - 1)
        left_n = i + 1
        valid = (
            (xs[i] < xs[i + 1])
            & (left_n >= min_samples_leaf)
            & (n - left_n >= min_samples_leaf)
        )
        w_left = cum_w[i]
        w_right = cum_w[-1] - w_left
        valid &= (w_left > 0) & (w_right > 0)
        if not np.any(valid):
            continue
        s_left = cum_wy[i]
        q_left = cum_wyy[i]
        s_right = cum_wy[-1] - s_left
        q_right = cum_wyy[-1] - q_left
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = (q_left - s_left * s_left / w_left) + (
                q_right - s_right * s_right / w_right
            )
        sse = np.where(valid & np.isfinite(sse), sse, math.inf)
        k = int(np.argmin(sse))  # first minimum: lowest threshold wins
        if sse[k] < best_sse:
            threshold = (xs[k] + xs[k + 1]) / 2.0
            if threshold <= xs[k]:  # guard against midpoint rounding down
                threshold = float(xs[k + 1])
            best_sse = float(sse[k])
            best = (j, float(threshold))
    return best


def _build_tree(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    max_depth: int | None,
    min_samples_leaf: int,
) -> RegressionTree:
    nodes: list[list[Any]] = []  # [feature, threshold, left, right, value], preorder

    def grow(X: np.ndarray, y: np.ndarray, w: np.ndarray, depth: int) -> None:
        node = len(nodes)
        value = _weighted_mean(y, w)
        split = None
        if not (
            (max_depth is not None and depth >= max_depth)
            or len(y) < 2 * min_samples_leaf
            or np.all(y == y[0])
        ):
            split = _best_split(X, y, w, min_samples_leaf)
        if split is None:
            nodes.append([-1, -math.inf, node, node, value])
            return
        feature, threshold = split
        nodes.append([feature, threshold, node + 1, -1, math.nan])
        go_left = X[:, feature] < threshold
        grow(X[go_left], y[go_left], w[go_left], depth + 1)
        nodes[node][3] = len(nodes)  # the right subtree starts here
        grow(X[~go_left], y[~go_left], w[~go_left], depth + 1)

    grow(X, y, w, 0)
    return RegressionTree(*map(tuple, zip(*nodes)), X.shape[1])


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


def model_to_dict(model: BoostedModel) -> dict[str, Any]:
    """The v1 model document, built as nested dicts."""
    return {
        **_header(model),
        "stages": [
            {"weight": s.weight, "tree": _tree_to_dict(s.tree)}
            for s in model.stages
        ],
    }
