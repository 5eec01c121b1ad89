"""From-scratch regression trees and gradient boosting — pure NumPy.

SpChar (PAPERS.md) shows decision trees over sparse-structure features
are enough to predict which architectural knobs matter; this module is
the stdlib+NumPy implementation backing :mod:`repro.model`.  No sklearn:
the container has what it has, and the model must stay deterministic and
serializable down to the bit.

Two pieces:

* :class:`RegressionTree` — a CART regressor with exact greedy
  variance-reduction splits, stored as flat node arrays (feature index,
  threshold, child links, leaf value) so prediction is a vectorized
  iterative descent and serialization is plain lists;
* :class:`GradientBoostedTrees` — squared-loss boosting over those
  trees: each stage fits the residual of the running prediction on a
  seeded row subsample, scaled by the learning rate.

Determinism contract: every tie (equal-gain splits, equal-gain
thresholds) breaks toward the lowest feature index / leftmost sorted
position, the subsampler draws from a seeded generator, and payload
round-trips are bit-identical (Python's ``json`` preserves float64
exactly).  The determinism analysis family (``python -m
repro.analysis``) holds this package to the sweep-worker scope: seeded
RNG only, no wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import ModelError

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int32]

#: sentinel feature index marking a leaf node
_LEAF = -1

#: minimum gain for a split to beat "no split" (guards float noise)
_MIN_GAIN = 1e-12


def _as_matrix(X: npt.ArrayLike) -> FloatArray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise ModelError(f"feature matrix must be 2-D, got shape {arr.shape}")
    return arr


def _as_target(y: npt.ArrayLike, rows: int) -> FloatArray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1 or arr.size != rows:
        raise ModelError(
            f"target must be 1-D with {rows} rows, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ModelError("target contains non-finite values")
    return arr


def _best_split(
    X: FloatArray, y: FloatArray, min_leaf: int
) -> Tuple[float, int, float]:
    """Exact greedy split: ``(gain, feature, threshold)``.

    Gain is the parent SSE minus the children's summed SSE, computed for
    every candidate position of every feature via cumulative sums.  A
    negative feature index means no valid split exists.
    """
    n = y.size
    total_sum = float(y.sum())
    total_sq = float((y * y).sum())
    parent_sse = total_sq - total_sum * total_sum / n
    best_gain = 0.0
    best_feature = _LEAF
    best_threshold = 0.0
    left_cnt = np.arange(1, n, dtype=np.float64)
    right_cnt = n - left_cnt
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        if xs[0] == xs[-1]:
            continue  # constant feature in this node
        ys = y[order]
        left_sum = np.cumsum(ys)[:-1]
        right_sum = total_sum - left_sum
        child_sse = (
            total_sq
            - left_sum * left_sum / left_cnt
            - right_sum * right_sum / right_cnt
        )
        valid = (
            (xs[1:] > xs[:-1])
            & (left_cnt >= min_leaf)
            & (right_cnt >= min_leaf)
        )
        if not bool(valid.any()):
            continue
        gains = np.where(valid, parent_sse - child_sse, -np.inf)
        k = int(np.argmax(gains))  # leftmost max: deterministic tie-break
        gain = float(gains[k])
        if gain > best_gain + _MIN_GAIN:  # strict: lowest feature wins ties
            best_gain = gain
            best_feature = j
            best_threshold = float((xs[k] + xs[k + 1]) / 2.0)
    return best_gain, best_feature, best_threshold


@dataclass(frozen=True)
class RegressionTree:
    """A fitted CART regressor as flat node arrays.

    ``feature[i] == -1`` marks node *i* a leaf predicting ``value[i]``;
    internal nodes route ``x[feature] <= threshold`` to ``left``, else
    ``right``.  Arrays, not objects: prediction descends all rows in
    lockstep and serialization is a dict of lists.
    """

    feature: IntArray
    threshold: FloatArray
    left: IntArray
    right: IntArray
    value: FloatArray

    @classmethod
    def fit(
        cls,
        X: npt.ArrayLike,
        y: npt.ArrayLike,
        *,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
    ) -> "RegressionTree":
        """Grow a tree by exact greedy variance reduction."""
        if max_depth < 1:
            raise ModelError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ModelError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        mat = _as_matrix(X)
        target = _as_target(y, mat.shape[0])
        if mat.shape[0] == 0:
            raise ModelError("cannot fit a tree on an empty dataset")
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[float] = []

        def grow(idx: npt.NDArray[np.int64], depth: int) -> int:
            node = len(feature)
            ysub = target[idx]
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(float(ysub.mean()))
            if depth >= max_depth or idx.size < 2 * min_samples_leaf:
                return node
            gain, j, thr = _best_split(mat[idx], ysub, min_samples_leaf)
            if j < 0 or gain <= _MIN_GAIN:
                return node
            mask = mat[idx, j] <= thr
            feature[node] = j
            threshold[node] = thr
            left[node] = grow(idx[mask], depth + 1)
            right[node] = grow(idx[~mask], depth + 1)
            return node

        grow(np.arange(mat.shape[0], dtype=np.int64), 0)
        return cls(
            feature=np.asarray(feature, dtype=np.int32),
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            value=np.asarray(value, dtype=np.float64),
        )

    def predict(self, X: npt.ArrayLike) -> FloatArray:
        """Predict every row: lockstep descent from the root."""
        mat = _as_matrix(X)
        n = mat.shape[0]
        node = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        while True:
            feat = self.feature[node]
            active = feat >= 0
            if not bool(active.any()):
                break
            cols = np.where(active, feat, 0)
            go_left = mat[rows, cols] <= self.threshold[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            node = np.where(active, nxt, node)
        out: FloatArray = self.value[node]
        return out

    @property
    def num_nodes(self) -> int:
        return int(self.feature.size)

    @property
    def depth(self) -> int:
        """Longest root-to-leaf path (0 for a single-leaf tree)."""
        depths = np.zeros(self.num_nodes, dtype=np.int64)
        # children always follow their parent in the arrays, so one
        # forward pass settles every depth
        for i in range(self.num_nodes):
            if self.feature[i] >= 0:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
        return int(depths.max()) if self.num_nodes else 0

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe node arrays; round-trips bit-identically."""
        return {
            "feature": [int(v) for v in self.feature],
            "threshold": [float(v) for v in self.threshold],
            "left": [int(v) for v in self.left],
            "right": [int(v) for v in self.right],
            "value": [float(v) for v in self.value],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RegressionTree":
        try:
            tree = cls(
                feature=np.asarray(payload["feature"], dtype=np.int32),
                threshold=np.asarray(payload["threshold"], dtype=np.float64),
                left=np.asarray(payload["left"], dtype=np.int32),
                right=np.asarray(payload["right"], dtype=np.int32),
                value=np.asarray(payload["value"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed tree payload: {exc}") from exc
        sizes = {
            tree.feature.size,
            tree.threshold.size,
            tree.left.size,
            tree.right.size,
            tree.value.size,
        }
        if len(sizes) != 1 or not tree.num_nodes:
            raise ModelError("malformed tree payload: ragged or empty arrays")
        internal = tree.feature >= 0
        kids = np.concatenate([tree.left[internal], tree.right[internal]])
        if kids.size and (kids.min() < 0 or kids.max() >= tree.num_nodes):
            raise ModelError("malformed tree payload: child index out of range")
        return tree


@dataclass(frozen=True)
class GradientBoostedTrees:
    """Squared-loss gradient boosting over :class:`RegressionTree` stages."""

    base_score: float
    learning_rate: float
    trees: Tuple[RegressionTree, ...]

    @classmethod
    def fit(
        cls,
        X: npt.ArrayLike,
        y: npt.ArrayLike,
        *,
        n_estimators: int = 150,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
        subsample: float = 0.8,
        seed: int = 7,
    ) -> "GradientBoostedTrees":
        """Fit deterministically: same data + same seed = same model."""
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be >= 1, got {n_estimators}")
        if not (0.0 < learning_rate <= 1.0):
            raise ModelError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        if not (0.0 < subsample <= 1.0):
            raise ModelError(f"subsample must be in (0, 1], got {subsample}")
        mat = _as_matrix(X)
        target = _as_target(y, mat.shape[0])
        if mat.shape[0] == 0:
            raise ModelError("cannot fit a model on an empty dataset")
        rng = np.random.default_rng(seed)
        running = np.full(mat.shape[0], float(target.mean()))
        floor = max(2 * min_samples_leaf, 2)
        stages: List[RegressionTree] = []
        for _ in range(n_estimators):
            residual = target - running
            if subsample < 1.0 and mat.shape[0] > floor:
                take = rng.random(mat.shape[0]) < subsample
                if int(take.sum()) < floor:
                    take = np.ones(mat.shape[0], dtype=bool)
            else:
                take = np.ones(mat.shape[0], dtype=bool)
            tree = RegressionTree.fit(
                mat[take],
                residual[take],
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
            )
            running = running + learning_rate * tree.predict(mat)
            stages.append(tree)
        return cls(
            base_score=float(target.mean()),
            learning_rate=float(learning_rate),
            trees=tuple(stages),
        )

    def predict(self, X: npt.ArrayLike) -> FloatArray:
        mat = _as_matrix(X)
        out = np.full(mat.shape[0], self.base_score)
        for tree in self.trees:
            out = out + self.learning_rate * tree.predict(mat)
        result: FloatArray = out
        return result

    @property
    def n_estimators(self) -> int:
        return len(self.trees)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "base_score": float(self.base_score),
            "learning_rate": float(self.learning_rate),
            "trees": [tree.to_payload() for tree in self.trees],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "GradientBoostedTrees":
        try:
            base = float(payload["base_score"])
            rate = float(payload["learning_rate"])
            raw: List[Dict[str, Any]] = list(payload["trees"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed ensemble payload: {exc}") from exc
        if not raw:
            raise ModelError("malformed ensemble payload: no trees")
        return cls(
            base_score=base,
            learning_rate=rate,
            trees=tuple(RegressionTree.from_payload(t) for t in raw),
        )


def mape(y_true: npt.ArrayLike, y_pred: npt.ArrayLike) -> float:
    """Mean absolute percentage error over strictly-positive truths."""
    truth = np.asarray(y_true, dtype=np.float64)
    pred = np.asarray(y_pred, dtype=np.float64)
    if truth.shape != pred.shape:
        raise ModelError(
            f"shape mismatch: truth {truth.shape} vs pred {pred.shape}"
        )
    keep = truth > 0
    if not bool(keep.any()):
        return float("nan")
    return float(np.abs((pred[keep] - truth[keep]) / truth[keep]).mean())


def holdout_split(
    n: int, row_ids: List[str], holdout_fraction: float
) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Deterministic train/holdout indices keyed on row identity.

    Hash-based, not RNG-based: the same row lands on the same side of the
    split no matter how the dataset was assembled or ordered, so accuracy
    numbers are comparable across mining runs.
    """
    import hashlib

    if n != len(row_ids):
        raise ModelError(f"{n} rows but {len(row_ids)} row ids")
    if not (0.0 <= holdout_fraction < 1.0):
        raise ModelError(
            f"holdout_fraction must be in [0, 1), got {holdout_fraction}"
        )
    cut = int(holdout_fraction * 2**32)
    buckets = np.asarray(
        [
            int.from_bytes(
                hashlib.sha256(rid.encode("utf-8")).digest()[:4], "big"
            )
            for rid in row_ids
        ],
        dtype=np.int64,
    )
    test = buckets < cut
    idx = np.arange(n, dtype=np.int64)
    train, holdout = idx[~test], idx[test]
    if train.size == 0:  # tiny datasets: never return an empty train side
        train, holdout = holdout, train
    return train, holdout
