"""A CART regression tree, implemented from scratch.

The L2 controller stores module costs in "a compact regression tree"
(Breiman's CART): binary axis-aligned splits chosen to maximise variance
reduction, with depth and leaf-size limits keeping the tree compact enough
for real-time queries.

Prediction never walks the node objects. At the end of :meth:`fit` and
:meth:`from_dict` the tree flattens itself into five parallel node
arrays (``feature``, ``threshold``, ``left``, ``right``, ``value``) in
which every leaf points at itself. :meth:`RegressionTree.predict` then
descends all rows together, one level per step and ``depth`` steps in
all, with the same ``x[feature] <= threshold`` comparison a node walk
makes; rows that reach a leaf early stay on it. The linked ``_Node``
tree is kept only as the serialised form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.common.validation import require_positive


@dataclass
class _Node:
    """One tree node; leaves carry a prediction, internals a split."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """Least-squares regression tree (CART).

    Parameters
    ----------
    max_depth:
        Maximum split depth (keeps the tree "compact").
    min_samples_leaf:
        Minimum training samples on each side of a split.
    min_variance_reduction:
        Minimum absolute reduction in sum-of-squares for a split to be
        accepted (pre-pruning).
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 4,
        min_variance_reduction: float = 1e-9,
    ) -> None:
        self.max_depth = int(require_positive(max_depth, "max_depth"))
        self.min_samples_leaf = int(
            require_positive(min_samples_leaf, "min_samples_leaf")
        )
        if min_variance_reduction < 0:
            raise ConfigurationError("min_variance_reduction must be >= 0")
        self.min_variance_reduction = min_variance_reduction
        self._root: _Node | None = None
        self._n_features = 0
        self._flat: tuple[np.ndarray, ...] = ()
        self._depth = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        """Fit the tree to ``features`` (n, d) and ``targets`` (n,)."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).reshape(-1)
        if x.shape[0] != y.size:
            raise ConfigurationError("features and targets must align")
        if y.size == 0:
            raise ConfigurationError("cannot fit on an empty dataset")
        self._n_features = x.shape[1]
        self._root = self._build(x, y, depth=0)
        self._flatten()
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(y.mean()))
        if depth >= self.max_depth or y.size < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(x, y)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        """Exhaustive variance-reduction split search (sorted-scan)."""
        n = y.size
        parent_sse = float(((y - y.mean()) ** 2).sum())
        best: tuple[int, float] | None = None
        best_gain = self.min_variance_reduction
        for feature in range(x.shape[1]):
            order = np.argsort(x[:, feature], kind="stable")
            xs = x[order, feature]
            ys = y[order]
            cum_sum = np.cumsum(ys)
            cum_sq = np.cumsum(ys**2)
            total_sum, total_sq = cum_sum[-1], cum_sq[-1]
            # Candidate split after position i (left = 0..i).
            for i in range(self.min_samples_leaf - 1, n - self.min_samples_leaf):
                if xs[i] == xs[i + 1]:
                    continue  # cannot separate equal values
                left_n = i + 1
                right_n = n - left_n
                left_sse = cum_sq[i] - cum_sum[i] ** 2 / left_n
                right_sum = total_sum - cum_sum[i]
                right_sse = (total_sq - cum_sq[i]) - right_sum**2 / right_n
                gain = parent_sse - (left_sse + right_sse)
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float((xs[i] + xs[i + 1]) / 2.0))
        return best

    # ------------------------------------------------------------------
    # Prediction and introspection
    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d) or a single point (d,)."""
        self._require_fit()
        x = np.asarray(features, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self._n_features:
            raise ConfigurationError(
                f"expected {self._n_features} features, got {x.shape[1]}"
            )
        feature, threshold, left, right, value = self._flat
        rows = np.arange(x.shape[0])
        idx = np.zeros(x.shape[0], dtype=np.intp)
        for _ in range(self._depth):
            idx = np.where(
                x[rows, feature[idx]] <= threshold[idx], left[idx], right[idx]
            )
        out = value[idx]
        return out[0] if single else out

    def predict_one(self, point) -> float:
        """Scalar prediction for one input point."""
        return float(self.predict(np.asarray(point, dtype=float)))

    @property
    def depth(self) -> int:
        """Realised depth of the fitted tree."""
        self._require_fit()
        return self._depth

    @property
    def leaf_count(self) -> int:
        """Number of leaves in the fitted tree."""
        self._require_fit()
        left = self._flat[2]
        return int(np.count_nonzero(left == np.arange(left.size)))

    def _require_fit(self) -> _Node:
        if self._root is None:
            raise NotTrainedError("RegressionTree.fit must be called before use")
        return self._root

    # ------------------------------------------------------------------
    # Serialisation (trained-map artifacts round-trip through JSON)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form of the fitted tree; JSON-safe and loss-free."""
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_variance_reduction": self.min_variance_reduction,
            "n_features": self._n_features,
            "root": self._node_to_dict(self._require_fit()),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RegressionTree":
        """Rebuild a fitted tree from :meth:`to_dict` output."""
        for key in ("max_depth", "min_samples_leaf", "n_features", "root"):
            if key not in payload:
                raise ConfigurationError(f"tree payload needs a {key!r} key")
        tree = cls(
            max_depth=payload["max_depth"],
            min_samples_leaf=payload["min_samples_leaf"],
            min_variance_reduction=payload.get("min_variance_reduction", 1e-9),
        )
        tree._n_features = int(payload["n_features"])
        tree._root = cls._node_from_dict(payload["root"])
        tree._flatten()
        return tree

    def _flatten(self) -> None:
        """Lay the fitted ``_Node`` tree out as the arrays ``predict`` reads.

        Nodes are numbered in pre-order; a leaf's ``left`` and ``right``
        are its own index, so extra descent steps leave a row in place.
        """
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def visit(node: _Node) -> tuple[int, int]:
            """Append ``node``'s subtree; return its index and height."""
            idx = len(value)
            feature.append(max(node.feature, 0))
            threshold.append(node.threshold)
            left.append(idx)
            right.append(idx)
            value.append(node.prediction)
            if node.is_leaf:
                return idx, 0
            left[idx], left_height = visit(node.left)
            right[idx], right_height = visit(node.right)
            return idx, 1 + max(left_height, right_height)

        _, self._depth = visit(self._require_fit())
        self._flat = (
            np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=float),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            np.array(value, dtype=float),
        )

    @classmethod
    def _node_to_dict(cls, node: _Node) -> dict:
        if node.is_leaf:
            return {"prediction": node.prediction}
        return {
            "prediction": node.prediction,
            "feature": node.feature,
            "threshold": node.threshold,
            "left": cls._node_to_dict(node.left),
            "right": cls._node_to_dict(node.right),
        }

    @classmethod
    def _node_from_dict(cls, payload: dict) -> _Node:
        node = _Node(prediction=float(payload["prediction"]))
        if "left" in payload:
            node.feature = int(payload["feature"])
            node.threshold = float(payload["threshold"])
            node.left = cls._node_from_dict(payload["left"])
            node.right = cls._node_from_dict(payload["right"])
        return node
