"""Tests for the CART regression tree."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError, NotTrainedError
from repro.approximation import RegressionTree


class TestFitBasics:
    def test_requires_fit(self):
        with pytest.raises(NotTrainedError):
            RegressionTree().predict(np.zeros((1, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.zeros((0, 1)), np.zeros(0))

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.zeros((3, 1)), np.zeros(2))

    def test_constant_target_single_leaf(self):
        tree = RegressionTree().fit(np.arange(20.0).reshape(-1, 1), np.full(20, 3.0))
        assert tree.leaf_count == 1
        assert tree.predict_one([5.0]) == pytest.approx(3.0)

    def test_wrong_feature_count_rejected(self):
        tree = RegressionTree().fit(np.zeros((4, 2)), np.arange(4.0))
        with pytest.raises(ConfigurationError):
            tree.predict(np.zeros((1, 3)))


class TestFitQuality:
    def test_recovers_step_function(self):
        x = np.linspace(0, 1, 200).reshape(-1, 1)
        y = np.where(x[:, 0] < 0.5, 1.0, 5.0)
        tree = RegressionTree(max_depth=2).fit(x, y)
        assert tree.predict_one([0.2]) == pytest.approx(1.0)
        assert tree.predict_one([0.8]) == pytest.approx(5.0)

    def test_beats_mean_predictor_on_smooth_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (500, 2))
        y = np.sin(4 * x[:, 0]) + x[:, 1] ** 2
        tree = RegressionTree(max_depth=8, min_samples_leaf=4).fit(x, y)
        predictions = tree.predict(x)
        mse_tree = np.mean((predictions - y) ** 2)
        mse_mean = np.var(y)
        assert mse_tree < mse_mean / 10

    def test_splits_on_relevant_feature(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (300, 3))
        y = np.where(x[:, 1] < 0.5, 0.0, 10.0)  # only feature 1 matters
        tree = RegressionTree(max_depth=1).fit(x, y)
        assert tree._root.feature == 1

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (400, 1))
        y = rng.normal(0, 1, 400)
        tree = RegressionTree(max_depth=3, min_variance_reduction=0.0).fit(x, y)
        assert tree.depth <= 3

    def test_min_samples_leaf_respected(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.arange(10.0)
        tree = RegressionTree(max_depth=10, min_samples_leaf=5).fit(x, y)
        # With 10 samples and 5-per-leaf, at most one split is possible.
        assert tree.leaf_count <= 2

    def test_single_point_prediction_matches_batch(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (100, 2))
        y = x[:, 0] * 3
        tree = RegressionTree().fit(x, y)
        batch = tree.predict(x[:5])
        singles = [tree.predict_one(row) for row in x[:5]]
        assert np.allclose(batch, singles)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=-10, max_value=10),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_predictions_inside_target_hull(self, rows):
        x = np.array([[r[0]] for r in rows])
        y = np.array([r[1] for r in rows])
        tree = RegressionTree(max_depth=4, min_samples_leaf=1).fit(x, y)
        predictions = tree.predict(x)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_deeper_trees_never_fit_worse(self, depth):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (200, 1))
        y = np.sin(6 * x[:, 0])
        shallow = RegressionTree(max_depth=depth, min_samples_leaf=1).fit(x, y)
        deep = RegressionTree(max_depth=depth + 2, min_samples_leaf=1).fit(x, y)
        mse_shallow = np.mean((shallow.predict(x) - y) ** 2)
        mse_deep = np.mean((deep.predict(x) - y) ** 2)
        assert mse_deep <= mse_shallow + 1e-12


def _walk(node, row):
    """Reference prediction: follow one row down the linked nodes."""
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prediction


def _thresholds(node):
    if node.is_leaf:
        return []
    return [node.threshold] + _thresholds(node.left) + _thresholds(node.right)


@st.composite
def fitted_trees(draw):
    """Trees fitted on random data; rounded features give tied values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 3))
    x = rng.normal(0.0, 10.0, (n, d)).round(draw(st.integers(0, 3)))
    y = rng.normal(0.0, 5.0, n)
    return RegressionTree(
        max_depth=draw(st.integers(1, 7)),
        min_samples_leaf=draw(st.integers(1, 4)),
        min_variance_reduction=0.0,
    ).fit(x, y)


@st.composite
def query_batches(draw, tree):
    """Query rows mixing random floats, exact thresholds and ±inf/NaN."""
    edges = [
        value
        for t in _thresholds(tree._root)
        for value in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf))
    ]
    values = st.one_of(
        st.sampled_from(edges + [np.inf, -np.inf, np.nan, 0.0, -0.0]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    d = tree._n_features
    rows = draw(st.lists(st.lists(values, min_size=d, max_size=d), max_size=24))
    return np.array(rows, dtype=float).reshape(-1, d)


class TestFlatDescent:
    """``predict`` descends node arrays; it must equal the node walk."""

    @settings(max_examples=150, deadline=None)
    @given(fitted_trees(), st.data())
    def test_predict_equals_reference_walk(self, tree, data):
        x = data.draw(query_batches(tree))
        expected = np.array([_walk(tree._root, row) for row in x])
        predicted = tree.predict(x)
        assert predicted.shape == (x.shape[0],)
        assert (predicted == expected).all()

    @settings(max_examples=50, deadline=None)
    @given(fitted_trees(), st.data())
    def test_point_matches_one_row_batch(self, tree, data):
        x = data.draw(query_batches(tree).filter(lambda b: b.shape[0] > 0))
        point = tree.predict(x[0])
        assert np.ndim(point) == 0
        assert point == tree.predict(x[:1])[0] == _walk(tree._root, x[0])
        assert tree.predict_one(x[0]) == point

    def test_zero_row_batch(self):
        tree = RegressionTree().fit(np.arange(20.0).reshape(-1, 2), np.arange(10.0))
        assert tree.predict(np.empty((0, 2))).shape == (0,)

    @settings(max_examples=50, deadline=None)
    @given(fitted_trees(), st.data())
    def test_round_trip_predicts_bit_identically(self, tree, data):
        x = data.draw(query_batches(tree))
        rebuilt = RegressionTree.from_dict(json.loads(json.dumps(tree.to_dict())))
        assert (rebuilt.predict(x) == tree.predict(x)).all()
        assert rebuilt.depth == tree.depth
        assert rebuilt.leaf_count == tree.leaf_count

    def test_to_dict_keys_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, (200, 2))
        tree = RegressionTree(max_depth=4).fit(x, x[:, 0] + x[:, 1] ** 2)
        payload = tree.to_dict()
        assert set(payload) == {
            "max_depth",
            "min_samples_leaf",
            "min_variance_reduction",
            "n_features",
            "root",
        }
        stack = [payload["root"]]
        while stack:
            node = stack.pop()
            if "left" in node:
                assert set(node) == {"prediction", "feature", "threshold", "left", "right"}
                stack.extend((node["left"], node["right"]))
            else:
                assert set(node) == {"prediction"}
