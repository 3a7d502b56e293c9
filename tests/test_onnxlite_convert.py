"""NN-translation correctness: compiled graphs must reproduce the
source miniml model's predictions exactly (same float ops, same data)."""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    MLPClassifier,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.miniml.tree import LEAF
from repro.onnxlite import Graph, optimize
from repro.onnxlite.convert import (
    forest_to_graph,
    linear_to_graph,
    mlp_to_graph,
    pipeline_to_graph,
    tree_to_graph,
)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _final_index(g, X):
    """The (B, T) node-index tensor the tail reads leaf values with."""
    (last,) = [n.inputs[1] for n in g.nodes if n.inputs[0] == "tt_val"]
    return Graph(inputs=g.inputs, outputs=[last], nodes=g.nodes,
                 initializers=g.initializers).run({"X": X})[last]


def _data(n=300, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
    return X, y


class TestTreeToGEMM:
    def test_matches_tree_predict_value(self):
        X, y = _data()
        t = DecisionTree(max_depth=5, min_samples_leaf=2).fit(X, y)
        g = tree_to_graph(t)
        out = g.run({"X": X})["value"]
        _close(out, t.predict_value(X))

    def test_regression_tree(self):
        rng = np.random.default_rng(1)
        X = rng.random((200, 3))
        yr = 5 * X[:, 0] + np.where(X[:, 1] > 0.5, 3.0, -3.0)
        t = DecisionTree(task="regression", max_depth=4, min_samples_leaf=4).fit(X, yr)
        g = tree_to_graph(t)
        _close(g.run({"X": X})["value"][:, 0], t.predict(X))

    def test_single_leaf_tree(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.ones(20, dtype=int)
        t = DecisionTree().fit(X, y)
        g = tree_to_graph(t)
        out = g.run({"X": X})["value"]
        assert out.shape == (20, 1)
        _close(out, 1.0)

    def test_exactly_one_leaf_selected_per_row(self):
        # after the last traversal level every row's node index per tree
        # is that tree's leaf, shifted by the tree's offset in the flat
        # node arrays
        X, y = _data(100)
        X[::7, 3] = np.nan
        tree = DecisionTree(max_depth=6, min_samples_leaf=1).fit(X, y)
        rf = RandomForest(n_trees=4, max_depth=6, min_samples_leaf=1, max_features=0.6,
                          seed=5).fit(X, y)
        for g, members in [
            (tree_to_graph(tree), [(tree, np.arange(X.shape[1]))]),
            (forest_to_graph(rf), list(zip(rf.trees, rf.feature_subsets))),
        ]:
            idx = _final_index(g, X)
            offset = 0
            for t, (tree, cols) in enumerate(members):
                leaf = tree.apply(X[:, cols])
                np.testing.assert_array_equal(idx[:, t], leaf + offset)
                assert (tree.feature[idx[:, t] - offset] == LEAF).all()
                offset += tree.n_nodes

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_random_trees_match(self, seed, depth):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 4))
        y = (np.sin(X[:, 0]) + X[:, 1] > 0).astype(int)
        if len(np.unique(y)) < 2:
            return
        t = DecisionTree(max_depth=depth, min_samples_leaf=2).fit(X, y)
        g = tree_to_graph(t)
        Xq = rng.standard_normal((80, 4))
        _close(g.run({"X": Xq})["value"], t.predict_value(Xq))


class TestForestToGraph:
    def test_matches_forest_proba(self):
        X, y = _data(400)
        rf = RandomForest(n_trees=7, max_depth=4, max_features=0.6, seed=3).fit(X, y)
        g = forest_to_graph(rf)
        _close(g.run({"X": X})["value"], rf.predict_proba(X))

    def test_regression_forest(self):
        rng = np.random.default_rng(2)
        X = rng.random((300, 4))
        yr = X[:, 0] * 10 + X[:, 1]
        rf = RandomForest(n_trees=4, task="regression", max_depth=4).fit(X, yr)
        g = forest_to_graph(rf)
        _close(g.run({"X": X})["value"][:, 0], rf.predict(X))

    def test_optimized_graph_matches(self):
        X, y = _data(200)
        rf = RandomForest(n_trees=3, max_depth=3, seed=1).fit(X, y)
        g = optimize(forest_to_graph(rf))
        _close(g.run({"X": X})["value"], rf.predict_proba(X))


def _poison(X, rng, frac, cols=None):
    """Overwrite a ``frac`` share of ``X[:, cols]`` with NaN / ±inf."""
    X = X.copy()
    cols = np.arange(X.shape[1]) if cols is None else np.asarray(cols)
    mask = rng.random((len(X), len(cols))) < frac
    block = X[:, cols]
    block[mask] = rng.choice([np.nan, np.inf, -np.inf], mask.sum())
    X[:, cols] = block
    return X


class TestNonFiniteInputs:
    """NaN and ±inf fail every ``x <= t`` test and go right, in split
    features; in features no split reads they change nothing."""

    def _fit_data(self, n=300, seed=0):
        X, y = _data(n, d=6, seed=seed)
        X[:, 5] = 0.0  # constant: no split can use it
        return X, y

    def test_tree(self):
        X, y = self._fit_data()
        t = DecisionTree(max_depth=6, min_samples_leaf=2).fit(X, y)
        g = tree_to_graph(t)
        rng = np.random.default_rng(1)
        Xq = _poison(X, rng, 0.2)
        _close(g.run({"X": Xq})["value"], t.predict_value(Xq))
        unused = _poison(X, rng, 0.5, cols=[5])
        _close(g.run({"X": unused})["value"], t.predict_value(X))

    def test_forest_with_member_missing_a_class(self):
        X, y = self._fit_data()
        y[0] = 2  # a class only some bootstraps draw
        rf = RandomForest(n_trees=6, max_depth=5, max_features=0.7, seed=4).fit(X, y)
        assert any(len(t.classes_) < len(rf.classes_) for t in rf.trees)
        g = forest_to_graph(rf)
        rng = np.random.default_rng(2)
        Xq = _poison(X, rng, 0.2)
        _close(g.run({"X": Xq})["value"], rf.predict_proba(Xq))
        unused = _poison(X, rng, 0.5, cols=[5])
        _close(g.run({"X": unused})["value"], rf.predict_proba(X))

    def test_regression_forest(self):
        X, _ = self._fit_data()
        rf = RandomForest(n_trees=4, task="regression", max_depth=4, seed=1).fit(
            X, X[:, 0] * 10 + X[:, 1])
        Xq = _poison(X, np.random.default_rng(3), 0.3)
        _close(forest_to_graph(rf).run({"X": Xq})["value"][:, 0], rf.predict(Xq))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(1, 8),
        n_trees=st.integers(1, 5),
        n_single_leaf=st.integers(0, 2),
        regression=st.booleans(),
        frac=st.sampled_from([0.0, 0.1, 0.4]),
    )
    def test_random_forests_match(self, seed, depth, n_trees, n_single_leaf, regression,
                                  frac):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((80, 4))
        if regression:
            y = 3 * X[:, 0] + X[:, 1]
        else:
            y = (X[:, 0] + X[:, 1] > 0).astype(int)
            y[0] = 2  # most bootstraps miss this class
        rf = RandomForest(n_trees=n_trees, task="regression" if regression else "classification",
                          max_depth=depth, min_samples_leaf=1, max_features=0.75,
                          seed=seed).fit(X, y)
        for i in range(min(n_single_leaf, n_trees)):
            tree = rf.trees[i]
            rf.trees[i] = tree.subtree(int(np.argmax(tree.feature == LEAF)))
        Xq = _poison(rng.standard_normal((60, 4)), rng, frac)
        got = forest_to_graph(rf).run({"X": Xq})["value"]
        if regression:
            _close(got[:, 0], rf.predict(Xq))
        else:
            _close(got, rf.predict_proba(Xq))


class TestLinearToGraph:
    def test_logistic_score_and_proba(self):
        X, y = _data(300)
        m = LogisticRegressionL1(alpha=0.01).fit(X, y)
        out = linear_to_graph(m).run({"X": X})
        np.testing.assert_allclose(out["score"], m.decision_function(X))
        np.testing.assert_allclose(out["proba"], m.predict_proba(X)[:, 1])

    def test_linear_regression_score(self):
        from repro.miniml import LinearRegression

        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 3))
        m = LinearRegression().fit(X, X @ np.array([1.0, 2.0, 3.0]))
        out = linear_to_graph(m).run({"X": X})
        np.testing.assert_allclose(out["score"], m.predict(X))
        assert "proba" not in out


class TestMLPToGraph:
    def test_matches_mlp(self):
        X, y = _data(300)
        m = MLPClassifier(hidden=(16, 8), epochs=5, seed=0).fit(X, y)
        out = mlp_to_graph(m).run({"X": X})
        np.testing.assert_allclose(out["score"], m.decision_function(X))
        np.testing.assert_allclose(out["proba"], m.predict_proba(X)[:, 1])


def _mixed_df(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "age": rng.integers(18, 90, n).astype(float),
            "bp": rng.normal(120, 15, n),
            "dest": rng.choice(["JFK", "SEA", "SFO", "LAX"], n),
            "carrier": rng.choice(["AA", "DL", "UA"], n),
        }
    )


class TestPipelineToGraph:
    def _pipe(self, model, seed=0):
        df = _mixed_df(seed=seed)
        y = ((df["age"] > 50) & (df["dest"] == "JFK")).astype(int).to_numpy()
        # guarantee both classes
        y[:5] = 1
        y[5:10] = 0
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["dest", "carrier"]),
            model,
        ).fit(df, y)
        return pipe, df

    def test_tree_pipeline(self):
        pipe, df = self._pipe(DecisionTree(max_depth=4, min_samples_leaf=2))
        g = pipeline_to_graph(pipe)
        feeds = pipe.featurizer.transform_codes(df)
        _close(g.run(feeds)["value"], pipe.model.predict_value(pipe.featurizer.transform(df)))

    def test_forest_pipeline(self):
        pipe, df = self._pipe(RandomForest(n_trees=4, max_depth=3, seed=2))
        g = pipeline_to_graph(pipe)
        feeds = pipe.featurizer.transform_codes(df)
        _close(g.run(feeds)["value"], pipe.predict_proba(df))

    def test_logistic_pipeline(self):
        pipe, df = self._pipe(LogisticRegressionL1(alpha=0.001))
        g = pipeline_to_graph(pipe)
        feeds = pipe.featurizer.transform_codes(df)
        np.testing.assert_allclose(g.run(feeds)["score"], pipe.decision_function(df))

    def test_mlp_pipeline(self):
        pipe, df = self._pipe(MLPClassifier(hidden=(8,), epochs=3, seed=1))
        g = pipeline_to_graph(pipe)
        feeds = pipe.featurizer.transform_codes(df)
        np.testing.assert_allclose(g.run(feeds)["score"], pipe.decision_function(df))

    def test_serialized_pipeline_roundtrip(self, tmp_path):
        from repro.onnxlite import InferenceSession, save_graph

        pipe, df = self._pipe(DecisionTree(max_depth=3, min_samples_leaf=2))
        g = pipeline_to_graph(pipe)
        p = save_graph(g, str(tmp_path / "pipe"))
        sess = InferenceSession(p)
        feeds = pipe.featurizer.transform_codes(df)
        _close(sess.run(feeds)["value"], pipe.model.predict_value(pipe.featurizer.transform(df)))

    def test_unsupported_model_raises(self):
        import pytest

        from repro.miniml import KMeans

        pipe = Pipeline(TableFeaturizer(numeric_cols=["age"]), KMeans())
        with pytest.raises(TypeError):
            pipeline_to_graph(pipe)
