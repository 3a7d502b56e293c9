"""NN translation, model clustering, and model/query splitting rules."""
import numpy as np
import pandas as pd
import pytest

from repro.analyzer import parse_inference_query
from repro.datasets import flights, hospital
from repro.ir import (
    Catalog,
    Cmp,
    Col,
    Filter,
    Lit,
    MLPredict,
    NNPredict,
    Project,
    Scan,
    Union,
    output_columns,
    walk,
)
from repro.ir.ops import ClusteredPredict
from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    MLPClassifier,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.optimizer import CrossOptimizer
from repro.optimizer.clustering import compile_clustered, to_clustered_predict
from repro.optimizer.inlining import tree_to_sql
from repro.optimizer.nn_translate import NNTranslation, translate_predict
from repro.optimizer.pruning import PredicateBasedModelPruning
from repro.optimizer.splitting import ModelQuerySplitting, split_predict
from repro.oracle import assert_equivalent
from repro.runtime.codegen import to_dataframe


@pytest.fixture(scope="module")
def hosp():
    return hospital.joined_frame(3000, seed=11)


@pytest.fixture(scope="module")
def fl():
    return flights.frame(8000, seed=11)


class TestNNTranslation:
    def test_tree_pipeline_translates_and_agrees(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(max_depth=4, min_samples_leaf=10),
        ).fit(hosp[hospital.FEATURES], y)
        node = MLPredict(Scan("t"), "m", pipe, "pred", kind="label")
        nn = translate_predict(node)
        assert isinstance(nn, NNPredict)
        np.testing.assert_allclose(
            nn.predict_pandas(hosp), node.predict_pandas(hosp)
        )

    def test_forest_proba_agrees(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            RandomForest(n_trees=4, max_depth=3, seed=3),
        ).fit(hosp[hospital.FEATURES], y)
        node = MLPredict(Scan("t"), "m", pipe, "pred", kind="proba")
        nn = translate_predict(node)
        np.testing.assert_allclose(nn.predict_pandas(hosp), node.predict_pandas(hosp))

    def test_mlp_pipeline_with_categoricals(self, fl):
        y = fl["delayed"].to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            MLPClassifier(hidden=(8,), epochs=2, seed=0),
        ).fit(fl, y)
        node = MLPredict(Scan("t"), "m", pipe, "pred", kind="proba")
        nn = translate_predict(node)
        np.testing.assert_allclose(
            nn.predict_pandas(fl), node.predict_pandas(fl), atol=1e-12
        )

    def test_rule_rewrites_all_predicts(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(max_depth=3, min_samples_leaf=10),
        ).fit(hosp[hospital.FEATURES], y)
        catalog = Catalog().add_table("t", hospital.FEATURES, set())
        plan = MLPredict(Scan("t"), "m", pipe, "pred", kind="proba")
        out, changed = NNTranslation().apply(plan, catalog)
        assert changed
        assert isinstance(out, NNPredict)
        out2, changed2 = NNTranslation().apply(out, catalog)
        assert not changed2

    def test_kmeans_model_not_translatable(self):
        from repro.miniml import KMeans

        pipe = Pipeline(TableFeaturizer(numeric_cols=["a"]), KMeans())
        catalog = Catalog().add_table("t", ["a"], set())
        plan = MLPredict(Scan("t"), "m", pipe, "p")
        _, changed = NNTranslation().apply(plan, catalog)
        assert not changed


class TestModelClustering:
    @pytest.fixture(scope="class")
    def lr_pipe(self, fl):
        y = fl["delayed"].to_numpy()
        return Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            LogisticRegressionL1(alpha=0.0005, max_iter=200),
        ).fit(fl, y)

    def test_clustered_predictions_match_original(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=4, cluster_col="dest", seed=0)
        np.testing.assert_allclose(
            cm.predict_proba1(fl), lr_pipe.predict_proba(fl)[:, 1], atol=1e-10
        )

    def test_cluster_models_have_fewer_features(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=8, cluster_col="dest", seed=0)
        assert cm.avg_features() < lr_pipe.featurizer.n_features

    def test_more_clusters_fewer_avg_features(self, lr_pipe, fl):
        sizes = [
            compile_clustered(lr_pipe, fl.head(3000), k=k, cluster_col="dest").avg_features()
            for k in [2, 8]
        ]
        assert sizes[1] < sizes[0]

    def test_every_category_routed(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=4, cluster_col="dest")
        assert set(cm.category_to_cluster) == set(flights.AIRPORTS)

    def test_timings_recorded(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(2000), k=2, cluster_col="dest")
        assert cm.cluster_seconds > 0
        assert cm.compile_seconds > 0

    def test_bad_cluster_col_raises(self, lr_pipe, fl):
        with pytest.raises(KeyError):
            compile_clustered(lr_pipe, fl, k=2, cluster_col="distance")

    def test_ir_node_agrees(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=4, cluster_col="dest")
        node = MLPredict(Scan("t"), "m", lr_pipe, "p", kind="proba")
        cnode = to_clustered_predict(node, cm)
        assert isinstance(cnode, ClusteredPredict)
        np.testing.assert_allclose(
            cnode.predict_pandas(fl), lr_pipe.predict_proba(fl)[:, 1], atol=1e-10
        )


class TestModelQuerySplitting:
    @pytest.fixture(scope="class")
    def tree_pipe(self, hosp):
        return Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(task="regression", max_depth=5, min_samples_leaf=20),
        ).fit(hosp[hospital.FEATURES], hosp["los"].to_numpy())

    def test_split_produces_union_of_two(self, tree_pipe):
        node = MLPredict(Scan("t"), "m", tree_pipe, "pred")
        u = split_predict(node)
        assert isinstance(u, Union)
        assert len(u.children) == 2
        for branch in u.children:
            assert isinstance(branch, MLPredict)
            assert isinstance(branch.child, Filter)

    def test_split_semantics_union_covers_all_rows(self, tree_pipe, hosp):
        node = MLPredict(Scan("t"), "m", tree_pipe, "pred")
        u = split_predict(node)
        left, right = u.children
        lp = left.child.predicate
        col = next(iter(lp.columns()))
        thr = None
        # evaluate each branch on its rows and compare with full model
        import duckdb

        con = duckdb.connect()
        con.register("t", hosp)
        lmask = con.execute(f"SELECT {lp.to_sql()} AS m FROM t").fetchdf()["m"].to_numpy()
        con.close()
        full = node.predict_pandas(hosp)
        got = np.empty(len(hosp))
        got[lmask] = left.predict_pandas(hosp[lmask])
        got[~lmask] = right.predict_pandas(hosp[~lmask])
        np.testing.assert_allclose(got, full)

    def test_branches_smaller_than_original(self, tree_pipe):
        u = split_predict(MLPredict(Scan("t"), "m", tree_pipe, "pred"))
        for branch in u.children:
            assert branch.pipeline.model.n_nodes < tree_pipe.model.n_nodes

    def test_leaf_tree_not_split(self):
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"a": rng.random(50)})
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["a"], scale=False),
            DecisionTree(task="regression"),
        ).fit(df, np.ones(50))
        assert split_predict(MLPredict(Scan("t"), "m", pipe, "p")) is None

    def test_rule_respects_max_splits(self, tree_pipe):
        catalog = Catalog().add_table("t", hospital.FEATURES, set())
        plan = MLPredict(Scan("t"), "m", tree_pipe, "pred")
        rule = ModelQuerySplitting(max_splits=1)
        out, changed = rule.apply(plan, catalog)
        assert changed
        out2, changed2 = rule.apply(out, catalog)
        assert not changed2

    def test_max_splits_binds_within_a_sweep(self, tree_pipe):
        """Two PREDICTs stack two MLPredicts; one sweep may split only
        one of them when the budget is one split."""
        catalog = Catalog().add_table("t", ["pid"] + hospital.FEATURES, {"pid"})
        models = {"m1": (tree_pipe, "label"), "m2": (tree_pipe, "label")}
        plan = parse_inference_query(
            "SELECT pid, PREDICT(MODEL m1) AS a, PREDICT(MODEL m2) AS b FROM t", catalog, models
        )
        assert sum(isinstance(n, MLPredict) for n in walk(plan)) == 2
        out, changed = ModelQuerySplitting(max_splits=1).apply(plan, catalog)
        assert changed
        assert sum(isinstance(n, Union) for n in walk(out)) == 1
        report = CrossOptimizer(rules=[ModelQuerySplitting(max_splits=1)]).optimize(
            plan, catalog)
        assert report.applied == ["model_query_splitting"]
        assert sum(isinstance(n, Union) for n in walk(report.plan)) == 1
        assert output_columns(report.plan, catalog) == ["pid", "a", "b"]

    def test_one_rule_object_splits_two_plans(self, tree_pipe):
        catalog = (Catalog().add_table("t", hospital.FEATURES, set())
                   .add_table("u", hospital.FEATURES, set()))
        opt = CrossOptimizer(rules=[ModelQuerySplitting()])
        for table in ("t", "u"):
            report = opt.optimize(MLPredict(Scan(table), "m", tree_pipe, "pred"), catalog)
            assert report.applied == ["model_query_splitting"]
            assert isinstance(report.plan, Union)

    def test_split_keeps_null_rows(self, spark, tree_pipe, hosp):
        """A NULL split value fails both ``x <= t`` and ``NOT (x <= t)``;
        the UNION must still score it, on the right branch as the tree
        does (the oracle runs the unsplit tree as a CASE expression)."""
        u = split_predict(MLPredict(Scan("t"), "m", tree_pipe, "pred"))
        (col,) = u.children[0].child.predicate.columns()
        pdf = hosp[["pid"] + hospital.FEATURES].head(300).astype({col: float})
        pdf.loc[pdf.index[:20], col] = np.nan  # DuckDB reads NaN as NULL
        # a nullable column makes Spark read NULL, not NaN
        t = spark.createDataFrame(pdf.astype({col: "Float64"}))
        assert t.where(f"{col} IS NULL").count() == 20
        plan = Project(u, [("pid", Col("pid")), ("pred", Col("pred"))])
        df = to_dataframe(plan, spark, {"t": t})
        case = tree_to_sql(tree_pipe.model, tree_pipe.featurizer)
        assert_equivalent(df, f"SELECT pid, {case} AS pred FROM t", t=pdf)

    def test_split_then_prune_shrinks_branches(self, tree_pipe):
        """The §2 cascade: split → each branch's filter prunes its model."""
        catalog = Catalog().add_table("t", hospital.FEATURES, set())
        plan = MLPredict(Scan("t"), "m", tree_pipe, "pred")
        u, _ = ModelQuerySplitting().apply(plan, catalog)
        pruned, changed = PredicateBasedModelPruning().apply(u, catalog)
        # each branch keeps agreeing with the original on its rows
        for branch in pruned.children:
            assert branch.pipeline.model.n_nodes <= tree_pipe.model.n_nodes
