"""Runtime tests: codegen on Spark, model store, execution modes."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import flights, hospital
from repro.ir import Cmp, Col, Filter, Join, Lit, MLPredict, NNPredict, Project, Scan, Union
from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.onnxlite import clear_session_cache, get_cached_session, save_graph
from repro.onnxlite.convert import pipeline_to_graph
from repro.oracle import assert_equivalent
from repro.runtime import ModelStore, force, measure, to_dataframe
from repro.runtime.executors import ort_standalone, per_tuple_predict, raven_ext


@pytest.fixture(scope="module")
def hosp_small():
    return hospital.joined_frame(800, seed=21)


@pytest.fixture(scope="module")
def tree_pipe(hosp_small):
    return Pipeline(
        TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
        DecisionTree(task="regression", max_depth=4, min_samples_leaf=10),
    ).fit(hosp_small[hospital.FEATURES], hosp_small["los"].to_numpy())


class TestCodegen:
    def test_scan_filter_project_oracle(self, spark):
        t = hospital.tables(300, seed=1)
        plan = Project(
            Filter(Scan("patient_info"), Cmp(">", Col("age"), Lit(40))),
            [("pid", Col("pid")), ("age", Col("age"))],
        )
        df = to_dataframe(plan, spark, {"patient_info": spark.createDataFrame(t["patient_info"])})
        assert_equivalent(
            df,
            "SELECT pid, age FROM patient_info WHERE age > 40",
            patient_info=t["patient_info"],
        )

    def test_join_same_key_single_column(self, spark):
        t = hospital.tables(200, seed=2)
        plan = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid")
        df = to_dataframe(
            plan, spark,
            {k: spark.createDataFrame(v) for k, v in t.items()},
        )
        assert df.columns.count("pid") == 1
        assert df.count() == 200

    def test_union_codegen(self, spark):
        t = hospital.tables(100, seed=3)
        s = Scan("patient_info")
        plan = Union([
            Filter(s, Cmp(">", Col("age"), Lit(60))),
            Filter(s, Cmp("<=", Col("age"), Lit(60))),
        ])
        df = to_dataframe(plan, spark, {"patient_info": spark.createDataFrame(t["patient_info"])})
        assert df.count() == 100

    def test_mlpredict_codegen_matches_local(self, spark, hosp_small, tree_pipe):
        plan = MLPredict(Scan("joined"), "m", tree_pipe, "pred")
        df = to_dataframe(plan, spark, {"joined": spark.createDataFrame(hosp_small)})
        got = df.select("pid", "pred").toPandas().sort_values("pid")["pred"].to_numpy()
        want_df = hosp_small.sort_values("pid")
        want = tree_pipe.predict(want_df)
        np.testing.assert_allclose(got, want)

    def test_udf_codegen(self, spark, hosp_small):
        from repro.ir import UDFNode

        plan = UDFNode(
            Scan("joined"),
            fn=lambda pdf: pdf.assign(age2=pdf["age"] * 2),
            description="age2",
        )
        df = to_dataframe(plan, spark, {"joined": spark.createDataFrame(hosp_small)})
        out = df.select("pid", "age", "age2").toPandas()
        np.testing.assert_array_equal(out["age2"], out["age"] * 2)

    def test_force_noop_sink(self, spark, hosp_small):
        df = spark.createDataFrame(hosp_small)
        force(df)  # must not raise

    def test_measure_warmup_and_runs(self):
        calls = []
        t = measure(lambda: calls.append(1), warmup=2, runs=3)
        assert len(calls) == 5
        assert len(t.times) == 3
        assert t.mean >= 0 and t.median >= 0 and t.best >= 0


class TestModelStore:
    def test_pipeline_roundtrip(self, tmp_path, tree_pipe, hosp_small):
        store = ModelStore(str(tmp_path / "store"))
        store.save_pipeline("los", tree_pipe)
        loaded = store.load_pipeline("los")
        np.testing.assert_array_equal(loaded.predict(hosp_small), tree_pipe.predict(hosp_small))

    def test_versioning(self, tmp_path, tree_pipe):
        store = ModelStore(str(tmp_path / "store"))
        store.save_pipeline("m", tree_pipe)
        store.save_pipeline("m", tree_pipe)
        assert len(store.versions("m")) == 2
        assert store.versions("m")[-1]["version"] == 2

    def test_graph_model(self, tmp_path, tree_pipe, hosp_small):
        from repro.onnxlite import InferenceSession

        store = ModelStore(str(tmp_path / "store"))
        g = pipeline_to_graph(tree_pipe)
        store.save_graph_model("los_nn", g)
        sess = InferenceSession(store.graph_path("los_nn"))
        out = sess.run(tree_pipe.featurizer.transform_codes(hosp_small))
        np.testing.assert_allclose(out["value"][:, 0], tree_pipe.predict(hosp_small))

    def test_missing_model_raises(self, tmp_path):
        store = ModelStore(str(tmp_path / "store"))
        with pytest.raises(KeyError):
            store.load_pipeline("ghost")

    def test_kind_mismatch_raises(self, tmp_path, tree_pipe):
        store = ModelStore(str(tmp_path / "store"))
        store.save_pipeline("m", tree_pipe)
        with pytest.raises(TypeError):
            store.graph_path("m")


@pytest.fixture(scope="module")
def fl_graph(tmp_path_factory):
    """A featurize+forest flights pipeline compiled to a stored graph."""
    fl = flights.frame(3000, seed=5)
    pipe = Pipeline(
        TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
        RandomForest(n_trees=3, max_depth=3, seed=0),
    ).fit(fl, fl["delayed"].to_numpy())
    store = ModelStore(str(tmp_path_factory.mktemp("store")))
    store.save_graph_model("fl", pipeline_to_graph(pipe))
    return fl, pipe, store.graph_path("fl")


def _codegen_predict(spark, fl, path, featurizer):
    """Raven's in-process PREDICT over ``fl``: an ``NNPredict`` holding
    the stored graph, compiled by codegen; P(class 1) by flight_id."""
    plan = NNPredict(Scan("fl"), "fl", get_cached_session(path).graph, featurizer, "p",
                     kind="proba")
    df = to_dataframe(plan, spark, {"fl": spark.createDataFrame(fl)})
    return df.select("flight_id", "p").toPandas().sort_values("flight_id")["p"].to_numpy()


class TestExecutionModes:
    def test_ort_standalone_matches_pipeline(self, fl_graph):
        fl, pipe, path = fl_graph
        out = ort_standalone(fl, path, pipe.featurizer, kind="proba")
        np.testing.assert_allclose(out, pipe.predict_proba(fl)[:, 1])

    def test_raven_inprocess_matches(self, spark, fl_graph):
        clear_session_cache()
        fl, pipe, path = fl_graph
        got = _codegen_predict(spark, fl, path, pipe.featurizer)
        want = pipe.predict_proba(fl.sort_values("flight_id"))[:, 1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_raven_ext_matches(self, fl_graph):
        fl, pipe, path = fl_graph
        out = raven_ext(fl.head(200), path, pipe.featurizer, kind="proba")
        np.testing.assert_allclose(out, pipe.predict_proba(fl.head(200))[:, 1])

    def test_per_tuple_matches_batch(self, spark, hosp_small, tree_pipe):
        df = spark.createDataFrame(hosp_small.head(50))
        out = per_tuple_predict(df, tree_pipe, "pred")
        got = out.select("pid", "pred").toPandas().sort_values("pid")["pred"].to_numpy()
        want = tree_pipe.predict(hosp_small.head(50).sort_values("pid"))
        np.testing.assert_allclose(got, want)

    def test_label_kind_from_value_graph(self, fl_graph, tmp_path):
        fl, pipe, path = fl_graph
        out = ort_standalone(fl.head(100), path, pipe.featurizer, kind="label",
                             classes=pipe.model.classes_)
        want = pipe.predict(fl.head(100)).astype(float)
        np.testing.assert_allclose(out, want)

    def test_traversal_forest_roundtrip(self, spark, tmp_path):
        # a tree-traversal forest graph through the on-disk format, the
        # session cache, the standalone engine and Raven's codegen PREDICT
        fl = flights.frame(2000, seed=9)
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            RandomForest(n_trees=4, max_depth=5, max_features=0.7, seed=1),
        ).fit(fl, fl["delayed"].to_numpy())
        g = pipeline_to_graph(pipe)
        path = save_graph(g, str(tmp_path / "rf"))
        clear_session_cache()
        loaded = get_cached_session(path).graph.initializers
        ints = [k for k, v in g.initializers.items() if v.dtype == np.int64]
        assert {"tt_feat", "tt_left", "tt_right"} <= set(ints)
        for k in ints:
            assert loaded[k].dtype == np.int64
            np.testing.assert_array_equal(loaded[k], g.initializers[k])
        want = pipe.predict_proba(fl)[:, 1]
        np.testing.assert_allclose(ort_standalone(fl, path, pipe.featurizer), want,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            _codegen_predict(spark, fl, path, pipe.featurizer),
            pipe.predict_proba(fl.sort_values("flight_id"))[:, 1], rtol=0, atol=1e-12,
        )
