"""T5 benchmark: the three integration modes of Fig. 3 at 10K and 100K
rows (featurize+RF pipeline compiled to a stored graph model)."""
import pytest

from repro.datasets import flights
from repro.ir import NNPredict, Scan
from repro.onnxlite import get_cached_session
from repro.onnxlite.convert import pipeline_to_graph
from repro.runtime.codegen import to_dataframe
from repro.runtime.executors import ort_standalone, raven_ext
from repro.runtime.model_store import ModelStore
from repro.runtime.timing import force


@pytest.fixture(scope="module")
def stored(fl_forest, tmp_path_factory):
    store = ModelStore(str(tmp_path_factory.mktemp("t5store")))
    store.save_graph_model("rf", pipeline_to_graph(fl_forest))
    return fl_forest, store.graph_path("rf")


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_ort_standalone_cold(benchmark, stored, n):
    pipe, path = stored
    pdf = flights.frame(n, seed=106)
    benchmark.pedantic(
        lambda: ort_standalone(pdf, path, pipe.featurizer),
        rounds=3, warmup_rounds=1,
    )


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_raven_inprocess_warm(benchmark, spark, stored, n):
    pipe, path = stored
    sdf = spark.createDataFrame(flights.frame(n, seed=106)).cache()
    sdf.count()
    predict = NNPredict(Scan("flights"), "rf", get_cached_session(path).graph,
                        pipe.featurizer, "p", kind="proba")
    out = to_dataframe(predict, spark, {"flights": sdf})
    benchmark.pedantic(lambda: force(out), rounds=3, warmup_rounds=1)
    sdf.unpersist()


def test_raven_ext_subprocess(benchmark, stored):
    pipe, path = stored
    pdf = flights.frame(10_000, seed=106)
    benchmark.pedantic(
        lambda: raven_ext(pdf, path, pipe.featurizer, kind="proba"),
        rounds=3, warmup_rounds=1,
    )
