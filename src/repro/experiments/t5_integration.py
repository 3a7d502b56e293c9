"""T5 — integration-mode comparison (paper Fig. 3).

End-to-end NN-translated pipelines (featurization + RF, and
featurization + MLP) scored at increasing dataset sizes under the three
execution modes of §5:

* **ORT** (standalone engine): one process; each run loads the model
  from disk cold — the paper's methodology counts model-load time per
  run — then scores the batch.
* **Raven** (in-process PREDICT): the query ``NNPredict(Scan(t))``
  compiled by ``runtime.codegen``, the path every Raven query runs. The
  model is loaded from the ``ModelStore`` once, on the driver (a cached
  session), and the graph ships with each task, so warm runs never
  reload it; Spark parallelizes scan+predict across all cores — the two
  effects behind Fig. 3's observations (ii) and (iii).
* **Raven Ext** (out-of-process external script): a fresh Python
  interpreter per query with Parquet data transfer — the ~0.5 s
  constant overhead of observation (iv).

Paper shape: ORT ≈ Raven (±15%) at 50–100K; Raven ~faster at ≤50K warm
(3 ms vs 20 ms at 100 rows) and ~5× faster at ≥1M (parallelism);
Raven Ext constant ~0.5 s behind.
"""
from __future__ import annotations

from repro.datasets import flights
from repro.experiments.common import flights_forest_pipeline, flights_mlp_pipeline
from repro.ir import NNPredict, Scan
from repro.onnxlite import get_cached_session
from repro.onnxlite.convert import pipeline_to_graph, predict_frame
from repro.runtime.codegen import to_dataframe
from repro.runtime.executors import ort_standalone, raven_ext
from repro.runtime.model_store import ModelStore
from repro.runtime.timing import force, measure

SIZES = [100, 1_000, 10_000, 100_000, 1_000_000]
EXT_CAP = 1_000_000


def _store_models(root: str, n_train: int, seed: int) -> dict:
    store = ModelStore(root)
    out = {}
    for name, pipe in [
        ("rf", flights_forest_pipeline(n_train=n_train, seed=seed)),
        ("mlp", flights_mlp_pipeline(n_train=n_train, seed=seed)),
    ]:
        store.save_graph_model(name, pipeline_to_graph(pipe))
        out[name] = (pipe, store.graph_path(name))
    return out


def run(spark, store_root: str, sizes: list[int] | None = None,
        n_train: int = 50_000, seed: int = 0, runs: int = 3,
        models: list[str] | None = None) -> list[dict]:
    """Every leg scores P(class 1) (``kind="proba"``)."""
    artifacts = _store_models(store_root, n_train, seed)
    rows = []
    for model_name in models or ["rf", "mlp"]:
        pipe, path = artifacts[model_name]
        # Raven's PREDICT: the model is loaded once, on the driver
        predict = NNPredict(Scan("flights"), model_name, get_cached_session(path).graph,
                            pipe.featurizer, "p", kind="proba")
        for n in sizes or SIZES:
            pdf = flights.frame(n, seed=seed + 23)
            sdf = spark.createDataFrame(pdf).cache()
            sdf.count()
            out_df = to_dataframe(predict, spark, {"flights": sdf})

            # ORT standalone: cold session per run (paper methodology)
            t_ort = measure(lambda: ort_standalone(pdf, path, pipe.featurizer),
                            warmup=1, runs=runs)
            # the session-caching effect in isolation (what in-DB model
            # caching buys — Fig. 3 observation (ii)): same engine, warm
            t_ort_warm = measure(
                lambda: predict_frame(get_cached_session(path).graph, pipe.featurizer,
                                      pdf, "proba"),
                warmup=1, runs=runs,
            )
            t_raven = measure(lambda: force(out_df), warmup=1, runs=runs)
            row = {
                "model": model_name, "rows": n,
                "ort_s": t_ort.median, "ort_warm_s": t_ort_warm.median,
                "raven_s": t_raven.median,
                "raven_vs_ort": t_ort.median / t_raven.median,
            }
            if n <= EXT_CAP:
                t_ext = measure(
                    lambda: raven_ext(pdf, path, pipe.featurizer, kind="proba"),
                    warmup=1, runs=max(1, runs - 1),
                )
                row["raven_ext_s"] = t_ext.median
            else:
                row["raven_ext_s"] = None
            rows.append(row)
            sdf.unpersist()
    return rows
