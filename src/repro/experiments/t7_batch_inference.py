"""T7 — batch vs per-tuple inference (§5 observation (v)).

The same hospital-stay tree scored inside Spark two ways: one model
invocation per tuple (scalar python UDF over a struct of the feature
columns — what naive in-DB scoring does) vs batched Arrow inference
(an ``MLPredict`` compiled by Raven's codegen). Paper: batching bought
about an order of magnitude.
"""
from __future__ import annotations

from repro.datasets import hospital
from repro.experiments.common import hospital_tree_pipeline
from repro.ir import MLPredict, Scan
from repro.runtime.codegen import to_dataframe
from repro.runtime.executors import per_tuple_predict
from repro.runtime.timing import force, measure


def run(spark, n_infer: int = 50_000, n_train: int = 20_000, seed: int = 0,
        runs: int = 3) -> list[dict]:
    pipe = hospital_tree_pipeline(n_train=n_train, seed=seed)
    data = hospital.joined_frame(n_infer, seed=seed + 37, with_label=False)
    sdf = spark.createDataFrame(data).cache()
    sdf.count()

    per_tuple_df = per_tuple_predict(sdf, pipe, "pred")
    batch_df = to_dataframe(
        MLPredict(Scan("joined"), "los", pipe, "pred"), spark, {"joined": sdf}
    )
    t_tuple = measure(lambda: force(per_tuple_df), warmup=1, runs=runs)
    t_batch = measure(lambda: force(batch_df), warmup=1, runs=runs)
    sdf.unpersist()
    return [
        {"variant": "per-tuple UDF", "rows": n_infer, "time_s": t_tuple.median,
         "speedup_vs_per_tuple": 1.0},
        {"variant": "batched MLPredict", "rows": n_infer, "time_s": t_batch.median,
         "speedup_vs_per_tuple": t_tuple.median / t_batch.median},
    ]
