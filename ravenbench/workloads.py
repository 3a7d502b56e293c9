"""The benchmark's workloads: generated tables, trained models, the
query cycle, and the reference each query result is checked against.

Tables are written once per set-up as Parquet files (several files per
table, so every scan feeds all local cores) and read back through
``spark.read.parquet``; see NOTES.md for why the benchmark does not use
``spark.createDataFrame(pandas)`` frames as the jobs and tests do.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from repro.datasets import flights, hospital
from repro.experiments import common
from repro.ir.plan import Catalog
from repro.optimizer import CrossOptimizer, default_rules
from repro.optimizer.inlining import ModelInlining
from repro.optimizer.nn_translate import NNTranslation
from repro.raven import Raven

# Files per table: one scan task per local core.
FILES_PER_TABLE = 4
# Predictions of two correct plans may differ in the last bits (GEMM vs
# tree traversal), so rows this close to a filter threshold are not
# compared, and predictions are compared within this tolerance.
TOLERANCE = 1e-6

_HOSPITAL_FROM = (
    "FROM patient_info JOIN blood_tests ON pid = pid JOIN prenatal_tests ON pid = pid"
)
_HOSPITAL_SELECT = "SELECT pid, age, PREDICT(MODEL los_model) AS predicted_los " + _HOSPITAL_FROM
_DUCKDB_FROM = (
    "FROM patient_info JOIN blood_tests USING (pid) JOIN prenatal_tests USING (pid)"
)


@dataclass(frozen=True)
class Query:
    """One query shape of a workload's cycle.

    ``pre_filter`` is the pandas mask of the rows that reach PREDICT
    (the query's filter on base columns); ``threshold`` is the filter
    on the prediction. ``skeleton`` is the same query without the model,
    as (Raven SQL, DuckDB SQL), for the oracle cross-check.
    """

    name: str
    sql: str
    pre_filter: object  # callable: joined frame -> boolean mask
    threshold: float
    skeleton: tuple[str, str] | None = None


@dataclass
class Workload:
    name: str
    dataset: str  # "hospital" | "flights"
    rows: int
    rules: object  # callable: () -> list[Rule]
    queries: list[Query]
    key: str
    output_cols: list[str]
    model_name: str
    model_kind: str


def _skeleton(where: str) -> tuple[str, str]:
    return (f"SELECT pid, age {_HOSPITAL_FROM}{where}",
            f"SELECT pid, age {_DUCKDB_FROM}{where}")


def _hospital_queries() -> list[Query]:
    return [
        Query("Q1", _HOSPITAL_SELECT + " WHERE pregnant = 1 AND predicted_los > 7",
              lambda df: df["pregnant"] == 1, 7.0, _skeleton(" WHERE pregnant = 1")),
        Query("Q2", _HOSPITAL_SELECT + " WHERE pregnant = 0 AND predicted_los > 3",
              lambda df: df["pregnant"] == 0, 3.0, _skeleton(" WHERE pregnant = 0")),
        Query("Q3", _HOSPITAL_SELECT + " WHERE predicted_los > 7",
              lambda df: np.ones(len(df), dtype=bool), 7.0, _skeleton("")),
    ]


def _flights_queries() -> list[Query]:
    return [
        Query("F1", "SELECT flight_id, PREDICT(MODEL delay_rf) AS p_delay "
                    "FROM flights WHERE p_delay > 0.5",
              lambda df: np.ones(len(df), dtype=bool), 0.5),
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("hospital-interactive", "hospital", 10_000, default_rules,
                 _hospital_queries(), "pid", ["pid", "age", "predicted_los"],
                 "los_model", "label"),
        Workload("flights-nn-batch", "flights", 200_000,
                 lambda: default_rules() + [NNTranslation()],
                 _flights_queries(), "flight_id", ["flight_id", "p_delay"],
                 "delay_rf", "proba"),
        # runs by name only; BENCHMARK.json leaves it out (see NOTES.md)
        Workload("hospital-inline-1m", "hospital", 1_000_000,
                 lambda: default_rules() + [ModelInlining()],
                 _hospital_queries(), "pid", ["pid", "age", "predicted_los"],
                 "los_model", "label"),
    ]
}

# Training rows for the flights forest. The forest has the same shape
# (10 trees, depth 6) as experiments.common's default; fewer training
# rows keep training inside each run's set-up budget.
FLIGHTS_TRAIN_ROWS = 2_000


def generate_tables(w: Workload, rows: int, seed: int) -> dict[str, pd.DataFrame]:
    if w.dataset == "hospital":
        return hospital.tables(rows, seed=seed)
    return {"flights": flights.frame(rows, seed=seed).drop(columns=["delayed"])}


def train_model(w: Workload):
    """Train the workload's model with the fixed seed 0 (independent of
    the workload seed). The experiments' cache is cleared first so the
    training is really done, and timed, in every run."""
    if w.dataset == "hospital":
        common.hospital_tree_pipeline.cache_clear()
        return common.hospital_tree_pipeline(seed=0)
    common.flights_forest_pipeline.cache_clear()
    return common.flights_forest_pipeline(n_train=FLIGHTS_TRAIN_ROWS, seed=0)


def write_parquet(frames: dict[str, pd.DataFrame], root: str) -> dict[str, str]:
    """Write each table as ``FILES_PER_TABLE`` Parquet files under
    ``root/<table>/`` and return the table directories."""
    paths = {}
    for name, pdf in frames.items():
        d = os.path.join(root, name)
        os.makedirs(d)
        table = pa.Table.from_pandas(pdf, preserve_index=False)
        n = table.num_rows
        for i in range(FILES_PER_TABLE):
            lo, hi = i * n // FILES_PER_TABLE, (i + 1) * n // FILES_PER_TABLE
            pq.write_table(table.slice(lo, hi - lo), os.path.join(d, f"part-{i:05d}.parquet"))
        paths[name] = d
    return paths


def catalog_for(frames: dict[str, pd.DataFrame], key: str) -> Catalog:
    cat = Catalog()
    for name, pdf in frames.items():
        cat.add_table(name, list(pdf.columns), {key})
    return cat


def joined(frames: dict[str, pd.DataFrame], key: str) -> pd.DataFrame:
    """The base tables joined on the key, as the queries join them."""
    dfs = list(frames.values())
    out = dfs[0]
    for df in dfs[1:]:
        out = out.merge(df, on=key)
    return out


@dataclass
class Expected:
    """Reference result of one query shape, computed without Spark."""

    rows_scored: int
    result: pd.DataFrame  # the expected output rows, sorted by key
    near_threshold: set = field(default_factory=set)  # keys not compared


def build_reference(w: Workload, frames, pipeline) -> dict[str, Expected]:
    """Expected rows for every query shape: pandas joins, the pipeline's
    own ``predict``/``predict_proba``, and the query's filters."""
    data = joined(frames, w.key)
    out = {}
    for q in w.queries:
        scored = model_input(data, q)
        if w.model_kind == "proba":
            pred = pipeline.predict_proba(scored)[:, 1]
        else:
            pred = np.asarray(pipeline.predict(scored), dtype=np.float64)
        pred_col = w.output_cols[-1]
        res = scored[w.output_cols[:-1]].copy()
        res[pred_col] = pred
        res = res[pred > q.threshold].sort_values(w.key).reset_index(drop=True)
        near = set(scored[w.key][np.abs(pred - q.threshold) <= TOLERANCE].tolist())
        out[q.name] = Expected(len(scored), res, near)
    return out


def model_input(data: pd.DataFrame, q: Query) -> pd.DataFrame:
    """The rows of the joined tables that reach the query's PREDICT."""
    return data[np.asarray(q.pre_filter(data))].reset_index(drop=True)


def check_result(w: Workload, got: pd.DataFrame, exp: Expected) -> str | None:
    """Compare a query result with its reference. Returns None when they
    agree, else a one-line reason."""
    if list(got.columns) != w.output_cols:
        return f"columns {list(got.columns)} != {w.output_cols}"
    if got[w.key].duplicated().any():
        return "duplicate keys in result"
    got = got[~got[w.key].isin(exp.near_threshold)].sort_values(w.key).reset_index(drop=True)
    want = exp.result[~exp.result[w.key].isin(exp.near_threshold)].reset_index(drop=True)
    if len(got) != len(want):
        return f"{len(got)} rows != expected {len(want)}"
    for c in w.output_cols[:-1]:
        if not np.array_equal(got[c].to_numpy(), want[c].to_numpy()):
            return f"column {c} differs from the reference"
    pred_col = w.output_cols[-1]
    diff = np.abs(got[pred_col].to_numpy(dtype=np.float64) - want[pred_col].to_numpy())
    if len(diff) and not diff.max() <= TOLERANCE:
        return f"{pred_col} differs by up to {diff.max():.3g}"
    return None


def make_raven(spark, w: Workload, frames, paths, pipeline) -> Raven:
    raven = Raven(
        spark=spark,
        catalog=catalog_for(frames, w.key),
        tables={name: spark.read.parquet(p) for name, p in paths.items()},
        optimizer=CrossOptimizer(rules=w.rules()),
    )
    raven.register_model(w.model_name, pipeline, kind=w.model_kind)
    return raven
