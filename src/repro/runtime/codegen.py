"""Runtime Code Generator: compile an optimized Raven IR plan to a
Spark DataFrame.

Relational nodes become DataFrame operations (so Catalyst sees and
further optimizes them — the paper's generated SQL plays the same
role). Predict nodes become ``mapInPandas`` transformations whose
batches are scored by the node's own ``predict_pandas`` — the
DataFrame→DataFrame physical-operator pattern (a true JVM operator is
out of scope, see DESIGN.md). Spark parallelizes scan+predict exactly
like SQL Server does for PREDICT in Fig. 3(iii).
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.ir import Filter, Join, PlanNode, Predict, Project, Scan, UDFNode, Union


def _predict_map_fn(node):
    """Closure shipped to executors. ``node`` is pickled with the model
    artifacts inside; pandas batches stream through Arrow."""

    def fn(batches):
        for pdf in batches:
            out = pdf.copy()
            out[node.output_col] = (
                node.predict_pandas(pdf)
                if len(pdf)
                else []
            )
            yield out

    return fn


def to_dataframe(plan: PlanNode, spark: SparkSession, tables: dict[str, DataFrame]) -> DataFrame:
    """Compile ``plan``; ``tables`` binds Scan names to DataFrames."""
    if isinstance(plan, Scan):
        return tables[plan.table]
    if isinstance(plan, Filter):
        return to_dataframe(plan.child, spark, tables).where(plan.predicate.to_sql())
    if isinstance(plan, Project):
        df = to_dataframe(plan.child, spark, tables)
        return df.selectExpr(
            *[f"{e.to_sql()} AS {name}" for name, e in plan.exprs]
        )
    if isinstance(plan, Join):
        left = to_dataframe(plan.left, spark, tables)
        right = to_dataframe(plan.right, spark, tables)
        if plan.left_on == plan.right_on:
            return left.join(right, on=plan.left_on, how=plan.how)
        cond = left[plan.left_on] == right[plan.right_on]
        return left.join(right, on=cond, how=plan.how).drop(right[plan.right_on])
    if isinstance(plan, Union):
        return reduce(
            lambda a, b: a.unionByName(b),
            (to_dataframe(c, spark, tables) for c in plan.children),
        )
    if isinstance(plan, Predict):
        child = to_dataframe(plan.child, spark, tables)
        schema = StructType(
            list(child.schema.fields) + [StructField(plan.output_col, DoubleType())]
        )
        return child.mapInPandas(_predict_map_fn(plan), schema=schema)
    if isinstance(plan, UDFNode):
        child = to_dataframe(plan.child, spark, tables)
        # infer the UDF's output schema from a tiny sample (black-box fn)
        sample = child.limit(5).toPandas()
        out_sample = plan.fn(sample)
        out_schema = spark.createDataFrame(out_sample).schema

        def fn(batches, _f=plan.fn):
            for pdf in batches:
                yield _f(pdf)

        return child.mapInPandas(fn, schema=out_schema)
    raise TypeError(f"cannot codegen {type(plan).__name__}")
