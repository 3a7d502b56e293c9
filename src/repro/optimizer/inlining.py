"""Model inlining (§4.2): translate ML operators into SQL expressions
so the relational engine executes them (no data movement, relational
optimizer sees through them, whole-stage codegen compiles them).

* Decision trees become nested ``CASE WHEN col <= t THEN ... END``.
  Thresholds over standardized features are *inverted through the
  scaler* (x ≤ t·s + m), so the generated SQL reads raw columns.
* Linear/logistic models become an arithmetic expression; one-hot
  blocks become per-category CASE terms.

This is the paper's SQL Server UDF-inlining path (Froid [32]): we skip
the intermediate UDF and emit the inlined scalar expression directly —
Spark's Catalyst then optimizes/compiles it exactly as Froid intends.
"""
from __future__ import annotations

import copy

import numpy as np

from repro.ir import Col, PlanNode, Project, SqlExpr
from repro.ir.ops import MLPredict
from repro.ir.plan import Catalog, output_columns
from repro.miniml.forest import RandomForest
from repro.miniml.linear import LinearRegression, LogisticRegressionL1
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree
from repro.optimizer.rules import Rule


def _fmt(v: float) -> str:
    """SQL double literal with round-trip precision. Scientific
    notation ('4.5E0') forces DOUBLE in both Spark (which types bare
    decimals as DECIMAL) and DuckDB."""
    s = f"{float(v):.17g}"
    if "e" in s or "E" in s:
        return s
    return s + "E0"


def _raw_threshold(feat, feature_idx: int, t: float) -> tuple[str, float]:
    """Map a feature-space split (feature_idx, t) back to (column,
    raw threshold): x ≤ t·scale + mean. Only numeric features can be
    inlined this way."""
    spec = feat.feature_specs[feature_idx]
    if spec[0] != "num":
        raise ValueError(f"cannot inline split on categorical feature {spec}")
    col = spec[1]
    if feat.scaler is not None:
        j = feat.numeric_cols.index(col)
        t = t * feat.scaler.scale_[j] + feat.scaler.mean_[j]
    return col, t


def tree_to_sql(tree: DecisionTree, feat, kind: str = "label") -> str:
    """Nested CASE WHEN expression computing the tree's prediction."""

    def leaf_sql(i: int) -> str:
        if tree.task == "classification":
            if kind == "proba":
                return _fmt(tree.value[i, 1])
            cls = tree.classes_[int(np.argmax(tree.value[i]))]
            return _fmt(float(cls))
        return _fmt(tree.value[i, 0])

    def rec(i: int) -> str:
        if tree.feature[i] == LEAF:
            return leaf_sql(i)
        col, t = _raw_threshold(feat, int(tree.feature[i]), float(tree.threshold[i]))
        return (
            f"CASE WHEN {col} <= {_fmt(t)} THEN {rec(int(tree.left[i]))} "
            f"ELSE {rec(int(tree.right[i]))} END"
        )

    return rec(0)


def forest_to_sql(forest: RandomForest, feat, kind: str = "label") -> str:
    """Average of per-tree CASE expressions. For classification this
    inlines the positive-class probability average; ``label`` then
    thresholds it (binary only — the SQL form of argmax over two
    classes)."""
    if forest.task == "classification" and len(forest.classes_) != 2:
        raise ValueError("forest inlining supports binary classification only")

    per_tree = []
    for tree, cols in zip(forest.trees, forest.feature_subsets):
        # member features index the subset; build a view with global idx
        t = copy.copy(tree)
        t.feature = np.array(
            [int(cols[int(f)]) if f != LEAF else LEAF for f in tree.feature],
            dtype=np.int64,
        )
        t.n_features = feat.n_features
        sub_kind = "proba" if forest.task == "classification" else "label"
        per_tree.append("(" + tree_to_sql(t, feat, kind=sub_kind) + ")")
    mean = "(" + " + ".join(per_tree) + f") / {_fmt(forest.n_trees)}"
    if forest.task == "classification":
        if kind == "proba":
            return mean
        neg, pos = forest.classes_
        return f"CASE WHEN {mean} > 0.5 THEN {_fmt(pos)} ELSE {_fmt(neg)} END"
    return mean


def linear_to_sql(model, feat, kind: str = "score") -> str:
    """w·x + b over raw columns; one-hot features become CASE terms."""
    terms = [_fmt(model.intercept_)]
    for idx, spec in enumerate(feat.feature_specs):
        w = float(model.coef_[idx])
        if w == 0.0:
            continue
        if spec[0] == "num":
            col = spec[1]
            if feat.scaler is not None:
                j = feat.numeric_cols.index(col)
                m, s = feat.scaler.mean_[j], feat.scaler.scale_[j]
                terms.append(f"({_fmt(w)} * (({col} - {_fmt(m)}) / {_fmt(s)}))")
            else:
                terms.append(f"({_fmt(w)} * {col})")
        else:
            _, col, cat = spec
            lit = "'" + str(cat).replace("'", "''") + "'"
            terms.append(f"(CASE WHEN {col} = {lit} THEN {_fmt(w)} ELSE 0.0 END)")
    score = "(" + " + ".join(terms) + ")"
    if kind == "score":
        return score
    if kind == "proba":
        return f"(1.0 / (1.0 + EXP(-{score})))"
    if kind == "label":
        return f"(CASE WHEN {score} > 0.0 THEN 1.0 ELSE 0.0 END)"
    raise ValueError(f"bad kind {kind!r}")


def inline_pipeline_sql(pipe: Pipeline, kind: str) -> str:
    model = pipe.model
    if isinstance(model, DecisionTree):
        return tree_to_sql(model, pipe.featurizer, kind=kind)
    if isinstance(model, RandomForest):
        return forest_to_sql(model, pipe.featurizer, kind=kind)
    if isinstance(model, (LogisticRegressionL1, LinearRegression)):
        k = "score" if isinstance(model, LinearRegression) else kind
        return linear_to_sql(model, pipe.featurizer, kind=k)
    raise TypeError(f"cannot inline {type(model).__name__}")


class ModelInlining(Rule):
    """Replace MLPredict nodes whose model is inlinable with a Project
    computing the prediction as a SQL expression."""

    name = "model_inlining"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if not (isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline)):
            return node
        try:
            sql = inline_pipeline_sql(node.pipeline, node.kind)
        except (TypeError, ValueError):
            return node  # not inlinable (e.g. tree over one-hot)
        exprs = [(c, Col(c)) for c in output_columns(node.child, catalog)]
        exprs.append((node.output_col, SqlExpr(sql, set(node.pipeline.input_cols))))
        return Project(node.child, exprs)
