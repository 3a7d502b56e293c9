"""Operator nodes of the Raven IR.

Relational nodes (Scan/Filter/Project/Join/Union) mirror a textbook
logical plan. ML nodes carry the actual model artifacts so optimizer
rules can rewrite them (prune a tree, slice a weight vector, fold a
one-hot block): that is the whole point of a *unified* IR — the
optimizer sees model internals and data operators in one DAG.

Every one-input node (Filter, Project, UDFNode and the predict nodes)
derives from ``Unary``, which owns ``child``/``children``. The three
scoring operators — ``MLPredict`` (miniml pipeline), ``NNPredict``
(onnxlite graph) and ``ClusteredPredict`` (per-cluster pipelines) —
derive from ``Predict``: each appends ``output_col`` to its child's rows
and implements ``predict_pandas(pdf) -> np.ndarray``, the single place
its semantics live. The Spark codegen runs it on each Arrow batch and
tests call it directly (the per-tuple baseline scores rows with
``Pipeline.predict_row`` instead). ``NNPredict`` scores through
``onnxlite.convert.predict_frame``, the function the standalone and
external-runtime modes use too. Code that treats all scoring operators
alike tests ``isinstance(node, Predict)``.

Nodes are immutable once built: rewrites copy a node before changing it,
and ``with_children`` returns the node itself when no child changed, so
a rewrite that changed nothing hands back the very same plan object.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.ir.expr import Expr
from repro.onnxlite.convert import predict_frame


@dataclass(repr=False)
class SqlExpr(Expr):
    """A raw SQL scalar expression (used for inlined models). Tracks the
    columns it references so pushdown rules stay correct."""

    sql: str
    cols: set[str] = field(default_factory=set)

    def columns(self) -> set[str]:
        return set(self.cols)

    def to_sql(self) -> str:
        return self.sql


class PlanNode:
    """Base class; subclasses define ``children`` ordering."""

    children: list["PlanNode"]

    def with_children(self, children: list["PlanNode"]) -> "PlanNode":
        """Shallow copy with replaced children (used by plan rewrites);
        ``self`` when every child is already in place."""
        children = list(children)
        if children == self.children:  # eq=False nodes: compares identity
            return self
        node = copy.copy(self)
        node.children = children
        return node

    def label(self) -> str:
        return type(self).__name__


class Unary(PlanNode):
    """A node with exactly one input, ``child``."""

    child: PlanNode

    @property
    def children(self) -> list[PlanNode]:
        return [self.child]

    @children.setter
    def children(self, cs: list[PlanNode]) -> None:
        (self.child,) = cs


@dataclass(eq=False)
class Scan(PlanNode):
    table: str
    children: list[PlanNode] = field(default_factory=list)

    def label(self) -> str:
        return f"Scan({self.table})"


@dataclass(eq=False)
class Filter(Unary):
    child: PlanNode
    predicate: Expr

    def label(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


@dataclass(eq=False)
class Project(Unary):
    """Projection with optional computed columns: ``exprs`` maps output
    name → expression (a bare ``Col`` for passthrough)."""

    child: PlanNode
    exprs: list[tuple[str, Expr]]

    @property
    def output_names(self) -> list[str]:
        return [n for n, _ in self.exprs]

    def label(self) -> str:
        return f"Project({', '.join(self.output_names)})"


@dataclass(eq=False)
class Join(PlanNode):
    left: PlanNode
    right: PlanNode
    left_on: str
    right_on: str
    how: str = "inner"
    # right side is unique on its key AND every left row matches exactly
    # one right row (key/FK integrity): dropping the join is then
    # row-preserving. Set from catalog metadata by the analyzer.
    fk_one_to_one: bool = False

    @property
    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    @children.setter
    def children(self, cs: list[PlanNode]) -> None:
        self.left, self.right = cs

    def label(self) -> str:
        return f"Join({self.left_on}={self.right_on}{', 1:1' if self.fk_one_to_one else ''})"


@dataclass(eq=False)
class Union(PlanNode):
    """Bag UNION ALL of same-schema children (model/query splitting)."""

    children: list[PlanNode]

    def label(self) -> str:
        return f"Union({len(self.children)})"


class Predict(Unary):
    """A scoring operator: appends ``output_col`` = ``predict_pandas`` of
    the child's rows, reading the columns ``input_cols``. ``kind``
    selects what to emit: ``label`` (predicted class / regression
    value), ``proba`` (P[class 1]) or ``score`` (margin)."""

    model_name: str
    output_col: str
    kind: str

    @property
    def input_cols(self) -> list[str]:
        raise NotImplementedError

    def predict_pandas(self, pdf: pd.DataFrame) -> np.ndarray:
        raise NotImplementedError

    def label(self) -> str:
        return f"{type(self).__name__}({self.model_name}→{self.output_col})"


def _pipeline_prediction(pipeline, pdf: pd.DataFrame, kind: str) -> np.ndarray:
    """Score ``pdf`` with a miniml ``Pipeline``, emitting ``kind``."""
    if kind == "label":
        return np.asarray(pipeline.predict(pdf), dtype=np.float64)
    if kind == "proba":
        return pipeline.predict_proba(pdf)[:, 1]
    if kind == "score":
        return np.asarray(pipeline.decision_function(pdf), dtype=np.float64)
    raise ValueError(f"bad kind {kind!r}")


@dataclass(eq=False)
class MLPredict(Predict):
    """Classical-ML scoring (MLD operator): a miniml ``Pipeline``
    applied to the child's rows."""

    child: PlanNode
    model_name: str
    pipeline: object  # miniml.Pipeline
    output_col: str
    kind: str = "label"

    @property
    def input_cols(self) -> list[str]:
        return list(self.pipeline.input_cols)

    def predict_pandas(self, pdf: pd.DataFrame) -> np.ndarray:
        return _pipeline_prediction(self.pipeline, pdf, self.kind)


@dataclass(eq=False)
class NNPredict(Predict):
    """LA-operator scoring: an onnxlite graph fed through the
    featurizer's code/numeric inputs (NN-translated pipeline)."""

    child: PlanNode
    model_name: str
    graph: object  # onnxlite.Graph
    featurizer: object  # miniml.TableFeaturizer (for transform_codes)
    output_col: str
    kind: str = "label"
    classes: np.ndarray | None = None  # for label output of tree/forest graphs

    @property
    def input_cols(self) -> list[str]:
        return list(self.featurizer.input_cols)

    def predict_pandas(self, pdf: pd.DataFrame) -> np.ndarray:
        return predict_frame(self.graph, self.featurizer, pdf, self.kind, self.classes)


@dataclass(eq=False)
class ClusteredPredict(Predict):
    """Model-clustering execution: route each row to its (offline
    k-means) cluster and score with that cluster's precompiled model."""

    child: PlanNode
    model_name: str
    router: object  # callable: pdf -> cluster ids (np.ndarray int)
    cluster_pipelines: list  # per-cluster miniml.Pipeline
    output_col: str
    kind: str = "proba"

    @property
    def input_cols(self) -> list[str]:
        cols: list[str] = []
        for p in self.cluster_pipelines:
            for c in p.input_cols:
                if c not in cols:
                    cols.append(c)
        return cols

    def predict_pandas(self, pdf: pd.DataFrame) -> np.ndarray:
        cids = np.asarray(self.router(pdf))
        out = np.empty(len(pdf), dtype=np.float64)
        for cid in np.unique(cids):
            mask = cids == cid
            pipe = self.cluster_pipelines[int(cid)]
            out[mask] = _pipeline_prediction(pipe, pdf.loc[mask], self.kind)
        return out

    def label(self) -> str:
        return f"ClusteredPredict({self.model_name}×{len(self.cluster_pipelines)})"


@dataclass(eq=False)
class UDFNode(Unary):
    """Black-box Python over pandas batches: ``fn(pdf) -> pdf``. The
    static analyzer emits this for code it cannot map to IR operators."""

    child: PlanNode
    fn: object
    description: str = "udf"
    # columns the UDF reads; None = unknown → treat as "all" (blocks pushdown)
    required_cols: list[str] | None = None

    def label(self) -> str:
        return f"UDF({self.description})"
