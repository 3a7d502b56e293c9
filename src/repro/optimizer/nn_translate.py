"""NN translation rule (§4.2): swap MLPredict (classical MLD operator)
for NNPredict (an onnxlite LA graph). Trees and forests become batched
tree-traversal tensor ops (every tree of a forest advances one level per
op, see ``onnxlite.convert``), linear models and MLPs become GEMMs — the
executor can then choose the NN engine for this operator, as Raven's
runtime selection does."""
from __future__ import annotations

from repro.ir import PlanNode
from repro.ir.ops import MLPredict, NNPredict
from repro.ir.plan import Catalog
from repro.miniml.forest import RandomForest
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import DecisionTree
from repro.onnxlite import optimize
from repro.onnxlite.convert import pipeline_to_graph
from repro.optimizer.rules import Rule


def translate_predict(node: MLPredict) -> NNPredict:
    """Compile one MLPredict's pipeline to a graph-backed NNPredict."""
    pipe: Pipeline = node.pipeline
    graph = optimize(pipeline_to_graph(pipe))
    classes = None
    model = pipe.model
    if isinstance(model, (DecisionTree, RandomForest)) and model.task == "classification":
        classes = model.classes_
    return NNPredict(
        child=node.child,
        model_name=node.model_name,
        graph=graph,
        featurizer=pipe.featurizer,
        output_col=node.output_col,
        kind=node.kind,
        classes=classes,
    )


class NNTranslation(Rule):
    name = "nn_translation"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline):
            try:
                return translate_predict(node)
            except TypeError:
                pass  # no graph form for this model (e.g. k-means)
        return node
