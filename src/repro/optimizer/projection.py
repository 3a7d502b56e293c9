"""Model-projection pushdown (§4.1): a model-to-data cross-IR
optimization. Features the model provably ignores — exactly-zero
weights from L1 regularization, or tree features no split tests —
are removed from the model *and* projected out of the data plan.

The data-side effect happens via the relational ``PruneColumns`` rule:
shrinking ``pipeline.input_cols`` here shrinks the required-column set
there, which trims scans and can eliminate whole joins ("the relational
optimizer can drop joins if one of the joining relations no longer
provides features needed by the model").
"""
from __future__ import annotations

import copy

import numpy as np

from repro.ir import PlanNode
from repro.ir.ops import MLPredict
from repro.ir.plan import Catalog
from repro.miniml.forest import RandomForest
from repro.miniml.linear import LinearRegression, LogisticRegressionL1
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree
from repro.optimizer.rules import Rule


def shrink_linear(pipe: Pipeline) -> tuple[Pipeline, bool]:
    """Drop zero-weight features from a linear-model pipeline."""
    model = pipe.model
    zero = model.coef_ == 0.0
    if not zero.any():
        return pipe, False
    names = pipe.featurizer.feature_names
    dropped = {names[i] for i in np.nonzero(zero)[0]}
    new_feat, keep = pipe.featurizer.drop_features(dropped)
    new_model = copy.deepcopy(model)
    new_model.coef_ = model.coef_[keep]
    return Pipeline(new_feat, new_model), True


def _remap_tree(tree: DecisionTree, old_to_new: dict[int, int], n_new: int) -> DecisionTree:
    out = copy.copy(tree)
    out.feature = np.array(
        [old_to_new[f] if f != LEAF else LEAF for f in tree.feature], dtype=np.int64
    )
    out.n_features = n_new
    return out


def shrink_tree(pipe: Pipeline) -> tuple[Pipeline, bool]:
    """Drop features never tested by any split of a tree pipeline."""
    tree: DecisionTree = pipe.model
    used = {int(f) for f in tree.feature if f != LEAF}
    names = pipe.featurizer.feature_names
    unused = {names[i] for i in range(len(names)) if i not in used}
    if not unused:
        return pipe, False
    new_feat, keep = pipe.featurizer.drop_features(unused)
    old_to_new = {int(o): n for n, o in enumerate(keep)}
    return Pipeline(new_feat, _remap_tree(tree, old_to_new, len(keep))), True


def shrink_forest(pipe: Pipeline) -> tuple[Pipeline, bool]:
    """Drop features unused by *every* member tree of a forest."""
    forest: RandomForest = pipe.model
    used: set[int] = set()
    for tree, cols in zip(forest.trees, forest.feature_subsets):
        for f in tree.feature:
            if f != LEAF:
                used.add(int(cols[int(f)]))
    names = pipe.featurizer.feature_names
    unused = {names[i] for i in range(len(names)) if i not in used}
    if not unused:
        return pipe, False
    new_feat, keep = pipe.featurizer.drop_features(unused)
    old_to_new = {int(o): n for n, o in enumerate(keep)}
    new_forest = copy.copy(forest)
    new_forest.feature_subsets = [
        np.array([old_to_new[int(c)] for c in cols if int(c) in old_to_new], dtype=np.int64)
        for cols in forest.feature_subsets
    ]
    # member trees index into their subset, which keeps only used
    # global features — remap each tree's local feature indices
    new_trees = []
    for tree, cols in zip(forest.trees, forest.feature_subsets):
        local_keep = [i for i, c in enumerate(cols) if int(c) in old_to_new]
        local_map = {old: new for new, old in enumerate(local_keep)}
        t = copy.copy(tree)
        t.feature = np.array(
            [local_map[int(f)] if f != LEAF else LEAF for f in tree.feature],
            dtype=np.int64,
        )
        t.n_features = len(local_keep)
        new_trees.append(t)
    new_forest.trees = new_trees
    return Pipeline(new_feat, new_forest), True


def shrink_pipeline(pipe: Pipeline) -> tuple[Pipeline, bool]:
    if isinstance(pipe.model, (LogisticRegressionL1, LinearRegression)):
        return shrink_linear(pipe)
    if isinstance(pipe.model, DecisionTree):
        return shrink_tree(pipe)
    if isinstance(pipe.model, RandomForest):
        return shrink_forest(pipe)
    return pipe, False


class ModelProjectionPushdown(Rule):
    """Shrink every MLPredict's pipeline to its provably-used features."""

    name = "model_projection_pushdown"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline):
            new_pipe, changed = shrink_pipeline(node.pipeline)
            if changed:
                node = copy.copy(node)
                node.pipeline = new_pipe
        return node
