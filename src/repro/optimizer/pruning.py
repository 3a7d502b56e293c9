"""Predicate-based model pruning (§4.1): a data-to-model cross-IR
optimization. Predicates below a predict operator constrain the rows
the model will ever see, so the model can be specialized:

* **decision trees / forests**: a split whose outcome is implied by the
  constraints collapses to the taken subtree (``pregnant=1`` removes
  the non-pregnant branch → 29% faster scoring in the paper);
* **one-hot blocks under linear models**: an equality predicate on a
  categorical column makes the whole block constant; its weights fold
  into the intercept and the features disappear (~2.1× in the paper,
  independent of selectivity — the win is the dropped features);
* scaled numeric features: constraints are transported through the
  scaler's affine map, so pruning still applies after standardization.
"""
from __future__ import annotations

import copy

import numpy as np

from repro.ir import Constraint, PlanNode
from repro.ir.ops import MLPredict
from repro.ir.plan import Catalog
from repro.miniml.forest import RandomForest
from repro.miniml.linear import LogisticRegressionL1
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree
from repro.optimizer.relational import gather_constraints
from repro.optimizer.rules import Rule


def prune_tree(tree: DecisionTree, constraints: dict[int, Constraint]) -> DecisionTree:
    """Rebuild ``tree`` dropping branches unreachable under per-feature
    ``constraints`` (keyed by feature index)."""
    nodes: list[dict] = []

    def build(i: int) -> int:
        f = int(tree.feature[i])
        if f != LEAF:
            c = constraints.get(f)
            t = float(tree.threshold[i])
            if c is not None:
                if c.implies_le(t):
                    return build(int(tree.left[i]))
                if c.implies_gt(t):
                    return build(int(tree.right[i]))
        nid = len(nodes)
        nodes.append(
            {"feature": f, "threshold": float(tree.threshold[i]),
             "left": LEAF, "right": LEAF, "value": tree.value[i]}
        )
        if f != LEAF:
            nodes[nid]["left"] = build(int(tree.left[i]))
            nodes[nid]["right"] = build(int(tree.right[i]))
        return nid

    # build() appends parent before children, so 0 stays the root
    build(0)
    out = DecisionTree(task=tree.task, max_depth=tree.max_depth,
                       min_samples_leaf=tree.min_samples_leaf)
    out.n_features = tree.n_features
    out.n_outputs = tree.n_outputs
    out.feature = np.array([n["feature"] for n in nodes], dtype=np.int64)
    out.threshold = np.array([n["threshold"] for n in nodes])
    out.left = np.array([n["left"] for n in nodes], dtype=np.int64)
    out.right = np.array([n["right"] for n in nodes], dtype=np.int64)
    out.value = np.stack([n["value"] for n in nodes])
    if tree.task == "classification":
        out._classes = tree.classes_
    return out


def _feature_constraints(pipe: Pipeline, col_constraints: dict) -> dict[int, Constraint]:
    """Map column-level constraints to feature-index constraints,
    transporting numeric bounds through the scaler's affine map
    (z = (x - mean)/scale, scale > 0, so order is preserved)."""
    feat = pipe.featurizer
    out: dict[int, Constraint] = {}
    for idx, spec in enumerate(feat.feature_specs):
        if spec[0] != "num":
            continue
        col = spec[1]
        c = col_constraints.get(col)
        if c is None:
            continue
        if feat.scaler is not None:
            j = feat.numeric_cols.index(col)
            m, s = feat.scaler.mean_[j], feat.scaler.scale_[j]

            def tx(v: float) -> float:
                return (v - m) / s if np.isfinite(v) else v

            eq = c.eq
            if eq is not None and isinstance(eq, (int, float)) and not isinstance(eq, bool):
                eq = tx(float(eq))
            out[idx] = Constraint(
                lo=tx(c.lo), lo_strict=c.lo_strict,
                hi=tx(c.hi), hi_strict=c.hi_strict, eq=eq,
            )
        else:
            out[idx] = c
    return out


def prune_pipeline(pipe: Pipeline, col_constraints: dict) -> tuple[Pipeline, bool]:
    """Specialize a pipeline under column constraints. Returns
    (new pipeline, changed?)."""
    model = pipe.model
    changed = False

    # 1. categorical equality → fold one-hot block (linear models)
    featurizer = pipe.featurizer
    if isinstance(model, LogisticRegressionL1):
        coef = model.coef_
        bias = model.intercept_
        for col in list(featurizer.categorical_cols):
            c = col_constraints.get(col)
            if c is None or c.eq is None:
                continue
            names = featurizer.feature_names
            new_feat, consts, keep = featurizer.bind_categorical(col, c.eq)
            folded = sum(
                coef[names.index(fname)] * v for fname, v in consts.items()
            )
            bias = bias + folded
            coef = coef[keep]
            featurizer = new_feat
            changed = True
        if changed:
            model = copy.deepcopy(model)
            model.coef_ = coef
            model.intercept_ = float(bias)

    # 2. numeric interval constraints → tree branch pruning
    fc = _feature_constraints(Pipeline(featurizer, model), col_constraints)
    if fc and isinstance(model, DecisionTree):
        pruned = prune_tree(model, fc)
        if pruned.n_nodes < model.n_nodes:
            model = pruned
            changed = True
    elif fc and isinstance(model, RandomForest):
        model = copy.copy(model)
        new_trees = []
        tree_changed = False
        for tree, cols in zip(model.trees, model.feature_subsets):
            sub_fc = {
                int(np.where(cols == gi)[0][0]): c
                for gi, c in fc.items()
                if gi in set(cols.tolist())
            }
            pt = prune_tree(tree, sub_fc) if sub_fc else tree
            tree_changed |= pt.n_nodes < tree.n_nodes
            new_trees.append(pt)
        if tree_changed:
            model.trees = new_trees
            changed = True

    if not changed:
        return pipe, False
    return Pipeline(featurizer, model), True


class PredicateBasedModelPruning(Rule):
    """For every MLPredict, gather the constraints implied by filters in
    its input subtree and specialize the pipeline."""

    name = "predicate_based_model_pruning"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline):
            cons = gather_constraints(node.child)
            if cons:
                new_pipe, changed = prune_pipeline(node.pipeline, cons)
                if changed:
                    node = copy.copy(node)
                    node.pipeline = new_pipe
        return node
