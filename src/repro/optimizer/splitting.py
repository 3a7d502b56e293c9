"""Model/query splitting (§2): partition a tree model at its root split
into two cheaper models, turning the plan into a UNION of two branches
that can then be optimized independently (the paper notes the left
branch of the running example becomes cheap enough to inline, and its
join with prenatal_tests can be dropped).

The split predicate is expressed over the *raw* column (thresholds
inverted through the scaler), so each branch's Filter is a plain
relational predicate — which predicate-based pruning then consumes to
specialize each branch's model further.
"""
from __future__ import annotations

import copy

from repro.ir import Cmp, Col, Filter, IsNull, Lit, Not, Or, PlanNode, Union, walk
from repro.ir.ops import MLPredict
from repro.ir.plan import Catalog, transform_bottom_up
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree
from repro.optimizer.inlining import _raw_threshold
from repro.optimizer.rules import Rule


def split_predict(node: MLPredict) -> Union | None:
    """Split one tree-backed MLPredict at its root. Returns None when
    not applicable (non-tree model, leaf-only tree, categorical root)."""
    pipe = node.pipeline
    if not (isinstance(pipe, Pipeline) and isinstance(pipe.model, DecisionTree)):
        return None
    tree: DecisionTree = pipe.model
    if tree.feature[0] == LEAF:
        return None
    try:
        col, t = _raw_threshold(pipe.featurizer, int(tree.feature[0]), float(tree.threshold[0]))
    except ValueError:
        return None

    left_pipe = Pipeline(copy.deepcopy(pipe.featurizer), tree.subtree(int(tree.left[0])))
    right_pipe = Pipeline(copy.deepcopy(pipe.featurizer), tree.subtree(int(tree.right[0])))
    pred = Cmp("<=", Col(col), Lit(float(t)))

    left = copy.copy(node)
    left.child = Filter(node.child, pred)
    left.pipeline = left_pipe
    right = copy.copy(node)
    # a NULL split value fails both comparisons; the tree sends it right
    right.child = Filter(node.child, Or(Not(pred), IsNull(Col(col))))
    right.pipeline = right_pipe
    return Union([left, right])


class ModelQuerySplitting(Rule):
    """Split tree MLPredicts at their root, bottom-up, while budget is
    left: ``max_splits`` less the Unions the plan already holds, less
    one per split made in this sweep. Further sweeps split the branches
    deeper until the budget is spent. The budget is read off the plan,
    so the rule keeps no state between ``optimize()`` calls."""

    name = "model_query_splitting"

    def __init__(self, max_splits: int = 1):
        self.max_splits = max_splits

    def apply(self, plan: PlanNode, catalog: Catalog) -> tuple[PlanNode, bool]:
        budget = self.max_splits - sum(isinstance(n, Union) for n in walk(plan))

        def rewrite(node: PlanNode) -> PlanNode:
            nonlocal budget
            if budget > 0 and isinstance(node, MLPredict):
                split = split_predict(node)
                if split is not None:
                    budget -= 1
                    return split
            return node

        new = transform_bottom_up(plan, rewrite)
        return new, new is not plan
