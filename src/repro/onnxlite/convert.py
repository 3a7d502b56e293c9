"""NN translation: compile miniml models and featurizers to onnxlite
graphs (the paper's MLD→LA operator transformation, §4.2).

Decision trees and forests are compiled with Hummingbird's
*TreeTraversal* (TT) strategy (Nakandala et al., OSDI 2020). All
members' nodes are concatenated into flat global arrays:

* ``feat[n]`` — the input column node *n* tests, with the member's
  column subset already mapped in (no per-tree ``Gather`` of X);
* ``thr[n]`` — its threshold;
* ``left[n]`` / ``right[n]`` — global child ids; a leaf points to
  itself, so extra levels keep a row parked on its leaf;
* ``val[n]`` — the node's value, aligned to the forest's classes.

Level 0 gathers the root features, ``Gather(X, feat[roots], axis=1)``,
compares them with ``LessOrEqual`` and picks ``Where(le, left[roots],
right[roots])``: a (B, T) node-index tensor. Each further level (up to
the deepest member's depth) looks its nodes up, ``GatherElements(X,
feat[idx], axis=1) <= thr[idx]``, and steps to ``left[idx]`` or
``right[idx]``. The tail sums ``val[idx]`` over the trees and divides by
T. NaN and ±inf compare false against every threshold and go right,
exactly as in ``DecisionTree.apply``.

Hummingbird picks its strategy from tree depth: 3-GEMM only for shallow
trees (depth ≤ 3), where evaluating every split densely as ``X·A ≤ thr``
is cheap, and tree traversal beyond that on CPU (padded to a perfect
tree up to depth 10, plain TT deeper). We emit TT alone, for every
depth. On the flights forest (10 trees, depth 6, 212 features; 200K rows
in 10K-row batches, one thread, 4-vCPU x86 box) 3-GEMM took 5.9–8.6 s
(MatMul 60%, the per-tree column Gather 20%, bool→float Casts 8%) and TT
takes 0.30–0.38 s, bit-identical to ``RandomForest.predict_proba``.
3-GEMM also mis-scored any row with a NaN or inf in *any* feature:
``X·A`` multiplies it by 0, and NaN·0 = inf·0 = NaN poisons every split
of the row.
"""
from __future__ import annotations

import numpy as np

from repro.miniml.featurize import TableFeaturizer
from repro.miniml.forest import RandomForest
from repro.miniml.linear import LinearRegression, LogisticRegressionL1
from repro.miniml.mlp import MLPClassifier
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree
from repro.onnxlite.graph import Graph, Node


def _aligned_values(tree: DecisionTree, classes: np.ndarray | None) -> np.ndarray:
    """Node-value matrix aligned to ``classes`` (forest members trained
    on a bootstrap may have seen fewer classes)."""
    if classes is None or tree.task != "classification":
        return tree.value
    if len(tree.classes_) == len(classes):
        return tree.value
    full = np.zeros((tree.n_nodes, len(classes)))
    full[:, np.searchsorted(classes, tree.classes_)] = tree.value
    return full


def _traversal_graph(
    members: list[tuple[DecisionTree, np.ndarray]],
    classes: np.ndarray | None,
    input_name: str,
    name: str,
) -> Graph:
    """TT-compile ``members`` — (tree, input column of each tree
    feature) pairs — into a graph computing ``value`` = the mean of the
    members' leaf values, (B, n_out)."""
    feat, thr, left, right, val, roots = [], [], [], [], [], []
    offset = 0
    for tree, cols in members:
        ids = offset + np.arange(tree.n_nodes)
        leaf = tree.feature == LEAF
        # a leaf tests column 0, and both of its branches lead back to it
        feat.append(np.where(leaf, 0, cols[np.maximum(tree.feature, 0)]))
        thr.append(tree.threshold)
        left.append(np.where(leaf, ids, offset + tree.left))
        right.append(np.where(leaf, ids, offset + tree.right))
        val.append(_aligned_values(tree, classes))
        roots.append(offset)
        offset += tree.n_nodes
    feat, left, right = (np.concatenate(a).astype(np.int64) for a in (feat, left, right))
    thr = np.concatenate(thr)
    inits = {
        "tt_feat": feat,
        "tt_thr": thr,
        "tt_left": left,
        "tt_right": right,
        "tt_val": np.concatenate(val),
        "tt_root_feat": feat[roots],
        "tt_root_thr": thr[roots],
        "tt_root_left": left[roots],
        "tt_root_right": right[roots],
        "tt_ntrees": np.float64(len(members)),
    }
    nodes = [
        Node("Gather", [input_name, "tt_root_feat"], "tt_x0", {"axis": 1}),
        Node("LessOrEqual", ["tt_x0", "tt_root_thr"], "tt_le0"),
        Node("Where", ["tt_le0", "tt_root_left", "tt_root_right"], "tt_idx0"),
    ]
    depth = max(tree.depth for tree, _ in members)
    for k in range(1, depth):
        idx, p = f"tt_idx{k - 1}", f"tt_{k}_"
        nodes += [
            Node("Gather", ["tt_feat", idx], f"{p}f"),
            Node("GatherElements", [input_name, f"{p}f"], f"{p}x", {"axis": 1}),
            Node("Gather", ["tt_thr", idx], f"{p}t"),
            Node("LessOrEqual", [f"{p}x", f"{p}t"], f"{p}le"),
            Node("Gather", ["tt_left", idx], f"{p}l"),
            Node("Gather", ["tt_right", idx], f"{p}r"),
            Node("Where", [f"{p}le", f"{p}l", f"{p}r"], f"tt_idx{k}"),
        ]
    nodes += [
        Node("Gather", ["tt_val", f"tt_idx{max(depth - 1, 0)}"], "tt_leafval"),
        Node("ReduceSum", ["tt_leafval"], "tt_sum", {"axis": 1}),
        Node("Div", ["tt_sum", "tt_ntrees"], "value"),
    ]
    g = Graph(inputs=[input_name], outputs=["value"], nodes=nodes, initializers=inits,
              name=name)
    g.validate()
    return g


def tree_to_graph(tree: DecisionTree, input_name: str = "X") -> Graph:
    """Compile a single tree: input (B,F) features → output ``value``
    (leaf probabilities / regression means)."""
    return _traversal_graph([(tree, np.arange(tree.n_features))], None, input_name, "tree")


def forest_to_graph(forest: RandomForest, input_name: str = "X") -> Graph:
    """Compile a forest: every member traversed in one (B, T) index
    tensor, leaf values averaged."""
    classes = forest.classes_ if forest.task == "classification" else None
    members = [(t, np.asarray(c)) for t, c in zip(forest.trees, forest.feature_subsets)]
    return _traversal_graph(members, classes, input_name, "forest")


def linear_to_graph(model, input_name: str = "X") -> Graph:
    """Compile LinearRegression / LogisticRegressionL1. Outputs:
    ``score`` (= Xw + b) and, for logistic, ``proba`` (= sigmoid)."""
    inits = {"W": model.coef_.reshape(-1, 1), "b": np.float64(model.intercept_)}
    nodes = [
        Node("MatMul", [input_name, "W"], "xw"),
        Node("Add", ["xw", "b"], "score2d"),
        Node("Reshape", ["score2d"], "score", {"shape": [-1]}),
    ]
    outputs = ["score"]
    if isinstance(model, LogisticRegressionL1):
        nodes.append(Node("Sigmoid", ["score"], "proba"))
        outputs.append("proba")
    g = Graph(inputs=[input_name], outputs=outputs, nodes=nodes, initializers=inits,
              name="linear")
    g.validate()
    return g


def mlp_to_graph(mlp: MLPClassifier, input_name: str = "X") -> Graph:
    """Compile an MLP: Gemm/Relu chain + sigmoid head."""
    nodes: list[Node] = []
    inits: dict[str, np.ndarray] = {}
    h = input_name
    n_layers = len(mlp.weights)
    for i, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inits[f"W{i}"] = W
        inits[f"b{i}"] = b
        nodes.append(Node("Gemm", [h, f"W{i}", f"b{i}"], f"z{i}"))
        h = f"z{i}"
        if i < n_layers - 1:
            nodes.append(Node("Relu", [h], f"a{i}"))
            h = f"a{i}"
    nodes.append(Node("Reshape", [h], "score", {"shape": [-1]}))
    nodes.append(Node("Sigmoid", ["score"], "proba"))
    g = Graph(inputs=[input_name], outputs=["score", "proba"],
              nodes=nodes, initializers=inits, name="mlp")
    g.validate()
    return g


def featurizer_nodes(
    feat: TableFeaturizer, output_name: str = "features"
) -> tuple[list[str], list[Node], dict[str, np.ndarray]]:
    """Emit the featurizer as graph ops: inputs are the raw ``num``
    block and one int-code tensor per categorical column; output is the
    dense feature matrix (scaled numerics ++ one-hot blocks)."""
    inputs: list[str] = []
    nodes: list[Node] = []
    inits: dict[str, np.ndarray] = {}
    parts: list[str] = []
    if feat.numeric_cols:
        inputs.append("num")
        if feat.scaler is not None:
            inits["f_mean"] = feat.scaler.mean_
            inits["f_scale"] = feat.scaler.scale_
            nodes.append(Node("Sub", ["num", "f_mean"], "f_centered"))
            nodes.append(Node("Div", ["f_centered", "f_scale"], "f_num"))
            parts.append("f_num")
        else:
            parts.append("num")
    for c in feat.categorical_cols:
        inp = f"cat_{c}"
        inputs.append(inp)
        depth = len(feat.encoders[c].categories_)
        nodes.append(Node("OneHot", [inp], f"f_oh_{c}", {"depth": depth}))
        parts.append(f"f_oh_{c}")
    if len(parts) == 1:
        nodes.append(Node("Identity", [parts[0]], output_name))
    else:
        nodes.append(Node("Concat", parts, output_name, {"axis": 1}))
    return inputs, nodes, inits


def pipeline_to_graph(pipe: Pipeline) -> Graph:
    """Compile featurizer + estimator end-to-end (the Fig. 3 pipelines).
    Feed with ``TableFeaturizer.transform_codes`` outputs."""
    inputs, nodes, inits = featurizer_nodes(pipe.featurizer, "features")
    model = pipe.model
    if isinstance(model, DecisionTree):
        sub = tree_to_graph(model, "features")
    elif isinstance(model, RandomForest):
        sub = forest_to_graph(model, "features")
    elif isinstance(model, (LogisticRegressionL1, LinearRegression)):
        sub = linear_to_graph(model, "features")
    elif isinstance(model, MLPClassifier):
        sub = mlp_to_graph(model, "features")
    else:
        raise TypeError(f"cannot NN-translate {type(model).__name__}")
    nodes.extend(sub.nodes)
    inits.update(sub.initializers)
    g = Graph(inputs=inputs, outputs=list(sub.outputs), nodes=nodes,
              initializers=inits, name="pipeline")
    g.validate()
    return g


# rows per featurize→run step: a compiled forest holds a few
# (rows × trees) tensors per traversal level
_CHUNK_ROWS = 50_000


def predict_frame(graph: Graph, featurizer: TableFeaturizer, pdf, kind: str,
                  classes=None) -> np.ndarray:
    """Score the frame ``pdf`` with a compiled pipeline ``graph``: its
    featurizer's ``transform_codes`` feeds ``graph.run``, whose outputs
    become the prediction ``kind`` asks for, 50K rows at a time. Every
    onnxlite scoring path runs through here."""
    parts = []
    for s in range(0, len(pdf), _CHUNK_ROWS):
        out = graph.run(featurizer.transform_codes(pdf.iloc[s : s + _CHUNK_ROWS]))
        parts.append(_graph_prediction(out, kind, classes))
    return np.concatenate(parts) if parts else np.empty(0)


def _graph_prediction(out: dict, kind: str, classes=None) -> np.ndarray:
    """Map a compiled pipeline's outputs to the prediction ``kind`` asks
    for. Tree/forest graphs emit ``value`` (B, n_out): ``label`` is the
    argmax over ``classes`` (or the regression column), ``proba`` is
    column 1. Linear and MLP graphs emit ``score`` and, when logistic,
    ``proba``; their ``label`` is ``score > 0``."""
    if "value" in out:
        v = out["value"]
        if kind == "label":
            if classes is not None:
                return np.asarray(classes, dtype=np.float64)[np.argmax(v, axis=1)]
            return v[:, 0]
        if kind == "proba":
            return v[:, 1]
        raise ValueError(f"kind {kind!r} unsupported for value graphs")
    if kind == "proba":
        return out["proba"]
    if kind == "score":
        return out["score"]
    if kind == "label":
        return (out["score"] > 0).astype(np.float64)
    raise ValueError(f"bad kind {kind!r}")
