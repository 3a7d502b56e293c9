"""Model clustering (§4.1 / Fig. 2b): cluster historical data offline,
precompile a specialized model per cluster, route rows cheaply at
inference time.

Following the paper's framing ("cluster the data in a way that each
cluster has specific values for some features"), we k-means the sample
in feature space, then assign each *category* of a chosen categorical
column to the cluster where it predominantly lands. The router is then
a dictionary lookup on that column — O(1) per row, no featurization —
and each cluster's model drops every one-hot feature for categories
that never occur in the cluster (their weights can't fire).

Compile time (the paper reports it as negligible) and clustering time
(0.4–42 s in the paper) are both returned so T2 can report them.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.ir.ops import ClusteredPredict
from repro.miniml.kmeans import KMeans
from repro.miniml.pipeline import Pipeline


@dataclass
class ClusteredModel:
    """Offline artifact: category→cluster routing plus per-cluster
    specialized pipelines (and the original as fallback)."""

    cluster_col: str
    category_to_cluster: dict
    pipelines: list  # per-cluster Pipeline
    fallback: Pipeline
    cluster_seconds: float
    compile_seconds: float

    def router(self, pdf: pd.DataFrame) -> np.ndarray:
        return (
            pdf[self.cluster_col]
            .map(self.category_to_cluster)
            .fillna(-1)
            .to_numpy(dtype=np.int64)
        )

    def _remap(self, pipe: Pipeline, col: str) -> np.ndarray:
        """Full-category-space codes → the cluster model's local one-hot
        positions (−1 = category absent from this cluster's model). A
        trailing −1 sentinel absorbs unseen-category codes (−1 input
        indexes the last slot)."""
        key = (id(pipe), col)
        cache = self.__dict__.setdefault("_remap_cache", {})
        if key not in cache:
            full = self.fallback.featurizer.encoders[col].categories_
            local = {v: i for i, v in enumerate(pipe.featurizer.encoders[col].categories_)} \
                if col in pipe.featurizer.encoders else {}
            remap = np.full(len(full) + 1, -1, dtype=np.int64)
            for i, v in enumerate(full):
                remap[i] = local.get(v, -1)
            cache[key] = remap
        return cache[key]

    def predict_proba1(self, pdf: pd.DataFrame) -> np.ndarray:
        """Clustered scoring. Featurization state (numeric block,
        categorical codes) is computed once over the batch; each
        cluster then builds its *narrower* dense feature matrix and runs
        the same dense GEMM the baseline runs — the saving is exactly
        the dropped feature columns, with no duplicated pandas work."""
        from repro.miniml.linear import sigmoid

        feat0 = self.fallback.featurizer
        num = pdf[feat0.numeric_cols].to_numpy(dtype=np.float64) if feat0.numeric_cols else None
        codes = {c: feat0.encoders[c].codes(pdf[c]) for c in feat0.categorical_cols}
        cids = self.router(pdf)
        out = np.empty(len(pdf), dtype=np.float64)
        for cid in np.unique(cids):
            idx = np.nonzero(cids == cid)[0]
            pipe = self.fallback if cid < 0 else self.pipelines[int(cid)]
            f = pipe.featurizer
            X = np.zeros((len(idx), f.n_features))
            col = 0
            if f.numeric_cols:
                sub = num[np.ix_(idx, [feat0.numeric_cols.index(c) for c in f.numeric_cols])]
                col = len(f.numeric_cols)
                X[:, :col] = f.scaler.transform(sub) if f.scaler else sub
            for c in f.categorical_cols:
                loc = self._remap(pipe, c)[codes[c][idx]]
                v = loc >= 0
                X[np.nonzero(v)[0], col + loc[v]] = 1.0
                col += len(f.encoders[c].categories_)
            out[idx] = sigmoid(X @ pipe.model.coef_ + pipe.model.intercept_)
        return out

    def avg_features(self) -> float:
        return float(np.mean([p.featurizer.n_features for p in self.pipelines]))


def compile_clustered(
    pipe: Pipeline, sample: pd.DataFrame, k: int, cluster_col: str, seed: int = 0
) -> ClusteredModel:
    """Build the clustered artifact from a linear-model pipeline and a
    historical sample."""
    feat = pipe.featurizer
    if cluster_col not in feat.categorical_cols:
        raise KeyError(f"{cluster_col!r} is not a categorical input of the model")

    t0 = time.perf_counter()
    X = feat.transform(sample)
    km = KMeans(k=k, seed=seed).fit(X)
    labels = km.predict(X)
    cluster_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    cats = feat.encoders[cluster_col].categories_
    values = sample[cluster_col].to_numpy()
    category_to_cluster: dict = {}
    for cat in cats:
        mask = values == cat
        if mask.any():
            category_to_cluster[cat] = int(np.bincount(labels[mask], minlength=k).argmax())
        else:
            category_to_cluster[cat] = 0

    pipelines: list[Pipeline] = []
    names = feat.feature_names
    for cid in range(max(k, 1)):
        present = {c for c, cl in category_to_cluster.items() if cl == cid}
        absent = {f"{cluster_col}={c}" for c in cats if c not in present}
        if not absent:
            pipelines.append(pipe)
            continue
        new_feat, keep = feat.drop_features(absent)
        model = copy.deepcopy(pipe.model)
        model.coef_ = pipe.model.coef_[keep]
        pipelines.append(Pipeline(new_feat, model))
    compile_seconds = time.perf_counter() - t1
    return ClusteredModel(
        cluster_col=cluster_col,
        category_to_cluster=category_to_cluster,
        pipelines=pipelines,
        fallback=pipe,
        cluster_seconds=cluster_seconds,
        compile_seconds=compile_seconds,
    )


def to_clustered_predict(node, clustered: ClusteredModel) -> ClusteredPredict:
    """IR form: replace an MLPredict with the clustered execution node."""
    return ClusteredPredict(
        child=node.child,
        model_name=f"{node.model_name}_clustered",
        router=clustered.router,
        cluster_pipelines=clustered.pipelines,
        output_col=node.output_col,
        kind=node.kind,
    )
