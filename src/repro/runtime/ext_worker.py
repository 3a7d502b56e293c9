"""External-runtime worker: the process launched per query by
``raven_ext`` (the ``sp_execute_external_script`` stand-in).

Everything a fresh external runtime must pay happens here for real:
interpreter start, library imports, model load from disk, Parquet
deserialization of the inputs, and result serialization back.
"""
from __future__ import annotations

import pickle
import sys


def main(task_path: str, in_path: str, out_path: str) -> None:
    import numpy as np
    import pandas as pd

    from repro.onnxlite.session import InferenceSession
    from repro.runtime.executors import _output_from

    with open(task_path, "rb") as f:
        task = pickle.load(f)
    pdf = pd.read_parquet(in_path)
    sess = InferenceSession(task["model_path"])
    feat = task["featurizer"]
    # bounded-memory chunks: a compiled forest holds a few (rows × trees)
    # tensors per traversal level
    parts = []
    for s in range(0, len(pdf), 50_000):
        out = sess.run(feat.transform_codes(pdf.iloc[s : s + 50_000]))
        parts.append(_output_from(out, task["kind"], task["classes"]))
    np.save(out_path, np.concatenate(parts))


if __name__ == "__main__":
    main(*sys.argv[1:4])
