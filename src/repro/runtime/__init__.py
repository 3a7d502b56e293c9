"""Inference-query execution (§5): IR→Spark code generation, which is
also Raven's in-process PREDICT; the model store; and the modes Fig. 3
compares it with (standalone engine, out-of-process external runtime,
in ``executors``)."""
from repro.runtime.codegen import to_dataframe
from repro.runtime.model_store import ModelStore
from repro.runtime.timing import force, measure

__all__ = ["to_dataframe", "ModelStore", "force", "measure"]
