"""Measurement from outside the layers: per-query spans, rule and
kernel wrappers, the driver-side scoring replay, Spark event-log
attribution and a process-tree memory sampler.

Everything here wraps public entry points of ``repro`` in the benchmark
process only; no file of the program is changed and Spark's Python
workers run the program unwrapped.
"""
from __future__ import annotations

import glob
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.ir import Join, MLPredict, walk
from repro.ir.ops import NNPredict
from repro.onnxlite import ops as onnx_ops

# Spark's Arrow batch size (spark.sql.execution.arrow.maxRecordsPerBatch).
ARROW_BATCH_ROWS = 10_000


class Spans:
    """Named durations of one query, in seconds, with a parent link so
    self time can be derived. Kept in memory; written out at the end."""

    def __init__(self, query_id: str, shape: str):
        self.query_id = query_id
        self.shape = shape
        self.spans: list[tuple[str, str | None, float]] = []  # (name, parent, seconds)
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, parent: str | None = "query"):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, parent, time.perf_counter() - t0))

    def total(self, name: str) -> float:
        return sum(s for n, _, s in self.spans if n == name)

    def children(self, name: str) -> float:
        return sum(s for _, p, s in self.spans if p == name)

    def self_time(self, name: str) -> float:
        return self.total(name) - self.children(name)

    def as_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "shape": self.shape,
            "spans": [{"name": n, "parent": p, "s": s} for n, p, s in self.spans],
            "counts": self.counts,
        }


# ------------------------------------------------------------ optimizer
def model_stats(plan) -> tuple[int, int] | None:
    """(model nodes, model input features) of the plan's MLPredict, or
    None when the plan holds none (inlined or translated)."""
    for node in walk(plan):
        if isinstance(node, MLPredict):
            m = node.pipeline.model
            trees = getattr(m, "trees", None) or [m]
            return sum(t.n_nodes for t in trees), len(node.pipeline.input_cols)
    return None


class RuleTimer:
    """Wraps each rule's ``apply`` of one optimizer. Per query it times
    every call and records the model statistics of the last plan that
    still held an ``MLPredict`` (the plan a translation rule received)."""

    def __init__(self, optimizer):
        self.current: Spans | None = None
        self.last_model: tuple[int, int] | None = None
        for rule in optimizer.rules:
            rule.apply = self._wrap(rule, rule.apply)

    def _wrap(self, rule, apply):
        def timed(plan, catalog):
            spans = self.current
            if spans is None:
                return apply(plan, catalog)
            with spans.span(f"rule.{rule.name}", parent="optimize"):
                out, changed = apply(plan, catalog)
            stats = model_stats(out)
            if stats is not None:
                self.last_model = stats
            return out, changed

        return timed


def optimizer_counts(analyzed, report, last_model) -> dict[str, float]:
    before = model_stats(analyzed) or (0, 0)
    after = last_model or before
    return {
        "optimizer.rules_fired": len(report.applied),
        "optimizer.iterations": report.iterations,
        "optimizer.plan_nodes": sum(1 for _ in walk(report.plan)),
        "optimizer.joins": sum(isinstance(n, Join) for n in walk(report.plan)),
        "optimizer.model_nodes_before": before[0],
        "optimizer.model_nodes_after": after[0],
        "optimizer.features_before": before[1],
        "optimizer.features_after": after[1],
    }


def predict_nodes(plan) -> list:
    return [n for n in walk(plan) if isinstance(n, (MLPredict, NNPredict))]


def payload_bytes(plan) -> int:
    """Bytes of the cloudpickled predict nodes codegen ships with every
    ``mapInPandas`` task."""
    from pyspark import cloudpickle

    return sum(len(cloudpickle.dumps(n)) for n in predict_nodes(plan))


# ------------------------------------------------------------- replay
@contextmanager
def kernel_profile(acc: dict[str, float]):
    """Wrap every ``onnxlite.ops.KERNELS`` entry for the duration of the
    block, adding per-op seconds, calls and input+output array bytes to
    ``acc``."""
    original = dict(onnx_ops.KERNELS)

    def wrap(op, fn):
        def timed(ins, attrs):
            t0 = time.perf_counter()
            out = fn(ins, attrs)
            acc[f"onnxlite.op.{op}_s"] += time.perf_counter() - t0
            acc[f"onnxlite.op.{op}_bytes"] += (
                sum(np.asarray(a).nbytes for a in ins) + np.asarray(out).nbytes)
            acc["onnxlite.ops"] += 1
            return out

        return timed

    for op, fn in original.items():
        onnx_ops.KERNELS[op] = wrap(op, fn)
    try:
        yield
    finally:
        onnx_ops.KERNELS.update(original)


def replay(plan, rows, acc: dict[str, float]) -> None:
    """Score ``rows`` (the rows the query's PREDICT received) with the
    optimized plan's predict nodes in the driver, one Arrow-sized batch
    at a time, timing the featurizer and the kernel separately. This is
    single-threaded CPU time, not a share of the Spark tasks' time."""
    for node in predict_nodes(plan):
        for lo in range(0, len(rows), ARROW_BATCH_ROWS):
            batch = rows.iloc[lo : lo + ARROW_BATCH_ROWS]
            acc["miniml.rows"] += len(batch)
            if isinstance(node, MLPredict):
                t0 = time.perf_counter()
                x = node.pipeline.featurizer.transform(batch)
                t1 = time.perf_counter()
                model = node.pipeline.model
                if node.kind == "proba":
                    model.predict_proba(x)
                else:
                    model.predict(x)
                t2 = time.perf_counter()
                acc["miniml.featurize_s"] += t1 - t0
                acc["miniml.predict_s"] += t2 - t1
            else:
                t0 = time.perf_counter()
                feeds = node.featurizer.transform_codes(batch)
                t1 = time.perf_counter()
                with kernel_profile(acc):
                    node.graph.run(feeds)
                t2 = time.perf_counter()
                acc["miniml.transform_codes_s"] += t1 - t0
                acc["onnxlite.run_s"] += t2 - t1


# ----------------------------------------------------------- event log
_PY_METRICS = {
    "data sent to Python workers": ("arrow.bytes_to_python", 1.0),
    "data returned from Python workers": ("arrow.bytes_from_python", 1.0),
    # Spark's Python timing metrics are in milliseconds.
    "time to start Python workers": ("python.start_s", 1e-3),
    "time to initialize Python workers": ("python.init_s", 1e-3),
    "time to run Python workers": ("python.run_s", 1e-3),
}

SPARK_METRICS = [
    "spark.action_s", "spark.jobs", "spark.stages", "spark.tasks",
    "spark.executor_run_s", "spark.executor_cpu_s", "spark.jvm_gc_s",
    "spark.input_bytes", "spark.input_records", "spark.shuffle_read_bytes",
    "spark.shuffle_write_bytes", "spark.result_bytes",
] + [name for name, _ in _PY_METRICS.values()]


def read_event_log(log_dir: str) -> dict[str, dict[str, float]]:
    """Sum Spark's own job, stage and task metrics per job group (the
    benchmark sets the group to the query id). ``spark.action_s`` is the
    time from the group's first job submission to its last job end."""
    files = [f for f in glob.glob(os.path.join(log_dir, "*")) if os.path.isfile(f)]
    if len(files) != 1:
        raise RuntimeError(f"expected one Spark event log in {log_dir}, found {files}")
    per: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    stage_group: dict[int, str] = {}
    job_group: dict[int, str] = {}
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    with open(files[0]) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev["Event"]
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                if group is None:
                    continue
                job_group[ev["Job ID"]] = group
                for sid in ev["Stage IDs"]:
                    stage_group[sid] = group
                per[group]["spark.jobs"] += 1
                first[group] = min(first.get(group, float("inf")), ev["Submission Time"])
            elif kind == "SparkListenerJobEnd":
                group = job_group.get(ev["Job ID"])
                if group is not None:
                    last[group] = max(last.get(group, 0.0), ev["Completion Time"])
            elif kind == "SparkListenerStageCompleted":
                group = stage_group.get(ev["Stage Info"]["Stage ID"])
                if group is not None:
                    per[group]["spark.stages"] += 1
            elif kind == "SparkListenerTaskEnd":
                group = stage_group.get(ev["Stage ID"])
                if group is None:
                    continue
                m = per[group]
                m["spark.tasks"] += 1
                tm = ev.get("Task Metrics") or {}
                m["spark.executor_run_s"] += tm.get("Executor Run Time", 0) / 1e3
                m["spark.executor_cpu_s"] += tm.get("Executor CPU Time", 0) / 1e9
                m["spark.jvm_gc_s"] += tm.get("JVM GC Time", 0) / 1e3
                m["spark.result_bytes"] += tm.get("Result Size", 0)
                inp = tm.get("Input Metrics") or {}
                m["spark.input_bytes"] += inp.get("Bytes Read", 0)
                m["spark.input_records"] += inp.get("Records Read", 0)
                sr = tm.get("Shuffle Read Metrics") or {}
                m["spark.shuffle_read_bytes"] += (
                    sr.get("Remote Bytes Read", 0) + sr.get("Local Bytes Read", 0)
                )
                sw = tm.get("Shuffle Write Metrics") or {}
                m["spark.shuffle_write_bytes"] += sw.get("Shuffle Bytes Written", 0)
                for acc in (ev.get("Task Info") or {}).get("Accumulables", []):
                    spec = _PY_METRICS.get(acc.get("Name"))
                    if spec is not None:
                        m[spec[0]] += float(acc.get("Update", 0)) * spec[1]
    for group in per:
        if group in first and group in last:
            per[group]["spark.action_s"] = (last[group] - first[group]) / 1e3
    return {g: dict(v) for g, v in per.items()}


# -------------------------------------------------------------- memory
class TreeRssSampler:
    """Samples the resident memory of this process and all its
    descendants (Spark JVM, Python workers) and keeps the peak, with its
    split into driver, JVM and other (Python worker) processes."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_bytes = 0
        self.peak_parts: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    def _tree(self) -> list[tuple[int, str]]:
        """(pid, role) of this process and its descendants."""
        children = defaultdict(list)
        for stat in glob.glob("/proc/[0-9]*/stat"):
            try:
                with open(stat) as f:
                    head, tail = f.read().rsplit(")", 1)
            except OSError:
                continue
            comm = head.split("(", 1)[1]
            children[int(tail.split()[1])].append((int(stat.split("/")[2]), comm))
        me = os.getpid()
        out, todo = [], [(me, "driver")]
        while todo:
            pid, role = todo.pop()
            out.append((pid, role))
            todo.extend((c, "jvm" if comm == "java" else "workers")
                        for c, comm in children.get(pid, []))
        return out

    def sample(self) -> None:
        parts: dict[str, int] = defaultdict(int)
        for pid, role in self._tree():
            try:
                with open(f"/proc/{pid}/statm") as f:
                    parts[role] += int(f.read().split()[1]) * self._page
            except OSError:
                continue
        total = sum(parts.values())
        if total > self.peak_bytes:
            self.peak_bytes, self.peak_parts = total, dict(parts)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()
