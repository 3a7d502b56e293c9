"""The benchmark's client and measurements: Spark session lifecycle,
set-up, the closed-loop client, the reference and DuckDB checks, and
the end-to-end and per-layer metrics. ``run.py`` imports this module
only after it has pointed the environment at the checkout."""
from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from pyspark import SparkContext
from pyspark.sql import SparkSession

import tracing
import workloads as wl
from repro.oracle import assert_equivalent

# setup_s = Spark start + model training + the median of SETUP_REPS
# set-ups (tables, Parquet files, Raven session) + the untimed warm-up:
# whole query cycles of at least WARMUP_QUERIES queries.
SETUP_REPS = 3
WARMUP_QUERIES = 9

END_TO_END = {
    "query_p50_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

RULES = [
    "filter_pushdown", "predicate_based_model_pruning", "model_projection_pushdown",
    "prune_columns", "nn_translation", "model_inlining",
]
# Operator types of the translated flights forest graph.
ONNX_OPS = [
    "MatMul", "Cast", "Gather", "LessOrEqual", "Equal", "Add", "OneHot", "Div", "Sub", "Concat",
]


def per_layer_units() -> dict[str, str]:
    units = {
        "analyzer.analyze_sql_s": "s",
        "optimizer.optimize_s": "s",
        "optimizer.self_s": "s",
        **{f"optimizer.rule.{r}_s": "s" for r in RULES},
        "optimizer.rules_fired": "count",
        "optimizer.iterations": "count",
        "optimizer.plan_nodes": "count",
        "optimizer.joins": "count",
        "optimizer.model_nodes_before": "count",
        "optimizer.model_nodes_after": "count",
        "optimizer.features_before": "count",
        "optimizer.features_after": "count",
        "codegen.to_dataframe_s": "s",
        "codegen.predict_payload_bytes": "bytes",
        "collect.to_pandas_s": "s",
        "collect.self_s": "s",
    }
    for name in tracing.SPARK_METRICS:
        units[name] = "s" if name.endswith("_s") else ("bytes" if "bytes" in name else "count")
    units.update({
        "python.overhead_s": "s",
        "miniml.featurize_s": "s",
        "miniml.transform_codes_s": "s",
        "miniml.predict_s": "s",
        "miniml.rows": "count",
        "onnxlite.run_s": "s",
        "onnxlite.ops": "count",
        **{f"onnxlite.op.{op}_s": "s" for op in ONNX_OPS},
        **{f"onnxlite.op.{op}_bytes": "bytes" for op in ONNX_OPS},
        "trace.query_p50_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.query_self_s": "s",
        "trace.span_coverage_min": "ratio",
    })
    return units


def start_spark(work: Path, trace: bool):
    """A session configured as ``jobs/_session.py`` (Arrow on, 64 shuffle
    partitions, broadcast joins off), plus the event log when tracing."""
    b = (
        SparkSession.builder.appName("ravenbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(work / "spark-local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.ui.showConsoleProgress", "false")
    )
    if trace:
        (work / "eventlog").mkdir()
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
            .config("spark.eventLog.dir", (work / "eventlog").as_uri())
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and with it the Python
    worker daemon) to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


class Setup:
    """Generated tables and a ``Raven`` session over Parquet copies of
    them, serving ``pipeline``. ``parts`` holds each step's seconds."""

    def __init__(self, spark, w, rows: int, seed: int, data_dir: Path, pipeline):
        t = [time.perf_counter()]
        self.frames = wl.generate_tables(w, rows, seed)
        t.append(time.perf_counter())
        paths = wl.write_parquet(self.frames, str(data_dir))
        t.append(time.perf_counter())
        self.raven = wl.make_raven(spark, w, self.frames, paths, pipeline)
        t.append(time.perf_counter())
        self.parts = dict(zip(["generate", "parquet", "session"],
                              (b - a for a, b in zip(t, t[1:]))))
        self.expected = None  # built once, outside the timed set-up


def run_query(raven, query, spans):
    """One query through the facade; returns the collected pandas frame.
    The four spans are consecutive and cover the query's wall time."""
    with spans.span("analyze"):
        plan = raven.analyze_sql(query.sql)
    with spans.span("optimize"):
        report = raven.optimize(plan)
    with spans.span("codegen"):
        df = raven.execute(report.plan)
    with spans.span("collect"):
        pdf = df.toPandas()
    return plan, report, pdf


class Client:
    """The closed-loop client: runs whole query cycles, checks every
    result, and records per-query wall time, spans and outcome."""

    def __init__(self, spark, w, setup: Setup):
        self.spark, self.w, self.setup = spark, w, setup
        self.records: list[dict] = []
        self.rule_timer: tracing.RuleTimer | None = None
        self.replay_acc: dict[str, dict[str, float]] = {}

    def enable_tracing(self) -> None:
        self.rule_timer = tracing.RuleTimer(self.setup.raven.optimizer)

    def cycle(self, tag: str, traced: bool) -> None:
        sc = self.spark.sparkContext
        for q in self.w.queries:
            qid = f"{tag}{len(self.records)}"
            spans = tracing.Spans(qid, q.name)
            if self.rule_timer is not None:
                # every query of a traced run gets its own job group, so
                # Spark's metrics join to the query that caused them
                sc.setJobGroup(qid, q.name)
            if traced:
                self.rule_timer.current = spans
                self.rule_timer.last_model = None
            exp = self.setup.expected[q.name]
            rec = {"id": qid, "shape": q.name, "traced": traced, "rows": exp.rows_scored,
                   "error": None, "spans": spans}
            t0 = time.perf_counter()
            try:
                plan, report, pdf = run_query(self.setup.raven, q, spans)
                rec["wall"] = time.perf_counter() - t0
                rec["error"] = wl.check_result(self.w, pdf, exp)
            except Exception as e:  # a failed query is counted, never dropped
                rec["wall"] = time.perf_counter() - t0
                rec["error"] = f"{type(e).__name__}: {e}"
                traceback.print_exc()
            if traced:
                self.rule_timer.current = None
                if rec["error"] is None:
                    spans.counts.update(
                        tracing.optimizer_counts(plan, report, self.rule_timer.last_model))
                    spans.counts["codegen.predict_payload_bytes"] = (
                        tracing.payload_bytes(report.plan))
                    acc = defaultdict(float)
                    if tracing.predict_nodes(report.plan):
                        rows = wl.model_input(wl.joined(self.setup.frames, self.w.key), q)
                        tracing.replay(report.plan, rows, acc)
                    self.replay_acc[qid] = acc
            self.records.append(rec)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def oracle_check(w, setup: Setup) -> str | None:
    """Cross-check the relational skeleton of every hospital query shape
    (the query without PREDICT) against DuckDB. Returns None when all
    agree, else the first disagreement."""
    for q in w.queries:
        if q.skeleton is None:
            continue
        raven_sql, duckdb_sql = q.skeleton
        try:
            assert_equivalent(setup.raven.run(raven_sql), duckdb_sql, **setup.frames)
        except AssertionError as e:
            return f"{q.name} skeleton differs from DuckDB: {str(e).splitlines()[0]}"
    return None


def end_to_end_metrics(client: Client, setup_s: float, peak_rss: int) -> dict:
    recs = client.records
    walls = [r["wall"] for r in recs]
    ok = [r for r in recs if r["error"] is None]
    q1, p50, q3 = quartiles(walls)
    print(f"query_p50_s {p50:.4f} s  (n={len(walls)}, q1={q1:.4f}, q3={q3:.4f}; "
          f"{', '.join(f'{x:.3f}' for x in walls)})")
    values = {
        "query_p50_s": p50,
        "rows_per_s": sum(r["rows"] for r in ok) / sum(walls),
        "peak_rss_mb": peak_rss / 2**20,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(client: Client, events: dict, trace_path: Path) -> dict:
    """Per-layer metrics as means over the traced queries (so counts of
    whole query cycles repeat exactly), plus the tracing overhead."""
    units = per_layer_units()
    traced = [r for r in client.records if r["traced"] and r["error"] is None]
    untraced = [r for r in client.records if not r["traced"]]
    per_query = []
    for r in traced:
        sp = r["spans"]
        m = defaultdict(float)
        m["analyzer.analyze_sql_s"] = sp.total("analyze")
        m["optimizer.optimize_s"] = sp.total("optimize")
        m["optimizer.self_s"] = sp.self_time("optimize")
        for rule in RULES:
            m[f"optimizer.rule.{rule}_s"] = sp.total(f"rule.{rule}")
        m["codegen.to_dataframe_s"] = sp.total("codegen")
        m["collect.to_pandas_s"] = sp.total("collect")
        m.update(sp.counts)
        m.update(events.get(r["id"], {}))
        m["collect.self_s"] = m["collect.to_pandas_s"] - m["spark.action_s"]
        m.update(client.replay_acc.get(r["id"], {}))
        m["python.overhead_s"] = m["python.run_s"] - (
            m["miniml.featurize_s"] + m["miniml.transform_codes_s"]
            + m["miniml.predict_s"] + m["onnxlite.run_s"]
        ) if m["python.run_s"] else 0.0
        spans_s = sum(sp.total(n) for n in ("analyze", "optimize", "codegen", "collect"))
        m["trace.query_self_s"] = r["wall"] - spans_s
        m["trace.span_coverage"] = spans_s / r["wall"]
        per_query.append(m)

    def mean(name):
        return sum(m.get(name, 0.0) for m in per_query) / max(1, len(per_query))

    values = {name: mean(name) for name in units}
    if per_query:
        traced_p50 = statistics.median(r["wall"] for r in traced)
        values["trace.query_p50_s"] = traced_p50
        values["trace.overhead_ratio"] = traced_p50 / statistics.median(r["wall"] for r in untraced)
        values["trace.span_coverage_min"] = min(m["trace.span_coverage"] for m in per_query)

    # optimizer counts per query shape: exact, so later changes can cite them
    by_shape = {}
    for r, m in zip(traced, per_query):
        by_shape.setdefault(r["shape"], {
            k: m[k] for k in sorted(m) if k.startswith("optimizer.") and not k.endswith("_s")
        })
    for shape, c in by_shape.items():
        print(f"shape {shape}: model nodes {c['optimizer.model_nodes_before']:.0f}->"
              f"{c['optimizer.model_nodes_after']:.0f}, features "
              f"{c['optimizer.features_before']:.0f}->{c['optimizer.features_after']:.0f}, "
              f"joins {c['optimizer.joins']:.0f}, rules fired {c['optimizer.rules_fired']:.0f}")
    queries = [
        dict(r["spans"].as_dict(), wall_s=r["wall"], traced=r["traced"],
             spark=events.get(r["id"], {}), replay=client.replay_acc.get(r["id"], {}))
        for r in client.records
    ]
    with open(trace_path, "w") as f:
        json.dump({"shapes": by_shape, "queries": queries}, f, indent=1)
    print(f"trace written to {trace_path}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def set_up(spark, w, rows: int, seed: int, work: Path, spark_start_s: float):
    """Train the model, set up ``SETUP_REPS`` times, build the reference,
    cross-check with DuckDB and warm up. Returns the last set-up,
    ``setup_s`` and the list of problems found."""
    t0 = time.perf_counter()
    pipeline = wl.train_model(w)
    train_s = time.perf_counter() - t0
    rep_times = []
    setup = None
    for r in range(SETUP_REPS):
        if setup is not None:
            shutil.rmtree(work / f"data-{r - 1}")
        t0 = time.perf_counter()
        setup = Setup(spark, w, rows, seed, work / f"data-{r}", pipeline)
        rep_times.append(time.perf_counter() - t0)
        print("set-up " + ", ".join(f"{k} {v:.3f}" for k, v in setup.parts.items()))
    t0 = time.perf_counter()
    setup.expected = wl.build_reference(w, setup.frames, pipeline)
    oracle_error = oracle_check(w, setup)
    print(f"reference and DuckDB cross-check took {time.perf_counter() - t0:.3f} s")
    t0 = time.perf_counter()
    warm = Client(spark, w, setup)
    for _ in range(-(-WARMUP_QUERIES // len(w.queries))):
        warm.cycle("w", traced=False)
    warmup_s = time.perf_counter() - t0
    setup_s = spark_start_s + train_s + statistics.median(rep_times) + warmup_s
    warm_walls = ", ".join(f"{x['wall']:.3f}" for x in warm.records)
    reps = ", ".join(f"{x:.3f}" for x in rep_times)
    print(f"setup_s {setup_s:.4f} s  (spark start {spark_start_s:.3f}, training {train_s:.3f}, "
          f"set-ups {reps}, warm-up {warmup_s:.3f}: {warm_walls})")
    problems = [f"warm-up {x['shape']}: {x['error']}" for x in warm.records if x["error"]]
    if oracle_error:
        problems.append(oracle_error)
    return setup, setup_s, problems


def run(args, work: Path, out_dir: Path) -> int:
    """One benchmark run; prints the metrics and the result line."""
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    rows = max(10, int(w.rows * args.scale))
    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_spark(work, bool(args.trace))
        setup, setup_s, problems = set_up(spark, w, rows, args.seed, work, time.perf_counter() - t0)
        client = Client(spark, w, setup)
        if args.trace:
            client.enable_tracing()
        # memory is sampled while queries are served, after set-up
        with tracing.TreeRssSampler() as rss:
            start = time.perf_counter()
            n = 0
            while True:
                traced = bool(args.trace) and n % 2 == 1
                client.cycle("t" if traced else "u", traced=traced)
                n += 1
                if time.perf_counter() - start >= args.seconds and (not args.trace or n % 2 == 0):
                    break
        stop_spark(spark)
        spark = None
        problems += [
            f"{r['id']} ({r['shape']}): {r['error']}" for r in client.records if r["error"]
        ]
        for p in problems:
            print(f"FAILED {p}")
        if args.trace:
            events = tracing.read_event_log(str(work / "eventlog"))
            out_dir.mkdir(exist_ok=True)
            metrics = per_layer_metrics(
                client, events, out_dir / f"trace-{w.name}-seed{args.seed}.json"
            )
            attempted = [r for r in client.records if r["traced"]]
        else:
            metrics = end_to_end_metrics(client, setup_s, rss.peak_bytes)
            print("peak_rss_mb split: " + ", ".join(
                f"{k} {v / 2**20:.0f}" for k, v in sorted(rss.peak_parts.items())))
            attempted = client.records
        n_failed = sum(1 for r in attempted if r["error"])
        print(f"queries attempted {len(attempted)}, failed {n_failed}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({
            "correct": not problems,
            "attempted": len(attempted),
            "failed": n_failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        if spark is not None:
            stop_spark(spark)

