"""Raven-on-Spark inference-query benchmark.

One closed-loop client drives the public ``repro.raven.Raven`` facade
(analyze_sql -> optimize -> execute -> collect to pandas) on Spark
``local[4]`` over Parquet tables, checks every result against a
reference computed without Spark, and prints one JSON line of metrics.

    python3 ravenbench/run.py --workload hospital-interactive --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs with
Spark's event log on, rule and kernel wrappers and a driver-side scoring
replay, and reports the per-layer metrics. See NOTES.md.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".ravenbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the workload's table rows (smoke test only)")
    return p.parse_args(argv)


def configure_environment(work: Path) -> None:
    """Point Spark, the JVM and Python workers at the checkout: the
    program's sources and a scratch directory under ``.ravenbench``."""
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(BENCH_DIR)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    # Spark runs each Python worker with one BLAS thread; the driver-side
    # replay and reference use the same, so replayed kernel times compare.
    os.environ["OMP_NUM_THREADS"] = "1"
    # every JVM, Spark's launcher included, keeps its files in the
    # checkout (without -XX:-UsePerfData it writes /tmp/hsperfdata_*)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # A 1 GB driver heap fills during warm-up, so the JVM's resident size
    # is steady while queries are timed; with 2 GB it followed G1's lazy
    # heap growth and varied from 0.9 to 1.5 GB between identical runs.
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[4] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "raven.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = OUT_DIR / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    configure_environment(work)
    try:
        import harness  # numpy, pyspark and repro load after the environment is set

        return harness.run(args, work, OUT_DIR)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
