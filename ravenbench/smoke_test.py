"""Smoke test of the benchmark itself, at tiny table sizes.

    python3 ravenbench/smoke_test.py      # or: python3 -m pytest ravenbench/smoke_test.py

For every workload it runs a few queries untraced and traced and checks
the output contract: every metric named in BENCHMARK.json is printed
with its unit, no query fails the reference check, and the traced spans
cover at least 95% of each query's wall time. It also checks that the
benchmark exits non-zero without a result when the program's sources are
missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Table rows multiplier per workload: a few thousand rows each.
SCALES = {"hospital-interactive": 0.2, "flights-nn-batch": 0.02, "hospital-inline-1m": 0.005}
# BENCHMARK.json's workloads plus the one that runs only by name
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["hospital-inline-1m"]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", str(SCALES.get(workload, 1.0))],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(lines: list[str], expected: list[dict]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in expected)
    for m in expected:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"  {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), f"{m['name']} not printed with its unit"
    return {k: v["value"] for k, v in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced(workload):
    rc, lines = run_bench(workload, 0)
    assert rc == 0, lines
    values = check_metrics(lines, SPEC["end_to_end"])
    assert all(v > 0 for v in values.values()), values


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    rc, lines = run_bench(workload, 1)
    assert rc == 0, lines
    v = check_metrics(lines, SPEC["per_layer"])
    assert v["trace.span_coverage_min"] >= 0.95
    replayed = {k: v[k] for k in ("miniml.featurize_s", "miniml.transform_codes_s",
                                  "miniml.predict_s", "onnxlite.run_s")}
    if workload == "hospital-inline-1m":
        assert v["arrow.bytes_to_python"] == 0
        assert v["miniml.rows"] == 0 and not any(replayed.values())
    if workload == "flights-nn-batch":
        assert max(replayed, key=replayed.get) == "onnxlite.run_s"
    if workload.startswith("hospital"):
        # Q1/Q2/Q3 cycle: 117->53, 117->63 and 117 tree nodes; 2, 1, 2 joins
        assert v["optimizer.model_nodes_before"] == 117
        assert v["optimizer.model_nodes_after"] == pytest.approx((53 + 63 + 117) / 3)
        assert v["optimizer.joins"] == pytest.approx(5 / 3)


def test_fails_without_program_sources():
    (ROOT / ".ravenbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".ravenbench") as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, Path(d) / p, ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run_bench(SPEC["workloads"][0]["name"], 0, cwd=Path(d))
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
