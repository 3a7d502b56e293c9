"""Every benchmark module and job script imports cleanly. They run only
on demand (``pytest benchmarks/``, ``python jobs/<name>.py``), so a
helper they import that was renamed or deleted would otherwise go
unnoticed. Importing a job does not run it: each one guards its work
with ``if __name__ == "__main__"``."""
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = sorted(p.stem for p in (ROOT / "benchmarks").glob("bench_*.py"))
JOBS = sorted(p for p in (ROOT / "jobs").glob("*.py"))


def test_modules_found():
    assert len(BENCHMARKS) >= 8 and len(JOBS) >= 9


@pytest.mark.parametrize("name", BENCHMARKS)
def test_benchmark_imports(name):
    importlib.import_module(f"benchmarks.{name}")


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.name)
def test_job_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(path.parent))  # jobs import ``_session``
    spec = importlib.util.spec_from_file_location(f"jobs_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
