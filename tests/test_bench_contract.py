"""The benchmark worker's result, in the shape BENCHMARK.json declares.

Each test runs ``perfbench/worker.py`` once, from the repository root with
the checkout's ``src`` on the import path and BLAS pinned to one thread, as
``perfbench/run.py`` starts it. The last line of its output must be a
strict-JSON result of a correct run whose metric names are exactly the ones
BENCHMARK.json lists. Every wrapped layer reports its calls and self time,
0 where it is never entered, so a layer that no run enters passes. What
changes the names is an absent target, a function that the tracer wraps
by name and that was renamed or deleted, and a ``matexp`` that no run
calls, which drops ``linalg.matexp.work_n3``. Either would otherwise show
only when the benchmark itself is run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINNED_BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _reject_constant(name):
    raise ValueError(f"result holds the non-finite number {name}")


def run_worker(workload, trace, out_dir) -> set:
    """Metric names of one seed-1 run of ``workload`` with no timed phase
    beyond the worker's minimum rounds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(PINNED_BLAS, "1"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--out-dir", str(out_dir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert not [line for line in proc.stderr.splitlines() if line.startswith("absent:")]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    return set(result["metrics"])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_layer(workload, tmp_path):
    assert run_worker(workload, 1, tmp_path) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    names = run_worker("approx-wide", 0, tmp_path)
    assert names == {m["name"] for m in BENCHMARK["end_to_end"]}
