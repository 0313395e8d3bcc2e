"""Self-test of the benchmark at reduced sizes: python3 -m pytest perfbench/test_perfbench.py

Checks that every span a workload names records at least one call, that the
work counts repeat exactly between two traced runs at one seed, that traced
and untraced outputs are byte-identical, and that the drift counter sees the
Newton path only where it runs.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

# Small enough for a few seconds per workload; every claim still applies.
REDUCED = {
    "mc-moments": {"n-paths": "400", "n-steps": "256"},
    "bound-audit": {"n-paths": "12", "n-steps": "256"},
    "derivs": {"n-paths": "3", "n-steps": "512"},
}


@pytest.fixture(scope="module", autouse=True)
def work_dir():
    bench.WORK.mkdir(exist_ok=True)
    yield
    shutil.rmtree(bench.WORK, ignore_errors=True)


def test_every_workload_has_a_reduced_size():
    assert set(REDUCED) == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_runs_record_spans_and_repeat_counts(name):
    args = bench.cli_args(name, 12345, REDUCED[name])
    checked: set[str] = set()
    deadline = time.monotonic() + 120
    untraced = bench.run_child(args, False, checked, deadline)
    traced = [bench.run_child(args, True, checked, deadline) for _ in range(2)]
    for run in [untraced, *traced]:
        assert run.ok, run.error
    assert untraced.digest == traced[0].digest == traced[1].digest
    metrics, problems = bench.per_layer_metrics(traced, [untraced], bench.WORKLOADS[name])
    assert problems == []
    newton = metrics["solver.drift_evals_per_step"]
    assert newton > 0 if name == "bound-audit" else newton == 0


def test_run_that_exits_nonzero_is_a_failure():
    # gamma 2.1 leaves no admissible pairing order for beta 0.65: exit code 2
    args = bench.cli_args("bound-audit", 12345, {"n-paths": "2", "gamma": "2.1"})
    run = bench.run_child(args, False, set(), time.monotonic() + 60)
    assert run.error.startswith("exit 2")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(bench.HERE), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derivs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
