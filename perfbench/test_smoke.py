"""Smoke tests for the benchmark: the three workloads at small n, in seconds.

Run from the repository root with `python3 -m pytest perfbench/test_smoke.py`.
Each test runs the benchmark in its own temporary directory, so the stored
exact counts and the CLI outputs never land in the repository.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str, script: Path = BENCH_DIR / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), "--smoke", "--seconds", "0.5", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(tmp_path, workload, trace):
    proc = _bench(tmp_path, "--workload", workload, "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    lines = proc.stdout.splitlines()
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines), name
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"python", "numpy", "cpu_count", "numba", "commit", "workload_seed",
            "pinned_pc", "exact_counts"} <= set(env)


def test_wrong_golden_digest_fails(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
    golden = json.loads((copy / "golden.json").read_text())
    golden["smoke-solve12"] = "0" * 64
    (copy / "golden.json").write_text(json.dumps(golden))
    (tmp_path / "src").symlink_to(BENCH_DIR.parent / "src")
    proc = _bench(tmp_path, "--workload", "solve12", "--seed", "1", script=copy / "run.py")
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "differs from golden" in proc.stderr


def test_exact_counts_must_repeat(tmp_path):
    first = _bench(tmp_path, "--workload", "sweep14_triangle", "--seed", "1")
    assert first.returncode == 0, first.stderr
    state = tmp_path / ".perfbench_state" / "smoke-sweep14_triangle.json"
    counts = json.loads(state.read_text())
    assert counts["stats.census.calls"] > 0 and counts["stats.census.pair_ops"] > 0
    counts["stats.census.pair_ops"] += 1
    state.write_text(json.dumps(counts))
    second = _bench(tmp_path, "--workload", "sweep14_triangle", "--seed", "2")
    assert second.returncode == 1
    assert _result(second)["correct"] is False
    assert "exact counts differ" in second.stderr


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve12",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_labeler_matches_program():
    sys.path.insert(0, str(BENCH_DIR))
    import run

    pkg = run._import_package()
    dim = pkg.cube.CubeDim(9)
    for p in (0.0, 0.05, 0.12, 0.3, 1.0):
        graph = pkg.gen.sample_subgraph(dim, p, pkg.gen.SeedSpec(11, 0))
        assert list(run.reference_sizes(graph.planes)) == \
            list(pkg.clusters.label_components(graph).sizes_desc)
