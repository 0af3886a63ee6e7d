"""The benchmark's golden digests, full size and smoke size, checked in Tier-1.

Each workload of `perfbench/run.py` runs once at each size through the
benchmark's own unit, and its output digest must equal the one stored in
`perfbench/golden.json`.  The benchmark is imported, never written to: its
CLI outputs go to the test's temporary directory and no exact counts are
stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())

# run.py imports its probe module by name; no bytecode is cached under perfbench/
sys.path.insert(0, str(BENCH_DIR))
saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import run
finally:
    sys.path.remove(str(BENCH_DIR))
    sys.dont_write_bytecode = saved


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("name", sorted(run._workloads(False)))
def test_workload_output_matches_its_golden_digest(tmp_path, name, smoke):
    digest = run._run_unit(run._import_package(), run._workloads(smoke)[name], tmp_path / "out")
    assert digest == GOLDEN[f"smoke-{name}" if smoke else name]
