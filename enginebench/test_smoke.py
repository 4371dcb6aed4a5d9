"""Each workload runs end to end through the benchmark's command on a tiny
input, prints its result line, and leaves no Ray process behind.

    ENGINEBENCH_SMOKE=1 python3 -m pytest enginebench/test_smoke.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from run import E2E_UNITS, PER_LAYER_UNITS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _ray_processes() -> list[str]:
    mark = str(ROOT / ".enginebench" / "ray" / "session_")
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if mark in cmd:
            found.append(cmd[:120])
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_command_runs_checks_and_exits(workload, trace):
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--rows", "600",
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = PER_LAYER_UNITS if trace else E2E_UNITS
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert _ray_processes() == []


def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "enginebench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_fails_without_the_engine(tmp_path):
    """In a directory holding only the benchmark, the command exits non-zero
    and prints no result."""
    (tmp_path / "enginebench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "enginebench" / f.name).write_bytes(f.read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "enginebench/run.py", "--workload", "flagship_tumbling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""
