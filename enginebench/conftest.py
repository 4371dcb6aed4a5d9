"""Test set-up for the benchmark's own tests.

The smoke test starts Ray sessions and takes minutes, so it is collected
only when asked for:

    ENGINEBENCH_SMOKE=1 python3 -m pytest enginebench/
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
# the benchmark's modules (run, check, workloads, ...) and the engine
sys.path[:0] = [str(BENCH), str(BENCH.parent)]

collect_ignore = [] if os.environ.get("ENGINEBENCH_SMOKE") == "1" else ["test_smoke.py"]
