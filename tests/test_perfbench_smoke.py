"""The benchmark's own output checks pass on one short traced run per workload.

``perfbench/run.py`` checks every output it computes and counts failures: on
``pipeline-1024`` every CLI step (``lighting``, ``map-add``, ``detect``)
must exit 0 and the first ``detect`` hit must be the planted anchor; on
``kernel-rings`` the planted anchor must be the argmin of each map, and on
``batch-random`` both link paths must stay within 1e-9 of the direct maps
on 64 random 5x5 probes, which have no two equal neighbours, so every probe
value sits on a single cell.  One iteration is enough to see that those
checks, and the tracer's patches, still work against the library.  No
timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pipeline-1024", "kernel-rings", "batch-random"])
def test_benchmark_checks_pass(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
