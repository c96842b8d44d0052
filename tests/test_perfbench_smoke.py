"""The benchmark's own output checks pass on one short traced kernel-rings run.

``perfbench/run.py`` checks every map it computes (the planted anchor must be
the argmin of each map) and counts failures.  One iteration is enough to see
that those checks, and the tracer's patches, still work against the library.
No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_rings_checks_pass():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "kernel-rings", "--seed", "3", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
