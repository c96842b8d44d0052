"""``tools/compare_outputs.py`` runs its battery, I/O round trips and CLI runs.

It reports no mismatch when both trees are this checkout's.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_tree_has_no_mismatch():
    src = str(ROOT / "src")
    cmd = [sys.executable, "tools/compare_outputs.py", src, src, "--cases", "1", "--heights", "65"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = proc.stdout.splitlines()[0]
    assert counts.endswith(", 0 mismatches")
    # every scale ran every probe and image kind through all 14 calls
    assert counts.startswith(f"{5 * 6 * 5 * 14} results")
    # and each image, at least, through write_image and the three reads
    io = int(counts.split(" I/O results")[0].rsplit(" ", 1)[1])
    assert io >= 5 * 6 * 5 * 4
    # and every probe kind, at every scale, through write_probe and read_probe
    probe_io = int(counts.split(" probe)")[0].rsplit("(", 1)[1])
    assert probe_io >= 5 * 6 * 2
    # and the CLI ran its commands on every probe kind with three image kinds, at every scale
    runs = int(counts.split(" CLI results")[0].rsplit(" ", 1)[1])
    assert runs >= 5 * 6 * 3 * 10


def test_needs_both_trees():
    proc = subprocess.run([sys.executable, "tools/compare_outputs.py", "src"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "OLD_SRC and NEW_SRC are required" in proc.stderr
