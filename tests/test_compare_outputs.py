"""``tools/compare_outputs.py`` runs its battery, I/O round trips and CLI runs.

It reports no mismatch when both trees are this checkout's.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_tree_has_no_mismatch():
    src = str(ROOT / "src")
    cmd = [sys.executable, "tools/compare_outputs.py", src, src, "--cases", "1", "--heights", "65", "--wide", "34x1100"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = proc.stdout.splitlines()[0]
    assert counts.endswith(", 0 mismatches")
    # every scale ran every probe kind (7) and image kind (5) through all 14 calls
    assert counts.startswith(f"{5 * 7 * 5 * 14} results")
    # and each image, at least, through write_image and the three reads
    io = int(counts.split(" I/O results")[0].rsplit(" ", 1)[1])
    assert io >= 5 * 7 * 5 * 4
    # and every probe kind, at every scale, through write_probe and read_probe
    probe_io = int(counts.split(" probe)")[0].rsplit("(", 1)[1])
    assert probe_io >= 5 * 7 * 2
    # and the CLI ran its commands on every probe kind with three image kinds, at every scale
    runs = int(counts.split(" CLI results")[0].rsplit(" ", 1)[1])
    assert runs >= 5 * 7 * 3 * 10
    # and every check met a 300x300 raster whose only bad cell is its last: each map
    # and both fmap readers at every scale, and the P5 file read two ways, all raising;
    # at every scale, lip_add (bad f or g, beside an array or a scalar) and FmMap with a
    # last cell NaN, -inf or above m, and two cases of each with a second fault, all
    # raising but the FmMap that holds -inf
    checks = 5 * (8 + 2 + 3 * (4 + 1) + 2 + 2) + 2
    assert f"{checks} check results ({checks - 5} exceptions)" in counts
    # and lip_add crossed its block seams at every scale: 4 sizes, 5 layouts, 4 operand
    # pairs, with overflow raising and ignored
    assert f", {5 * 4 * 5 * 4 * 2} lip results (" in counts
    # and every probe and image kind, at every scale, met a table wider than 576 columns
    # (two strips of 17 rows) in all 8 maps, spread of both sides, dilate and erode
    assert f", {5 * 7 * 5 * 11} wide results (" in counts


def test_needs_both_trees():
    proc = subprocess.run([sys.executable, "tools/compare_outputs.py", "src"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "OLD_SRC and NEW_SRC are required" in proc.stderr
