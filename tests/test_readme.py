"""The README's Python examples run unchanged, so a renamed public name cannot leave them stale."""

import re
import textwrap
from pathlib import Path

import numpy as np
from conftest import full_probe

from lipmaps import detect_minima, full_overlap_rect, read_image, write_probe

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(containing):
    """The one ```python block of the README whose code contains ``containing``, dedented."""
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```$", README.read_text(), re.MULTILINE | re.DOTALL)
    found = [textwrap.dedent(code) for _, code in blocks if containing in code]
    assert len(found) == 1, f"{len(found)} README python blocks contain {containing!r}"
    return found[0]


def test_quick_start(capsys):
    ns = {}
    exec(python_block("detect_minima(dmap"), ns)
    hits = detect_minima(ns["dmap"], 0.256)
    assert capsys.readouterr().out == f"{hits!r}\n"
    assert (hits[0].row, hits[0].col) == (48, 20)  # the planted anchor


def test_old_text_fmap_conversion(tmp_path, monkeypatch):
    values = np.array([[10.5, -0.0, 255.0], [1e-300, 7.0, 128.25]])
    lines = [" ".join(format(v, ".17g") for v in row) for row in values]
    (tmp_path / "old.fmap").write_text("fmap 3 2 256\n" + "\n".join(lines) + "\n", encoding="ascii")
    probe = full_probe([[100.0, 100.0, 100.0]])  # anchored at its middle cell
    write_probe(probe, tmp_path / "ring.probe")
    monkeypatch.chdir(tmp_path)

    exec(python_block('"old.fmap"'), {})

    for name in ("image.fmap", "map.fmap"):
        assert read_image(tmp_path / name).values.tobytes() == values.tobytes()
    head = (tmp_path / "map.fmap").read_bytes().split(b"\n", 1)[0].split()
    rect = tuple(int(tok) for tok in head[5:])
    assert rect == full_overlap_rect(values.shape, probe) == (0, 2, 1, 2)
