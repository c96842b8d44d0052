"""File formats: PGM grey rasters, ``fmap`` value maps, and ``probe`` files.

Three small formats, all defined bit-exact:

* PGM ``P2``/``P5`` with ``maxval <= 255`` for 8-bit grey input; pixel
  values become grey reals on the ``m = 256`` scale.
* ``fmap``: text container for real-valued maps (and transformed images).
  Header ``fmap <width> <height> <m>``, then one line per row with cells
  printed to 17 significant digits (``inf``/``-inf`` for infinities), one
  space between cells.  17 digits round-trip float64 exactly.  The body is
  parsed and written in bulk, one row at a time; a per-token scan of a row
  runs only to locate an error in it, so a ``ParseError`` names the first
  bad row or cell in row-major order.
* ``probe``: header ``probe <width> <height> <anchor_x> <anchor_y> <m>``,
  then one line per row whose tokens are either a value (cell inside the
  probe domain) or ``_`` (outside).

The ``fmap`` format does not carry the full-overlap mask, so maps read
back from disk get an all-cells mask.  The ``pgm8`` writing mode is a
lossy min-max normalised view for eyeballing only.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .rasters import DistanceMap, GreyImage, Probe, require_regime

__all__ = [
    "read_pgm",
    "read_image",
    "write_image",
    "read_map",
    "write_map",
    "read_probe",
    "write_probe",
]

_WS = b" \t\r\n\f\v"


def _f17(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------


class _ByteScanner:
    """Token scanner over header bytes, tracking the current byte offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_separators(self):
        data, n = self.data, len(self.data)
        while self.pos < n:
            c = self.data[self.pos : self.pos + 1]
            if c in (b"#",):
                while self.pos < n and data[self.pos : self.pos + 1] != b"\n":
                    self.pos += 1
            elif c in _WS:
                self.pos += 1
            else:
                return

    def token(self, what: str) -> tuple[bytes, int]:
        self.skip_separators()
        if self.pos >= len(self.data):
            raise ParseError(f"unexpected end of file while reading {what}", self.pos)
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in _WS:
            if self.data[self.pos : self.pos + 1] == b"#":
                break
            self.pos += 1
        return self.data[start : self.pos], start

    def unsigned(self, what: str) -> int:
        tok, start = self.token(what)
        if not tok.isdigit():
            raise ParseError(f"expected unsigned integer for {what}, got {tok!r}", start)
        return int(tok)


def read_pgm(path) -> GreyImage:
    """Read a ``P2`` (ASCII) or ``P5`` (binary) PGM file with ``maxval <= 255``.

    Pixel values map unchanged onto the real grey scale with ``m = 256``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    sc = _ByteScanner(data)
    magic, at = sc.token("magic number")
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"not a PGM file: magic {magic!r}", at)
    width = sc.unsigned("width")
    height = sc.unsigned("height")
    if width <= 0 or height <= 0:
        raise ParseError(f"invalid dimensions {width}x{height}", sc.pos)
    maxval_at = sc.pos
    maxval = sc.unsigned("maxval")
    if not 0 < maxval <= 255:
        raise ParseError(f"maxval {maxval} outside ]0, 255]", maxval_at)

    n = width * height
    if magic == b"P5":
        # exactly one separator byte between maxval and the raster
        if sc.pos >= len(data) or data[sc.pos : sc.pos + 1] not in _WS:
            raise ParseError("missing separator after maxval", sc.pos)
        start = sc.pos + 1
        raster = data[start : start + n]
        if len(raster) < n:
            raise ParseError(
                f"truncated raster: expected {n} bytes, got {len(raster)}", len(data)
            )
        values = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
        bad = values > maxval
        if bad.any():
            i = int(np.argmax(bad))
            raise ParseError(f"pixel value {int(values[i])} exceeds maxval {maxval}", start + i)
    else:
        values = np.empty(n, dtype=np.float64)
        for i in range(n):
            tok, at = sc.token(f"pixel {i}")
            if not tok.isdigit():
                raise ParseError(f"expected pixel value, got {tok!r}", at)
            v = int(tok)
            if v > maxval:
                raise ParseError(f"pixel value {v} exceeds maxval {maxval}", at)
            values[i] = v
        sc.skip_separators()
        if sc.pos < len(data):
            raise ParseError("trailing data after raster", sc.pos)
    return GreyImage(values.reshape(height, width), 256.0)


# ---------------------------------------------------------------------------
# fmap
# ---------------------------------------------------------------------------


def _parse_float(tok: str, where: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"bad value token {tok!r} {where}") from None
    if np.isnan(v):
        raise ParseError(f"NaN not allowed {where}")
    return v


def _read_fmap(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty map file", 0)
    head = lines[0].split()
    if len(head) != 4 or head[0] != "fmap":
        raise ParseError(f"bad map header {lines[0]!r}", 0)
    try:
        width, height = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(f"bad dimensions in map header {lines[0]!r}", 0) from None
    m = _parse_float(head[3], "in map header")
    if width <= 0 or height <= 0:
        raise ParseError(f"invalid dimensions {width}x{height}", 0)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != height:
        raise ParseError(f"expected {height} row lines, found {len(body)}")
    values = np.empty((height, width), dtype=np.float64)
    for r, line in enumerate(body):
        toks = line.split()
        if len(toks) != width:
            raise ParseError(f"row {r}: expected {width} cells, found {len(toks)}")
        try:
            values[r] = list(map(float, toks))
            if not np.isnan(values[r]).any():
                continue
        except ValueError:
            pass
        for c, tok in enumerate(toks):  # locate the bad cell
            values[r, c] = _parse_float(tok, f"at row {r}, column {c}")
    return values, m


def _write_fmap(values: np.ndarray, m: float, path):
    h, w = values.shape
    # "%.17g" % x gives the bytes of format(x, ".17g") for every float64
    row_format = " ".join(["%.17g"] * w) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"fmap {w} {h} {_f17(m)}\n")
        for row in values:
            fh.write(row_format % tuple(row.tolist()))


def read_map(path) -> DistanceMap:
    """Read an exact-mode map file; the full-overlap mask is not stored."""
    values, m = _read_fmap(path)
    return DistanceMap(values, None, m)


def write_map(dist_map, path, mode: str = "exact"):
    """Write a map, either bit-exact text (``exact``) or an 8-bit view (``pgm8``).

    ``pgm8`` min-max normalises the finite cells to 0..255 (infinite cells
    clamp to the ends) and is lossy; use it for viewing only.
    """
    if mode == "exact":
        _write_fmap(dist_map.values, dist_map.m, path)
    elif mode == "pgm8":
        v = dist_map.values
        finite = np.isfinite(v)
        out = np.zeros(v.shape, dtype=np.uint8)
        if finite.any():
            lo, hi = v[finite].min(), v[finite].max()
            if hi > lo:
                out[finite] = np.round((v[finite] - lo) / (hi - lo) * 255).astype(np.uint8)
        out[v == np.inf] = 255
        h, w = out.shape
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"P2\n{w} {h}\n255\n")
            for row in out:
                fh.write(" ".join(map(str, row.tolist())))
                fh.write("\n")
    else:
        raise ValueError(f"unknown mode {mode!r}")


def write_image(image: GreyImage, path):
    """Write an image in the exact ``fmap`` container (lighting output etc.)."""
    _write_fmap(image.values, image.m, path)


def read_image(path) -> GreyImage:
    """Read a grey image from PGM or from the exact ``fmap`` container."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] in (b"P2", b"P5"):
        return read_pgm(path)
    if magic == b"fmap":
        values, m = _read_fmap(path)
        return GreyImage(values, m)
    raise ParseError(f"unrecognised image format (magic {magic!r})", 0)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def read_probe(path, strict: bool = False) -> Probe:
    """Read a probe file; ``strict`` validates values for multiplicative use.

    Grid tokens are values (inside the domain) or ``_`` (outside).  With
    ``strict=True`` every domain value must lie in ``]0, m[``.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty probe file", 0)
    head = lines[0].split()
    if len(head) != 6 or head[0] != "probe":
        raise ParseError(f"bad probe header {lines[0]!r}", 0)
    try:
        width, height, ax, ay = (int(x) for x in head[1:5])
    except ValueError:
        raise ParseError(f"bad integer field in probe header {lines[0]!r}", 0) from None
    m = _parse_float(head[5], "in probe header")
    if width <= 0 or height <= 0:
        raise ParseError(f"invalid dimensions {width}x{height}", 0)
    if not (0 <= ax < width and 0 <= ay < height):
        raise ParseError(f"anchor ({ax}, {ay}) outside {width}x{height} grid")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != height:
        raise ParseError(f"expected {height} grid lines, found {len(body)}")
    values = np.zeros((height, width), dtype=np.float64)
    mask = np.zeros((height, width), dtype=bool)
    for r, line in enumerate(body):
        toks = line.split()
        if len(toks) != width:
            raise ParseError(f"row {r}: expected {width} tokens, found {len(toks)}")
        for c, tok in enumerate(toks):
            if tok == "_":
                continue
            values[r, c] = _parse_float(tok, f"at row {r}, column {c}")
            mask[r, c] = True
    if not mask.any():
        raise ParseError("probe domain is empty (all tokens are '_')")
    probe = Probe(values, mask, (ay, ax), m)
    if strict:
        require_regime(probe.values, probe.m, "I*", what="probe", mask=probe.mask)
    return probe


def write_probe(probe: Probe, path):
    """Write a probe in the text format read by :func:`read_probe`."""
    h, w = probe.shape
    ar, ac = probe.anchor
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"probe {w} {h} {ac} {ar} {_f17(probe.m)}\n")
        for r in range(h):
            toks = [
                _f17(probe.values[r, c]) if probe.mask[r, c] else "_" for c in range(w)
            ]
            fh.write(" ".join(toks))
            fh.write("\n")
