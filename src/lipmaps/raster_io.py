"""File formats: PGM grey rasters, ``fmap`` value maps, and ``probe`` files.

Small formats, all defined bit-exact:

* PGM ``P2``/``P5`` with ``maxval <= 255`` for 8-bit grey input; pixel
  values become grey reals on the ``m = 256`` scale.
* ``fmap``: binary container for real-valued maps (and transformed
  images).  Header line ``fmap <width> <height> <m> f8le``, then exactly
  ``8 * width * height`` bytes: the cells as little-endian IEEE float64 in
  row-major order, so every bit round-trips, signs of zero included.  A
  map written by :func:`write_map` appends its full-overlap mask to the
  header as the half-open rectangle ``r0 r1 c0 c1`` (``0 0 0 0`` when the
  mask is empty); :func:`write_image` writes no rectangle.  The body is
  written with one ``tofile`` call and read with one ``readinto`` once its
  byte count matches the header, so a header the file does not back
  allocates nothing.  Any other first line is a ``ParseError`` naming the
  expected header; a NaN cell is one naming the first NaN in row-major
  order.
* ``probe``: header ``probe <width> <height> <anchor_x> <anchor_y> <m>``,
  then one line per row whose tokens are either a value (cell inside the
  probe domain) or ``_`` (outside).

A map read from a file without a rectangle (an image) gets an all-cells
mask, or the probe's full-overlap mask when a probe is given.
The ``pgm8`` writing mode is a lossy min-max normalised view for eyeballing
only.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import DomainError, ParseError
from .morphology import full_overlap_mask
from .rasters import DistanceMap, GreyImage, Probe

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

_ENCODING = b"f8le"  # fmap body: little-endian IEEE float64, row-major
_HEADER = "fmap <w> <h> <m> f8le [r0 r1 c0 c1]"
#: An fmap header line must end within this many bytes; one is
#: under 100 bytes long, and the bound keeps a file without a newline
#: from being read whole in search of one.
_HEADER_MAX = 4096


def _f17(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------


#: One PGM token after any run of whitespace and ``#`` comments; group 1 is
#: the token, empty only at the end of the data.
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n\f\v]|#[^\n]*)*([^ \t\r\n\f\v#]*)")


def _pgm_token(data: bytes, pos: int, what: str) -> tuple[bytes, int, int]:
    """``(token, its offset, position after it)`` for the next token at or after ``pos``."""
    match = _PGM_TOKEN.match(data, pos)
    if not match.group(1):
        raise ParseError(f"unexpected end of file while reading {what}", match.start(1))
    return match.group(1), match.start(1), match.end(1)


def _pgm_unsigned(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, at, pos = _pgm_token(data, pos, what)
    if not tok.isdigit():
        raise ParseError(f"expected unsigned integer for {what}, got {tok!r}", at)
    return int(tok), pos


def read_pgm(path) -> GreyImage:
    """Read a ``P2`` (ASCII) or ``P5`` (binary) PGM file with ``maxval <= 255``.

    Pixel values map unchanged onto the real grey scale with ``m = 256``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic, at, pos = _pgm_token(data, 0, "magic number")
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"not a PGM file: magic {magic!r}", at)
    width, pos = _pgm_unsigned(data, pos, "width")
    height, pos = _pgm_unsigned(data, pos, "height")
    if width <= 0 or height <= 0:
        raise ParseError(f"invalid dimensions {width}x{height}", pos)
    maxval_at = pos
    maxval, pos = _pgm_unsigned(data, pos, "maxval")
    if not 0 < maxval <= 255:
        raise ParseError(f"maxval {maxval} outside ]0, 255]", maxval_at)

    n = width * height
    if magic == b"P5":
        # exactly one separator byte between maxval and the raster
        if pos >= len(data) or data[pos : pos + 1] not in _WS:
            raise ParseError("missing separator after maxval", pos)
        start = pos + 1
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
            tok, at, pos = _pgm_token(data, pos, f"pixel {i}")
            if not tok.isdigit():
                raise ParseError(f"expected pixel value, got {tok!r}", at)
            v = int(tok)
            if v > maxval:
                raise ParseError(f"pixel value {v} exceeds maxval {maxval}", at)
            values[i] = v
        at = _PGM_TOKEN.match(data, pos).start(1)
        if at < len(data):
            raise ParseError("trailing data after raster", at)
    return GreyImage._adopt(values.reshape(height, width), 256.0)


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
    """``(values, m, rect)``; ``rect`` is the stored full-overlap rectangle or ``None``."""
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_MAX)
        head = line.split()
        text = line.decode("latin-1").rstrip()
        if head[:1] == [b"fmap"] and not line.endswith(b"\n"):
            raise ParseError(f"map header has no newline within its first {_HEADER_MAX} bytes", 0)
        if head[:1] != [b"fmap"] or len(head) not in (5, 9):
            raise ParseError(f"bad map header {text!r}, expected {_HEADER!r}", 0)
        if head[4] != _ENCODING:
            raise ParseError(f"unknown fmap body encoding {head[4].decode('latin-1')!r}", 0)
        fields = head[1:3] + head[5:]
        if not all(tok.isdigit() for tok in fields):
            raise ParseError(f"bad integer field in map header {text!r}", 0)
        width, height, *rect = map(int, fields)
        m = _parse_float(head[3].decode("latin-1"), "in map header")
        if width <= 0 or height <= 0:
            raise ParseError(f"invalid dimensions {width}x{height}", 0)
        if rect:
            r0, r1, c0, c1 = rect
            if not (r0 <= r1 <= height and c0 <= c1 <= width):
                raise ParseError(
                    f"full-overlap rectangle {r0} {r1} {c0} {c1} does not fit a {width}x{height} map", 0
                )
        expected = 8 * width * height
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:  # checked before anything is allocated
            raise ParseError(f"binary body: expected {expected} bytes, found {found}", len(line))
        values = np.empty((height, width), dtype="<f8")
        got = fh.readinto(values)
    if got != expected:  # the file shrank after the size check
        raise ParseError(f"binary body: expected {expected} bytes, found {got}", len(line))
    nan = np.isnan(values)
    if nan.any():
        r, c = divmod(int(np.argmax(nan)), width)
        raise ParseError(f"NaN not allowed at row {r}, column {c}")
    return values, m, tuple(rect) or None


def _write_fmap(values: np.ndarray, m: float, path, rect=None):
    h, w = values.shape
    head = f"fmap {w} {h} {_f17(m)} {_ENCODING.decode()}"
    if rect is not None:
        head += " %d %d %d %d" % rect
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii") + b"\n")
        np.ascontiguousarray(values, dtype="<f8").tofile(fh)


def _mask_rectangle(mask: np.ndarray) -> tuple[int, int, int, int]:
    """The half-open rectangle ``(r0, r1, c0, c1)`` that ``mask`` is; all 0 when empty."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return 0, 0, 0, 0
    r0, r1, c0, c1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    if not mask[r0:r1, c0:c1].all():
        raise ValueError("full_mask is not one rectangle, the only shape an fmap header stores")
    return r0, r1, c0, c1


def read_map(path, probe: Probe | None = None) -> DistanceMap:
    """Read a map file, with the full-overlap mask its header stores.

    A file that stores no rectangle (an image from :func:`write_image`)
    gets ``probe``'s full-overlap mask, or an all-cells mask without a
    probe.  A stored rectangle that differs from ``probe``'s raises
    :class:`DomainError` naming both.  A first line other than an ``fmap``
    header, such as that of a file in the earlier text format, raises
    :class:`ParseError` naming the expected header.
    """
    values, m, rect = _read_fmap(path)
    mask = None
    if rect is not None:
        mask = np.zeros(values.shape, dtype=bool)
        mask[rect[0] : rect[1], rect[2] : rect[3]] = True
    if probe is not None:
        expected = full_overlap_mask(values.shape, probe)
        if mask is None:
            mask = expected
        elif not np.array_equal(mask, expected):
            raise DomainError(
                "map stores full-overlap rectangle r0 r1 c0 c1 = %d %d %d %d, " % rect
                + "but the probe's is %d %d %d %d" % _mask_rectangle(expected)
            )
    return DistanceMap._adopt(values, mask, m)


def write_map(dist_map, path, mode: str = "exact"):
    """Write a map, either bit-exact ``fmap`` (``exact``) or an 8-bit view (``pgm8``).

    ``exact`` stores the full-overlap mask as a rectangle in the header and
    raises :class:`ValueError` if the mask is not one.  ``pgm8`` min-max
    normalises the finite cells to 0..255 (infinite cells clamp to the
    ends) and is lossy; use it for viewing only.
    """
    if mode == "exact":
        _write_fmap(dist_map.values, dist_map.m, path, _mask_rectangle(dist_map.full_mask))
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
    """Write an image in the exact ``fmap`` container, with no mask rectangle."""
    _write_fmap(image.values, image.m, path)


def read_image(path) -> GreyImage:
    """Read a grey image from PGM or from the exact ``fmap`` container."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] in (b"P2", b"P5"):
        return read_pgm(path)
    if magic == b"fmap":
        values, m, _ = _read_fmap(path)
        return GreyImage._adopt(values, m)
    raise ParseError(f"unrecognised image format (magic {magic!r})", 0)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def read_probe(path) -> Probe:
    """Read a probe file.

    Grid tokens are values (inside the domain) or ``_`` (outside).  The
    value regime is checked by the operation the probe is used in.
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
    return Probe._adopt(values, mask, (ay, ax), m)


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
