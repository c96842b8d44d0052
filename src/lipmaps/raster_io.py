"""File formats: PGM grey rasters, ``fmap`` value maps, and ``probe`` files.

Small formats, all defined bit-exact:

* PGM ``P2``/``P5`` with ``maxval <= 255`` for 8-bit grey input; pixel
  values become grey reals on the ``m = 256`` scale.
* ``fmap``: binary container for real-valued maps (and transformed
  images).  Header line ``fmap <width> <height> <m> f8le``, then exactly
  ``8 * width * height`` bytes: the cells as little-endian IEEE float64 in
  row-major order, so every bit round-trips, signs of zero included.  A
  map written by :func:`write_map` appends its ``full_rect`` to the
  header, the half-open rectangle ``r0 r1 c0 c1`` of its full-overlap
  cells (``0 0 0 0`` when there are none); :func:`write_image` writes no
  rectangle.  The body is written with raw writes of one byte view and
  read with one ``readinto`` once its byte count matches the header, so a
  header the file does not back allocates nothing.  Any other first line
  is a ``ParseError`` naming the expected header; a NaN cell is one
  naming the first NaN in row-major order.  Both writers write over an existing regular file in place,
  without truncating it first: the header with its magic ``fmap`` as zero
  bytes, the body, a truncation at the body's end, and the magic last.  A
  write that stops part way leaves a file both readers reject on its
  magic, never old and new cells that read as valid.  A path that is not
  a regular file (``/dev/null``, a pipe) is written straight through,
  magic first.  Nothing is synced to disk: no durability is promised.
* ``probe``: an ASCII text file, header ``probe <width> <height>
  <anchor_x> <anchor_y> <m>``, then one line per row whose tokens are
  either a value (cell inside the probe domain) or ``_`` (outside).

Every integer field of every header is ASCII digits only.  Every real
number in a header or a probe (``m`` and the probe's values) takes the
grammar of Python's ``float()`` without ``_`` separators, NaN excluded,
so every value the writers print reads back bit for bit.

A map read from a file without a rectangle (an image) gets the whole
raster as its full-overlap rectangle, or the probe's when a probe is
given.  No reader or writer builds a full-overlap raster.
Each writer writes one format: :func:`write_map` and :func:`write_image`
the ``fmap``, :func:`write_probe` the ``probe`` text, and :func:`write_pgm8`
a lossy min-max normalised ``P2`` view of an image or a map, for eyeballing
only.
"""

from __future__ import annotations

import os
import re
import stat

import numpy as np

from .errors import DomainError, ParseError
from .lip import _within
from .morphology import full_overlap_rect
from .rasters import DistanceMap, GreyImage, Probe

__all__ = [
    "read_pgm",
    "read_image",
    "write_image",
    "read_map",
    "write_map",
    "write_pgm8",
    "read_probe",
    "write_probe",
]

_WS = b" \t\r\n\f\v"

_MAGIC = b"fmap"
_ENCODING = b"f8le"  # fmap body: little-endian IEEE float64, row-major
_HEADER = "fmap <w> <h> <m> f8le [r0 r1 c0 c1]"
#: An fmap header line must end within this many bytes; one is
#: under 100 bytes long, and the bound keeps a file without a newline
#: from being read whole in search of one.
_HEADER_MAX = 4096


def _f17(v: float) -> str:
    return format(float(v), ".17g")


def _unsigned(tok):
    """``tok`` (``bytes`` or ``str``) as an int if it is ASCII digits only, else ``None``.

    The one integer rule of every reader: no sign, ``_`` or whitespace.
    """
    if not (tok.isascii() and tok.isdigit()):
        return None
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts from text
        return None


#: The one number grammar of every reader: that of ``float()`` without its
#: ``_`` digit separators, surrounding whitespace or non-ASCII digits.  It
#: takes every string ``_f17`` writes; a NaN it admits is then rejected.
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)", re.ASCII | re.IGNORECASE
)


def _parse_float(tok: str, where: str) -> float:
    if not _NUMBER.fullmatch(tok):
        raise ParseError(f"bad value token {tok!r} {where}")
    v = float(tok)
    if np.isnan(v):
        raise ParseError(f"NaN not allowed {where}")
    return v


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
    v = _unsigned(tok)
    if v is None:
        raise ParseError(f"expected unsigned integer for {what}, got {tok!r}", at)
    return v, pos


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
        raster = memoryview(data)[start : start + n]  # a view: no raster-sized copy
        if len(raster) < n:
            raise ParseError(
                f"truncated raster: expected {n} bytes, got {len(raster)}", len(data)
            )
        pixels = np.frombuffer(raster, dtype=np.uint8)
        if not _within(pixels, maxval):  # checked on the bytes, before they are widened
            i = int(np.argmax(pixels > maxval))
            raise ParseError(f"pixel value {int(pixels[i])} exceeds maxval {maxval}", start + i)
        values = pixels.astype(np.float64)
    else:
        # a list, so that a header the data does not back allocates nothing
        pixels = []
        for i in range(n):
            tok, at, pos = _pgm_token(data, pos, f"pixel {i}")
            v = _unsigned(tok)
            if v is None:
                raise ParseError(f"expected pixel value, got {tok!r}", at)
            if v > maxval:
                raise ParseError(f"pixel value {v} exceeds maxval {maxval}", at)
            pixels.append(v)
        at = _PGM_TOKEN.match(data, pos).start(1)
        if at < len(data):
            raise ParseError("trailing data after raster", at)
        values = np.array(pixels, dtype=np.float64)
    return GreyImage._adopt(values.reshape(height, width), 256.0)


# ---------------------------------------------------------------------------
# fmap
# ---------------------------------------------------------------------------


def _read_fmap(path):
    """``(values, m, rect)``; ``rect`` is the stored full-overlap rectangle or ``None``."""
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_MAX)
        head = line.split()
        text = line.decode("latin-1").rstrip()
        if head[:1] == [_MAGIC] and not line.endswith(b"\n"):
            raise ParseError(f"map header has no newline within its first {_HEADER_MAX} bytes", 0)
        if head[:1] != [_MAGIC] or len(head) not in (5, 9):
            raise ParseError(f"bad map header {text!r}, expected {_HEADER!r}", 0)
        if head[4] != _ENCODING:
            raise ParseError(f"unknown fmap body encoding {head[4].decode('latin-1')!r}", 0)
        fields = [_unsigned(tok) for tok in head[1:3] + head[5:]]
        if None in fields:
            raise ParseError(f"bad integer field in map header {text!r}", 0)
        width, height, *rect = fields
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
    if not _within(values, np.inf):  # the max is NaN
        r, c = divmod(int(np.argmax(np.isnan(values))), width)
        raise ParseError(f"NaN not allowed at row {r}, column {c}")
    return values, m, tuple(rect) or None


def _write_fmap(values: np.ndarray, m: float, path, rect=None):
    h, w = values.shape
    rest = f" {w} {h} {_f17(m)} {_ENCODING.decode()}"
    if rect is not None:
        rest += " %d %d %d %d" % rect
    rest = rest.encode("ascii") + b"\n"
    # no O_TRUNC: freeing an existing file's blocks costs more than writing
    # over them; unbuffered, so that every write goes straight to the file
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb", buffering=0) as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        # a regular file gets its magic last, so that no reader accepts it half written
        fh.write((bytes(len(_MAGIC)) if regular else _MAGIC) + rest)
        # raw writes release the GIL; tofile flushes its last partial block holding it,
        # which deadlocks on a full pipe drained by a thread of this process
        view = memoryview(np.ascontiguousarray(values, dtype="<f8").reshape(-1).view(np.uint8))
        while view:
            view = view[fh.write(view) :]
        if regular:
            fh.truncate()
            fh.seek(0)
            fh.write(_MAGIC)


def read_map(path, probe: Probe | None = None) -> DistanceMap:
    """Read a map file, with the full-overlap rectangle its header stores.

    A file that stores no rectangle (an image from :func:`write_image`)
    gets ``probe``'s full-overlap rectangle, or the whole raster without a
    probe.  A stored rectangle that differs from ``probe``'s raises
    :class:`DomainError` naming both; an empty one is the empty region,
    whatever corners it names.  A first line other than an ``fmap``
    header, such as that of a file in the earlier text format, raises
    :class:`ParseError` naming the expected header.
    """
    values, m, stored = _read_fmap(path)
    expected = None if probe is None else full_overlap_rect(values.shape, probe)
    dist_map = DistanceMap._adopt(values, stored or expected, m)
    if stored is not None and expected is not None and dist_map.full_rect != expected:
        raise DomainError(
            "map stores full-overlap rectangle r0 r1 c0 c1 = %d %d %d %d, " % stored
            + "but the probe's is %d %d %d %d" % expected
        )
    return dist_map


def write_map(dist_map, path):
    """Write a map in the bit-exact ``fmap`` container, with its ``full_rect`` in the header."""
    _write_fmap(dist_map.values, dist_map.m, path, dist_map.full_rect)


def write_pgm8(raster, path):
    """Write ``raster.values`` (an image or a map) as a lossy 8-bit ``P2`` view.

    The finite cells are min-max normalised to 0..255, ``+inf`` cells
    become 255 and ``-inf`` cells 0; a constant raster is all 0.  For
    viewing only: nothing reads the view back as the raster.
    """
    v = raster.values
    finite = np.isfinite(v)
    out = np.zeros(v.shape, dtype=np.uint8)
    if finite.any():
        f = v[finite]
        lo, hi = float(f.min()), float(f.max())
        if hi > lo:
            if hi - lo == np.inf:  # the span passes the largest float: halve the operands
                f, lo, hi = f / 2, lo / 2, hi / 2
            out[finite] = np.round((f - lo) / (hi - lo) * 255).astype(np.uint8)
    out[v == np.inf] = 255
    h, w = out.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{w} {h}\n255\n")
        for row in out:
            fh.write(" ".join(map(str, row.tolist())))
            fh.write("\n")


def write_image(image: GreyImage, path):
    """Write an image in the exact ``fmap`` container, with no full-overlap rectangle."""
    _write_fmap(image.values, image.m, path)


def read_image(path) -> GreyImage:
    """Read a grey image from PGM or from the exact ``fmap`` container."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] in (b"P2", b"P5"):
        return read_pgm(path)
    if magic == _MAGIC:
        values, m, _ = _read_fmap(path)
        return GreyImage._adopt(values, m)
    raise ParseError(f"unrecognised image format (magic {magic!r})", 0)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def read_probe(path) -> Probe:
    """Read a probe file.

    Grid tokens are values (inside the domain) or ``_`` (outside).  The
    value regime is checked by the operation the probe is used in.  The
    file must be ASCII; header integers are ASCII digits, as in the other
    formats, and every value follows the readers' one number grammar.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte {data[exc.start : exc.start + 1]!r} in probe file", exc.start) from None
    # split as the bytes they are, like the other readers: lines end at \n, \r
    # or \r\n, and tokens are separated by ASCII whitespace (_WS) only
    lines = data.splitlines()
    if not lines:
        raise ParseError("empty probe file", 0)
    head = lines[0].split()
    if len(head) != 6 or head[0] != b"probe":
        raise ParseError(f"bad probe header {lines[0].decode()!r}", 0)
    fields = [_unsigned(tok) for tok in head[1:5]]
    if None in fields:
        raise ParseError(f"bad integer field in probe header {lines[0].decode()!r}", 0)
    width, height, ax, ay = fields
    m = _parse_float(head[5].decode(), "in probe header")
    if width <= 0 or height <= 0:
        raise ParseError(f"invalid dimensions {width}x{height}", 0)
    if not (ax < width and ay < height):
        raise ParseError(f"anchor ({ax}, {ay}) outside {width}x{height} grid")
    rows = [ln.split() for ln in lines[1:] if ln.strip()]
    if len(rows) != height:
        raise ParseError(f"expected {height} grid lines, found {len(rows)}")
    for r, toks in enumerate(rows):
        if len(toks) != width:
            raise ParseError(f"row {r}: expected {width} tokens, found {len(toks)}")
    # allocated once the grid's shape is checked against the file
    values = np.zeros((height, width), dtype=np.float64)
    mask = np.zeros((height, width), dtype=bool)
    for r, toks in enumerate(rows):
        for c, tok in enumerate(toks):
            if tok == b"_":
                continue
            values[r, c] = _parse_float(tok.decode(), f"at row {r}, column {c}")
            mask[r, c] = True
    if not mask.any():
        raise ParseError("probe domain is empty (all tokens are '_')")
    return Probe(values, mask, (ay, ax), m)


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
