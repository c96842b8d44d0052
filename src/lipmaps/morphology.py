"""Grey-level Minkowski dilation and erosion with a structuring function.

Windows are clipped to the raster domain: the supremum/infimum at ``x``
runs over the probe offsets that land inside the raster.  On the extended
reals this makes both operators total: a cell whose clipped window is
empty yields ``-inf`` (dilation, empty supremum) or ``+inf`` (erosion,
empty infimum).

Every sliding extremum in the package goes through one kernel,
:func:`spread`, except the ratio path of :mod:`lipmaps.asplund`, which
keeps a per-offset loop as an independent reference.  The kernel pads
the raster with the lattice neutral of each side (``-inf`` for the max,
``+inf`` for the min), which gives exactly the clipped window, and
splits the probe into horizontal runs of equal value (the chord
decomposition of Urbach & Wilkinson, IEEE TIP 2008).  Over one run the
probe value is constant, so the run's contribution is the combine
applied once to the running max/min of the image along the run.  Those
running extrema come from a log-step table (van Herk 1992): level ``k``
holds the max/min over ``2**k`` consecutive columns, and a run of length
``n`` with ``2**k <= n < 2**(k+1)`` is the max/min of two shifted level-``k``
slices.  The table is rebuilt per fixed strip of output rows, so its
buffers stay O(strip x width), and the max and min sides share the pass.
Map cost therefore grows with the probe's number of runs, not its number
of cells; a run of length 1 reads level 0, a plain shifted slice.

Max/min accumulation is order-independent and every combine used here is
non-decreasing in the image value under IEEE rounding, so the result is
bit-identical to the literal per-cell, per-offset loop.
"""

from __future__ import annotations

import operator

import numpy as np

from .rasters import Probe

__all__ = ["spread", "probe_runs", "dilate", "erode", "reflect", "full_overlap_mask", "covered_mask"]

# Output rows per kernel pass; bounds the log-step tables to O(strip x width).
_STRIP = 64


def probe_runs(b: Probe):
    """Maximal horizontal runs of equal value among the probe's domain cells.

    Returns parallel arrays ``(dy, dx, length, value)``: a run covers the
    offsets ``(dy, dx), (dy, dx + 1), ..., (dy, dx + length - 1)``
    relative to the anchor, all with probe value ``value``.
    """
    mask, vals = b.mask, b.values
    # cell continues the run of its left neighbour
    joined = mask[:, 1:] & mask[:, :-1] & (vals[:, 1:] == vals[:, :-1])
    starts = mask.copy()
    starts[:, 1:] &= ~joined
    ends = mask.copy()
    ends[:, :-1] &= ~joined
    rows, first = np.nonzero(starts)
    _, last = np.nonzero(ends)
    return rows - b.anchor[0], first - b.anchor[1], last - first + 1, vals[rows, first]


def spread(f, b: Probe, combine, hi: bool = True, lo: bool = True):
    """Sliding extrema of ``combine(f(x + h), b(h))`` over the probe domain.

    Returns ``(hi, lo)``: per cell the max and the min over the offsets
    ``h`` whose partner ``x + h`` lies inside the raster; a side not asked
    for is ``None``.  A cell with an empty clipped window keeps the neutral
    value, ``-inf`` for the max and ``+inf`` for the min.

    ``combine(x, v)`` takes an array of image values and a probe value.  It
    must be non-decreasing in ``x`` under rounding and map ``+-inf`` to
    themselves, so that applying it once per run to the window extremum
    equals applying it per cell.
    """
    f = np.asarray(f, dtype=np.float64)
    h, w = f.shape
    sides = [(np.maximum, -np.inf)] * hi + [(np.minimum, np.inf)] * lo
    outs = [np.full(f.shape, neutral) for _, neutral in sides]
    dy, x0, n, vals = probe_runs(b)
    # clip each run to the columns that can reach the raster, drop the rest
    x1 = np.minimum(x0 + n - 1, w - 1)
    x0 = np.maximum(x0, 1 - w)
    keep = (np.abs(dy) < h) & (x0 <= x1)
    dy, x0, x1, vals = dy[keep], x0[keep], x1[keep], vals[keep]
    if dy.size:
        # table geometry: source rows r0 + y_lo .. r1 - 1 + y_hi, columns c_lo .. w - 1 + c_hi
        y_lo, y_hi = int(dy.min()), int(dy.max())
        c_lo, c_hi = min(0, int(x0.min())), max(0, int(x1.max()))
        width = w + c_hi - c_lo
        levels = np.frexp(x1 - x0 + 1)[1] - 1  # floor(log2(length))
        runs = sorted(
            (int(k), int(y - y_lo), int(a - c_lo), int(z - c_lo) + 1 - (1 << int(k)), float(v))
            for k, y, a, z, v in zip(levels, dy, x0, x1, vals)
        )
        # two tables per side: level k lives in table k % 2 and level k + 1 is built into the other
        bufs = [[np.empty((_STRIP + y_hi - y_lo, width)) for _ in range(2)] for _ in sides]
        for r0 in range(0, h, _STRIP):
            r1 = min(h, r0 + _STRIP)
            rows = r1 - r0 + y_hi - y_lo
            s0, s1 = max(0, r0 + y_lo), min(h, r1 + y_hi)
            if s0 >= s1:
                continue
            for (_, neutral), (table, _) in zip(sides, bufs):
                table[:rows].fill(neutral)
                table[s0 - r0 - y_lo : s1 - r0 - y_lo, -c_lo : w - c_lo] = f[s0:s1]
            level = 0
            for k, ty, a, z, v in runs:
                while level < k:
                    # level + 1 is only needed (and only valid) on its first `valid` columns
                    step, valid = 1 << level, width - (2 << level) + 1
                    for (reduce, _), pair in zip(sides, bufs):
                        cur, nxt = pair[level % 2][:rows], pair[1 - level % 2][:rows]
                        reduce(cur[:, :valid], cur[:, step : step + valid], out=nxt[:, :valid])
                    level += 1
                for (reduce, _), pair, out in zip(sides, bufs, outs):
                    table = pair[level % 2]
                    win = table[ty : ty + r1 - r0, a : a + w]
                    if z != a:
                        win = reduce(win, table[ty : ty + r1 - r0, z : z + w])
                    reduce(out[r0:r1], combine(win, v), out=out[r0:r1])
    done = iter(outs)
    return (next(done) if hi else None, next(done) if lo else None)


def dilate(f: np.ndarray, b: Probe) -> np.ndarray:
    """Grey-level dilation ``(f (+) b)(x) = sup { f(x-h) + b(h) : h in D_b }``."""
    return spread(f, reflect(b), operator.add, lo=False)[0]


def erode(f: np.ndarray, b: Probe) -> np.ndarray:
    """Grey-level erosion ``(f (-) b)(x) = inf { f(x+h) - b(h) : h in D_b }``."""
    return spread(f, b, operator.sub, hi=False)[1]


def reflect(b: Probe) -> Probe:
    """Reflected structuring function ``b~(h) = b(-h)``; an involution."""
    h, w = b.shape
    return Probe(
        values=b.values[::-1, ::-1],
        mask=b.mask[::-1, ::-1],
        anchor=(h - 1 - b.anchor[0], w - 1 - b.anchor[1]),
        m=b.m,
    )


def full_overlap_mask(shape, b: Probe) -> np.ndarray:
    """Cells whose probe window lies entirely inside a raster of ``shape``."""
    h, w = shape
    dys, dxs, _ = b.offsets()
    r0, r1 = max(0, -int(dys.min())), min(h - 1, h - 1 - int(dys.max()))
    c0, c1 = max(0, -int(dxs.min())), min(w - 1, w - 1 - int(dxs.max()))
    out = np.zeros(shape, dtype=bool)
    if r0 <= r1 and c0 <= c1:
        out[r0 : r1 + 1, c0 : c1 + 1] = True
    return out


def covered_mask(shape, b: Probe) -> np.ndarray:
    """Cells where at least one probe offset lands inside the raster.

    Each run of the probe covers one rectangle of cells.
    """
    h, w = shape
    out = np.zeros(shape, dtype=bool)
    for dy, dx, n, _ in zip(*probe_runs(b)):
        r0, r1 = max(0, -dy), min(h, h - dy)
        c0, c1 = max(0, 1 - dx - n), min(w, w - dx)
        if r0 < r1 and c0 < c1:
            out[r0:r1, c0:c1] = True
    return out
