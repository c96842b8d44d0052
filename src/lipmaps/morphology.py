"""Grey-level Minkowski dilation and erosion with a structuring function.

Windows are clipped to the raster domain: the supremum/infimum at ``x``
runs over the probe offsets that land inside the raster.  On the extended
reals this makes both operators total: a cell whose clipped window is
empty yields ``-inf`` (dilation, empty supremum) or ``+inf`` (erosion,
empty infimum).

Every sliding extremum in the package goes through one kernel,
:func:`spread`, the window max and min of ``f(x + h) - b(h)``, except the
ratio path of :mod:`lipmaps.asplund`, which keeps a per-offset loop as an
independent reference.  Erosion is its min side; dilation is its max side
on the reflected probe with negated values, since ``x - (-v)`` is ``x + v``
bit for bit in IEEE arithmetic.  The kernel pads the raster with NaN, read
as "no value here", and reduces and folds with ``np.fmax``/``np.fmin``,
which skip NaN, so every window is exactly the clipped one; each output
starts at the lattice neutral of its side (``-inf`` for the max, ``+inf``
for the min), which an empty window leaves in place.  The image itself
must therefore be NaN-free (:func:`dilate` and :func:`erode` reject a NaN
cell).  The kernel splits the probe into horizontal runs of equal value
(the chord decomposition of Urbach & Wilkinson, IEEE TIP 2008).  The
running max/min of the image along a run comes from a log-step table
(van Herk 1992): level ``k`` holds the max/min over ``2**k`` consecutive
columns.  A run whose length ``L`` is ``2**k`` reads level ``k``; for any
other length, with ``2**k < L < 2**(k+1)``, a chord-length table ``H_L``
(Urbach & Wilkinson's table per distinct chord length) is built once, the
max/min of level ``k`` and of level ``k`` shifted by ``L - 2**k``, and
every run of that length and value reads it.  Each run is then one slice,
folded once.  Rounded subtraction of a fixed ``v`` is non-decreasing, so
``max_h (f(x+h) - v) = max_h f(x+h) - v`` over all the runs that share the
probe value ``v``: the runs of one value are reduced into one accumulator
and ``v`` is subtracted once per distinct value.

The work is done per fixed strip of output rows.  Level 0, the padded
image, is built once per strip and shared by both sides.  A probe value
held by a single cell (one run of length 1 after clipping) reads one
level-0 slice, which is both its window max and its window min, so it
gets one subtraction whose result is folded into both outputs; on a probe
cut from a real image, with no two equal neighbours, that is every value.
The other values are then reduced and subtracted one side at a time, over
levels ``1..top`` rebuilt in place above level 0.  Per value, the runs
are grouped by clipped length, and each ``H_L`` is built into one shared
buffer over just the flat range its runs read, from the first run's
start to the last run's end.  The buffer is rebuilt for the value's next
length, so no view into it may outlive its length: a value's first length,
when it has a single run, is built straight into the accumulator.  The
scratch memory, one table of ``top + 1`` levels, the ``H_L`` buffer (at
most one level), one accumulator and one padded output strip per side,
stays O(levels x strip x width) whatever the number of values or
lengths.  Per strip and side, map cost is one fold per run plus one
partial build per distinct non-power-of-two length of each value: it
grows with the probe's number of runs, not its number of cells.

Every operation of a strip runs on one contiguous 1-D range of the table
at its row stride ``width`` (the raster width plus the probe's horizontal
reach), never on a 2-D view: a slice of ``r`` rows starting at row ``y``,
column ``c`` is the flat range from ``y * width + c`` to column
``c + w - 1`` of its last row.  The padding columns between the rows are
computed along with the window and dropped when each strip is copied out
of its padded accumulator.  Each range ends on its last row, so nothing
is read past the rows the strip built, and every value read comes from
level 0, NaN-filled for whole rows, or from a level built from it.

Max/min accumulation is order-independent and subtraction is
non-decreasing under IEEE rounding, so the result equals the literal
per-cell, per-offset loop bit for bit, up to the sign of a zero: max/min
ties keep one operand and ``-0.0 == 0.0``, so the sign the folds leave
depends on the order in which ties are met.  The copy-out adds ``+0.0``,
which turns every zero result into ``+0.0`` and changes nothing else.
"""

from __future__ import annotations

import numpy as np

from .lip import _asvalues
from .rasters import Probe

__all__ = ["spread", "probe_runs", "dilate", "erode", "reflect", "full_overlap_mask"]

# Output rows per kernel pass; bounds the log-step tables to O(levels x strip x width).
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


def _chords(b: Probe, shape):
    """The probe's runs clipped to a raster of ``shape``, grouped as :func:`spread` reads them.

    Returns ``None`` when no run reaches the raster.  Otherwise
    ``(y_lo, y_hi, c_lo, width, groups)``: a strip's table holds the source
    rows from ``y_lo`` above its first output row to ``y_hi`` below its
    last, and the columns from ``c_lo`` to ``w - 1`` plus the probe's
    rightward reach, at row stride ``width``.  ``groups`` maps each probe
    value to its chord lengths, one ``(k, d, base, rel)`` per distinct
    clipped length ``2**k + d`` (``0 <= d < 2**k``): the chords of that
    length start at the flat table offsets ``base + rel``, with ``rel``
    ascending from 0.
    """
    h, w = shape
    dy, x0, n, vals = probe_runs(b)
    # clip each run to the columns that can reach the raster, drop the rest
    x1 = np.minimum(x0 + n - 1, w - 1)
    x0 = np.maximum(x0, 1 - w)
    keep = (np.abs(dy) < h) & (x0 <= x1)
    dy, x0, x1, vals = dy[keep], x0[keep], x1[keep], vals[keep]
    if not dy.size:
        return None
    y_lo, y_hi = int(dy.min()), int(dy.max())
    c_lo = min(0, int(x0.min()))
    width = w + max(0, int(x1.max())) - c_lo
    # runs grouped by probe value (the `==` of probe_runs), then by clipped
    # length; a run at row y, column a starts at flat offset y * width + a
    starts = {}
    for y, a, z, v in zip(dy, x0, x1, vals):
        at = int(y - y_lo) * width + int(a - c_lo)
        starts.setdefault(float(v), {}).setdefault(int(z - a) + 1, []).append(at)
    groups = {}
    for v, by_length in starts.items():
        # probe_runs lists runs in row-major order, so each `ats` is ascending
        groups[v] = [
            (n.bit_length() - 1, n - (1 << (n.bit_length() - 1)), ats[0], [at - ats[0] for at in ats])
            for n, ats in sorted(by_length.items())
        ]
    return y_lo, y_hi, c_lo, width, groups


def spread(f, b: Probe, hi: bool = True, lo: bool = True):
    """Sliding extrema of ``f(x + h) - b(h)`` over the probe domain.

    Returns ``(hi, lo)``: per cell the max and the min over the offsets
    ``h`` whose partner ``x + h`` lies inside the raster; a side not asked
    for is ``None``.  A cell with an empty clipped window keeps the neutral
    value, ``-inf`` for the max and ``+inf`` for the min.  A zero result is
    always ``+0.0``.

    The table is padded with NaN ("no value here") and every reduce and
    fold is an ``np.fmax``/``np.fmin``, which skip NaN, so ``f`` must be
    NaN-free; a NaN cell would be read as lying outside the raster.

    Per strip, table level 0 (the padded image) is built once.  A probe
    value held by a single cell is subtracted once from its level-0 slice,
    and the difference is folded into both sides.  The other values are
    reduced per side over levels ``1..top``, rebuilt in place above level
    0: per value and chord length ``L``, a power of two ``2**k`` reads
    level ``k``, any other length first builds its chord-length table
    ``H_L``, the reduce of level ``k`` with itself shifted by
    ``L - 2**k``, over the flat range its chords read; each chord is then
    one slice, folded once, and each value is subtracted once.  Every slice
    is read as one flat range of the table at its row stride ``width``,
    padding columns included, and folded into a padded accumulator of the
    same stride; the output keeps the first ``w`` columns of each
    accumulator row.  Scratch memory is the table, ``(top + 1) x (strip +
    row span) x width`` floats, one ``H_L`` buffer of at most one level's
    size, one accumulator and one padded strip per side, each
    ``strip x width``.
    """
    f = np.asarray(f, dtype=np.float64)
    h, w = f.shape
    sides = [(np.fmax, -np.inf)] * hi + [(np.fmin, np.inf)] * lo
    outs = [np.empty(f.shape) for _ in sides]
    plan = _chords(b, f.shape)
    if plan is None:
        for out, (_, neutral) in zip(outs, sides):
            out.fill(neutral)
    else:
        y_lo, y_hi, c_lo, width, groups = plan
        top = max(k for lengths in groups.values() for k, *_ in lengths)
        # a value on one clipped cell (one length, level 0 so length 1, one chord)
        # reads one level-0 slice, and its window max and min are that slice
        cells = {v: ls[0][2] for v, ls in groups.items() if len(ls) == 1 and ls[0][0] == 0 and ls[0][3] == [0]}
        for v in cells:
            del groups[v]
        # levels 0..top of one table, level 0 shared by both sides, one H_L
        # buffer, one accumulator, and per side a padded strip at the table's row stride
        tables = np.empty((top + 1, _STRIP + y_hi - y_lo, width))
        flat = tables.reshape(top + 1, -1)
        # H_L spans its chords' first start to last start plus one slice of the tallest strip
        ns_max = (min(h, _STRIP) - 1) * width + w
        hl = np.empty(max((rel[-1] + ns_max for ls in groups.values() for _, d, _, rel in ls if d), default=0))
        acc = np.empty(_STRIP * width)
        pads = [np.empty((_STRIP, width)) for _ in sides]
        for r0 in range(0, h, _STRIP):
            r1 = min(h, r0 + _STRIP)
            rows = r1 - r0 + y_hi - y_lo
            s0, s1 = max(0, r0 + y_lo), min(h, r1 + y_hi)
            if s0 >= s1:
                for out, (_, neutral) in zip(outs, sides):
                    out[r0:r1] = neutral
                continue
            tables[0, :rows].fill(np.nan)
            tables[0, s0 - r0 - y_lo : s1 - r0 - y_lo, -c_lo : w - c_lo] = f[s0:s1]
            # a slice of r1 - r0 rows: its flat range ends at column w - 1 of its last row
            ns = (r1 - r0 - 1) * width + w
            strips = [pad.reshape(-1)[:ns] for pad in pads]
            for strip, (_, neutral) in zip(strips, sides):
                strip.fill(neutral)
            for v, at in cells.items():
                part = np.subtract(flat[0, at : at + ns], v, out=acc[:ns])
                for (reduce, _), strip in zip(sides, strips):
                    reduce(strip, part, out=strip)
            for (reduce, _), strip in zip(sides, strips) if groups else ():
                for k in range(top):
                    # level k + 1 is only needed (and only valid) on the first
                    # width - 2**(k+1) + 1 columns of each row; its flat range ends
                    # there on the last row, where the level-k range it reads ends
                    step = 1 << k
                    ne = rows * width - (2 << k) + 1
                    reduce(flat[k, :ne], flat[k, step : step + ne], out=flat[k + 1, :ne])
                for v, lengths in groups.items():
                    win = None
                    for k, d, base, rel in lengths:
                        src = flat[k, base:]
                        if d:
                            # H_L over the flat range of this length's chords; its last
                            # read is the last cell of the last chord's second level-k
                            # slice, inside the built range.  A value's first length, if
                            # it has one chord, is built straight into the accumulator:
                            # a view into H_L left as `win` would be overwritten by the
                            # value's next length
                            ne = rel[-1] + ns
                            into = acc if win is None and len(rel) == 1 else hl
                            src = reduce(src[:ne], flat[k, base + d : base + d + ne], out=into[:ne])
                        for at in rel:
                            part = src[at : at + ns]
                            win = part if win is None else reduce(win, part, out=acc[:ns])
                    reduce(strip, np.subtract(win, v, out=acc[:ns]), out=strip)
            # + 0.0 turns a -0.0 into +0.0, whatever order the folds met the ties in
            for strip, pad, out in zip(strips, pads, outs):
                np.add(strip, 0.0, out=strip)
                out[r0:r1] = pad[: r1 - r0, :w]
    done = iter(outs)
    return (next(done) if hi else None, next(done) if lo else None)


def dilate(f: np.ndarray, b: Probe) -> np.ndarray:
    """Grey-level dilation ``(f (+) b)(x) = sup { f(x-h) + b(h) : h in D_b }``."""
    return spread(_asvalues(f, "image"), reflect(b.with_values(-b.values)), lo=False)[0]


def erode(f: np.ndarray, b: Probe) -> np.ndarray:
    """Grey-level erosion ``(f (-) b)(x) = inf { f(x+h) - b(h) : h in D_b }``."""
    return spread(_asvalues(f, "image"), b, hi=False)[1]


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

