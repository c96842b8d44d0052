"""Grey-level Minkowski dilation and erosion with a structuring function.

Windows are clipped to the raster domain: the supremum/infimum at ``x``
runs over the probe offsets that land inside the raster.  On the extended
reals this makes both operators total: a cell whose clipped window is
empty yields ``-inf`` (dilation, empty supremum) or ``+inf`` (erosion,
empty infimum).

Every sliding extremum in the package goes through one kernel,
:func:`_stream`: the window max and min of ``f(x + h) - b(h)``, computed
strip by strip.  :func:`spread` returns them as whole rasters, and the
maps of :mod:`lipmaps.asplund` finish them into their values.  Only the
ratio path of :mod:`lipmaps.asplund` keeps a per-offset loop, as an
independent reference.  Erosion is the min side; dilation is the
max side on the reflected probe with negated values, since ``x - (-v)`` is
``x + v`` bit for bit in IEEE arithmetic.  The kernel pads the raster with NaN, read
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

The strip loop.  :func:`_stream` runs one loop over fixed strips of
output rows, and every caller goes through it.  Per strip, level 0, the
padded image, is built once and shared by both sides: the rows the
previous strip's table also held are moved up from it, the new rows are
copied from the image, and a caller's transform ``T`` (``hat`` or ``xi``
for the distance maps) is applied to them in place, over their contiguous
flat range.  The folds then fill one padded block per side asked for with
the strip's window extrema.  A caller's finish (``exp``, ``xi_inv`` or a
difference, for the maps of :mod:`lipmaps.asplund`) turns the blocks in
place into the strip's result, and the loop copies the strip's rows of it
into the output raster the caller passed in; without a finish
(:func:`spread`) each side's block is copied into its own raster.  So no
full raster of ``T f`` or of either extremum is made, and no view of the
scratch leaves the loop.

A probe value held by a single cell (one run of length 1 after clipping)
reads one level-0 slice, which is both its window max and its window min,
so it gets one subtraction whose result is folded into both outputs; on a
probe cut from a real image, with no two equal neighbours, that is every
value.
The other values are then reduced and subtracted one side at a time, over
levels ``1..top`` rebuilt in place above level 0.  Per value, the runs
are grouped by clipped length, and each ``H_L`` is built into one shared
buffer over just the flat range its runs read, from the first run's
start to the last run's end.  The buffer is rebuilt for the value's next
length, so no view into it may outlive its length: a value's first length,
when it has a single run, is built straight into the accumulator.  The
scratch memory, one table of ``top + 1`` levels, the ``H_L`` buffer (at
most one level), one accumulator and one padded block per side,
stays O(levels x strip x width) whatever the number of values or
lengths.  Per strip and side, map cost is one fold per run plus one
partial build per distinct non-power-of-two length of each value: it
grows with the probe's number of runs, not its number of cells.

Every arithmetic operation of a strip, ``T`` and the callers' finishes
included, runs on one contiguous 1-D range at the table's row stride
``width`` (the raster width plus the probe's horizontal reach), never on
a 2-D view; only the copies into level 0 and out of the padded blocks
are 2-D.  A slice of ``r`` rows starting at row ``y``, column ``c`` is
the flat range from ``y * width + c`` to column ``c + w - 1`` of its last
row.  The padding columns between the rows are computed along with the
window and dropped when each strip is copied out of its padded block.
Each range ends on its last row, so nothing is read past the rows the
strip built, and every value read comes from level 0, NaN-filled for
whole rows, or from a level built from it.

Max/min accumulation is order-independent and subtraction is
non-decreasing under IEEE rounding, so the result equals the literal
per-cell, per-offset loop bit for bit, up to the sign of a zero: max/min
ties keep one operand and ``-0.0 == 0.0``, so the sign the folds leave
depends on the order in which ties are met.  After the folds, each
block gets ``+ 0.0``, which turns every zero result into ``+0.0`` and
changes nothing else.
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
    # a run at row y, column a starts at flat offset y * width + a
    at = (dy - y_lo) * width + (x0 - c_lo)
    n = x1 - x0 + 1
    # runs grouped by probe value (the `==` of probe_runs: -0.0 joins 0.0,
    # and the output's zeros are +0.0 either way), then by clipped length; the
    # sort is stable and probe_runs lists runs in row-major order, so each
    # group's starts ascend
    order = np.lexsort((n, vals))
    vals, n, at = vals[order], n[order], at[order]
    head = np.ones(n.size, dtype=bool)
    head[1:] = (vals[1:] != vals[:-1]) | (n[1:] != n[:-1])
    heads = np.flatnonzero(head)
    rel = (at - at[heads][np.cumsum(head) - 1]).tolist()
    bounds = heads.tolist() + [len(rel)]
    n = n[heads]
    top = np.frexp(n)[1] - 1  # 2**top <= n < 2**(top + 1)
    groups = {}
    for v, k, d, base, i, j in zip(
        vals[heads].tolist(), top.tolist(), (n - (1 << top)).tolist(), at[heads].tolist(), bounds, bounds[1:]
    ):
        groups.setdefault(v, []).append((k, d, base, rel[i:j]))
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

    This is the strip loop of the module docstring with the identity for
    ``T`` and no finish.
    """
    f = np.asarray(f, dtype=np.float64)
    outs = [np.empty(f.shape) if side else None for side in (hi, lo)]
    _stream(f, b, [out for out in outs if out is not None], hi, lo)
    return tuple(outs)


def _stream(f, b: Probe, outs, hi: bool = True, lo: bool = True, t=None, finish=None):
    """Write the window extrema of ``T f(x + h) - b(h)``, finished, into ``outs``: the module's strip loop.

    ``t(x)`` applies ``T`` in place to a contiguous range of table level 0;
    without it ``T`` is the identity.  ``b`` holds the probe values already
    transformed.  Per strip, ``finish`` receives the padded block of each
    side asked for, the max before the min, each a C-contiguous
    ``rows x width`` array at the table's row stride whose columns past
    ``w`` are padding; it finishes them in place and returns the block that
    holds the strip's result, which is copied into the one raster of
    ``outs``.  Without a finish, each side's block is copied into its own
    raster of ``outs``, in the same order, and the results are those of the
    literal per-cell loop on ``T f``, zeros as ``+0.0``: ``T`` is applied
    cell by cell, once per image row, and on the NaN padding, which it
    leaves NaN.
    """
    h, w = f.shape
    sides = [(np.fmax, -np.inf)] * hi + [(np.fmin, np.inf)] * lo
    # a probe that reaches no cell: every strip's source rows start below the raster
    y_lo, y_hi, c_lo, width, groups = _chords(b, f.shape) or (h, h, 0, w, {})
    span = y_hi - y_lo
    top = max((k for lengths in groups.values() for k, *_ in lengths), default=0)
    # a value on one clipped cell (one length, level 0 so length 1, one chord)
    # reads one level-0 slice, and its window max and min are that slice
    cells = {v: ls[0][2] for v, ls in groups.items() if len(ls) == 1 and ls[0][0] == 0 and ls[0][3] == [0]}
    for v in cells:
        del groups[v]
    # levels 0..top of one table, level 0 shared by both sides, one H_L
    # buffer, one accumulator, and per side a padded strip at the table's row stride
    tables = np.empty((top + 1, _STRIP + span, width))
    flat = tables.reshape(top + 1, -1)
    # H_L spans its chords' first start to last start plus one slice of the tallest strip
    ns_max = (min(h, _STRIP) - 1) * width + w
    hl = np.empty(max((rel[-1] + ns_max for ls in groups.values() for _, d, _, rel in ls if d), default=0))
    acc = np.empty(_STRIP * width)
    pads = [np.empty((_STRIP, width)) for _ in sides]
    # whether the previous strip built its table; the strips with a source row
    # are consecutive, so each but the first of them follows one that did
    carried = False
    for r0 in range(0, h, _STRIP):
        r1 = min(h, r0 + _STRIP)
        rows = r1 - r0 + span
        n0 = r0 + y_lo  # the source row of table row 0
        # a slice of r1 - r0 rows: its flat range ends at column w - 1 of its last row
        ns = (r1 - r0 - 1) * width + w
        blocks = [pad[: r1 - r0] for pad in pads]
        strips = [block.reshape(-1)[:ns] for block in blocks]
        # the whole block, so the last row's padding columns hold no stale value either
        for block, (_, neutral) in zip(blocks, sides):
            block.fill(neutral)
        if max(0, n0) < min(h, n0 + rows):
            first = 0
            if carried:
                # the previous strip's rows _STRIP.. are this strip's rows 0..span-1,
                # moved up in blocks of at most _STRIP rows so no block overlaps its source
                for i in range(0, span, _STRIP):
                    j = min(span, i + _STRIP)
                    flat[0, i * width : j * width] = flat[0, (i + _STRIP) * width : (j + _STRIP) * width]
                first = span
            else:
                tables[0, :rows].fill(np.nan)
            # rows first..rows-1 are built: T f inside the raster, NaN below it (the
            # padding columns stay NaN from the first fill).  A strip that moves rows
            # up follows one whose rows reached into the raster, so none of its new
            # rows lies above it
            i0 = min(rows, max(first, -n0))
            i1 = max(i0, min(rows, h - n0))
            tables[0, i1:rows].fill(np.nan)
            tables[0, i0:i1, -c_lo : w - c_lo] = f[n0 + i0 : n0 + i1]
            if t is not None:
                # on the rows' whole flat range: T of a NaN padding cell is NaN
                t(flat[0, i0 * width : i1 * width])
            carried = True
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
            for strip in strips:
                np.add(strip, 0.0, out=strip)
        for out, block in zip(outs, blocks if finish is None else [finish(*blocks)]):
            out[r0:r1] = block[:, :w]


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

