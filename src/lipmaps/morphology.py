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
ratio reference of :mod:`lipmaps.asplund`, ``_ratio_bounds``, keeps a
per-offset loop, independent of the kernel.  Erosion is the min side;
dilation is the max side on the reflected probe with negated values,
since ``x - (-v)`` is ``x + v`` bit for bit in IEEE arithmetic.  The
kernel pads the raster with NaN, read as "no value here", and reduces and
folds with ``np.fmax``/``np.fmin``, which skip NaN, so every window is
exactly the clipped one.  The image itself must therefore be NaN-free
(:func:`dilate` and :func:`erode` reject a NaN cell).  Each side starts
as the differences of its first probe value, and the folds of the other
values skip the NaN of an empty window, so a NaN is left only where a
cell's whole clipped window is empty; one fold with the lattice neutral
of the side (``-inf`` for the max, ``+inf`` for the min) then sets those
cells.  The anchor's own offset always lands inside the raster, so only a
probe whose anchor is off its mask has such a cell, and only such a probe
runs that pass.  The kernel splits the probe into horizontal runs of
equal value (the chord decomposition of Urbach & Wilkinson, IEEE TIP
2008).  The running max/min of the image along a run comes from a log-step table
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

The strip loop.  :func:`_stream` runs one loop over strips of output
rows, and every caller goes through it.  The raster is cut into the
fewest strips of at most ``_STRIP`` rows, all of one height.  Per strip,
level 0, the padded image, is built once and shared by both sides: the rows the
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
scratch leaves the loop.  The ranges a strip reads and writes depend only
on its height, so their views are made once, before the loop, and each
strip only runs its passes; the last strip computes its rows past the
raster on the NaN rows below it, and they are not copied out.

A probe value held by a single cell (one run of length 1 after clipping)
reads one level-0 slice, which is both its window max and its window min,
so it gets one subtraction whose result is folded into both outputs (the
first such value's result starts the max block and is copied into the min
block); on a probe cut from a real image, with no two equal neighbours,
that is every value.
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
depends on the order in which ties are met.  ``+ 0.0`` turns a zero into
``+0.0`` and changes nothing else, and the finish adds it once, where it
can change a result: :func:`spread` to each block after the folds, the
distance maps of :mod:`lipmaps.asplund` to their finished difference
(``hi - lo`` is ``-0.0`` only for ``-0.0 - +0.0``, so this gives the bits
of adding it to both sides first), and the additive bound maps to their
side before ``xi_inv``, which keeps a zero's sign.  The multiplicative
bound maps add none: ``exp`` sends either zero to 1.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .lip import _asvalues
from .rasters import Probe

__all__ = ["spread", "probe_runs", "dilate", "erode", "reflect", "full_overlap_rect"]

# The maximum output rows per kernel pass; bounds the log-step tables to O(levels x strip x width).
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
    if f.ndim != 2:
        raise DimensionError(f"image must be a 2-D raster, got shape {f.shape}")
    if not (hi or lo):
        return None, None
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
    ``w`` are padding, as are the last strip's rows past the raster; it
    finishes them in place and returns the block that holds the strip's
    result, whose rows inside the raster are copied into the one raster of
    ``outs``.  The blocks' zeros keep the sign the folds left, so the finish
    owns the sign of a zero result, and a padding cell may hold any value,
    NaN included.  Without a finish, each side's block gets ``+ 0.0`` and is
    copied into its own raster of ``outs``, in the same order, and the
    results are those of the literal per-cell loop on ``T f``, zeros as
    ``+0.0``: ``T`` is applied cell by cell, once per image row, and on the
    NaN padding, which it leaves NaN.

    The raster is cut into the fewest strips of at most ``_STRIP`` rows,
    all of one height, so every strip runs the same passes on one set of
    views, made before the loop.  Each side's block starts as its first
    value's differences, the first single cell's for both sides when the
    probe has one; its tail past the last row's ``w`` columns, which no
    fold writes, holds the neutral, and so does the whole block of a probe
    that reaches no cell.  The neutral pass over the folded blocks runs only
    when ``b``'s anchor is off its mask; it also sets a strip with no source
    row, whose folds read only NaN.
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
    # the fewest strips of at most _STRIP rows, each n rows high; the last one
    # computes its rows past the raster on the NaN rows below it
    n = -(-h // -(-h // _STRIP)) if h else 1
    rows = n + span
    # a slice of n rows: its flat range ends at column w - 1 of its last row
    ns = (n - 1) * width + w
    # levels 0..top of one table, level 0 shared by both sides, one H_L
    # buffer, one accumulator, and per side a padded strip at the table's row stride
    tables = np.empty((top + 1, rows, width))
    flat = tables.reshape(top + 1, -1)
    # H_L spans its chords' first start to last start plus one slice
    hl = np.empty(max((rel[-1] + ns for ls in groups.values() for _, d, _, rel in ls if d), default=0))
    acc = np.empty(ns)
    blocks = [np.empty((n, width)) for _ in sides]
    # level k + 1 is only needed (and only valid) on the first
    # width - 2**(k+1) + 1 columns of each row; its flat range ends
    # there on the last row, where the level-k range it reads ends
    levels = []
    for k in range(top):
        ne = rows * width - (2 << k) + 1
        levels.append((flat[k, :ne], flat[k, 1 << k : (1 << k) + ne], flat[k + 1, :ne]))
    shared = []
    for v, lengths in groups.items():
        steps = []
        for k, d, base, rel in lengths:
            src, build = flat[k, base:], None
            if d:
                # H_L over the flat range of this length's chords; its last
                # read is the last cell of the last chord's second level-k
                # slice, inside the built range.  A value's first length, if
                # it has one chord, is built straight into the accumulator:
                # a view into H_L left as the value's running extremum would
                # be overwritten by the value's next length
                ne = rel[-1] + ns
                src = acc if not steps and len(rel) == 1 else hl
                build = (flat[k, base : base + ne], flat[k, base + d : base + d + ne], src[:ne])
            steps.append((build, [src[at : at + ns] for at in rel]))
        shared.append((v, steps))
    singles = [(v, flat[0, at : at + ns]) for v, at in cells.items()]
    strips = [block.reshape(-1)[:ns] for block in blocks]
    # no fold writes a block's tail, nor any of a probe that reaches no cell
    tails = [block.reshape(-1)[ns if singles or shared else 0 :] for block in blocks]
    # only a probe off its anchor leaves a cell of the raster an empty window
    off_anchor = not b.mask[b.anchor]

    # the padding columns, and the rows above the raster, stay NaN from here on
    tables[0].fill(np.nan)
    for r0 in range(0, h, n):
        n0 = r0 + y_lo  # the source row of table row 0
        first = 0
        if r0:
            # the previous strip's rows n.. are this strip's rows 0..span-1,
            # moved up in blocks of at most n rows so no block overlaps its source
            for i in range(0, span, n):
                j = min(span, i + n)
                flat[0, i * width : j * width] = flat[0, (i + n) * width : (j + n) * width]
            first = span
        # rows first..rows-1 are built: T f inside the raster, NaN below it; those
        # above it are NaN from the first fill or from the rows moved up
        i0 = min(rows, max(first, -n0))
        i1 = max(i0, min(rows, h - n0))
        tables[0, i1:rows].fill(np.nan)
        tables[0, i0:i1, -c_lo : w - c_lo] = f[n0 + i0 : n0 + i1]
        if t is not None:
            # on the rows' whole flat range: T of a NaN padding cell is NaN
            t(flat[0, i0 * width : i1 * width])
        _fold(sides, off_anchor, strips, tails, acc, levels, singles, shared)
        r1 = min(h, r0 + n)
        if finish is None:
            for out, block in zip(outs, blocks):
                out[r0:r1] = _unsigned_zeros(block)[: r1 - r0, :w]
        else:
            outs[0][r0:r1] = finish(*blocks)[: r1 - r0, :w]


def _fold(sides, off_anchor, strips, tails, accum, levels, singles, shared):
    """Fold a strip's window extrema into its padded blocks, in place.

    Per side, ``strips`` holds the block's flat range of the strip's rows,
    which the folds write, and ``tails`` the rest of it, or all of it when
    no value is folded; ``accum`` is the
    accumulator over that range.  ``levels`` holds the ``(level k, level k
    shifted, level k + 1)`` ranges of each level's build, ``singles`` a
    ``(v, level-0 slice)`` per single-cell value, and ``shared`` a ``(v,
    steps)`` per other value, one ``(build, slices)`` step per chord
    length: the ``H_L`` build's three ranges (``None`` where a level is read
    as it is) and each chord's slice.  Every strip has the same height, so
    :func:`_stream` makes the views once per call.
    """
    # no fold writes a block's tail, the last row's padding columns: it gets
    # the neutral, so no stale value reaches a finish
    for tail, (_, neutral) in zip(tails, sides):
        tail.fill(neutral)
    # each side's block starts as its first value's difference and folds in the others
    for i, (v, src) in enumerate(singles):
        if i:
            np.subtract(src, v, accum)
            for (reduce, _), strip in zip(sides, strips):
                reduce(strip, accum, strip)
        else:
            np.subtract(src, v, strips[0])
            for strip in strips[1:]:
                np.copyto(strip, strips[0])
    for (reduce, _), strip in zip(sides, strips) if shared else ():
        for level in levels:
            reduce(*level)
        # i is 0 for the side's first value, which has no single cell before it
        for i, (v, steps) in enumerate(shared, bool(singles)):
            win = None
            for build, slices in steps:
                if build:
                    reduce(*build)
                for src in slices:
                    win = src if win is None else reduce(win, src, accum)
            if i:
                reduce(strip, np.subtract(win, v, accum), strip)
            else:
                np.subtract(win, v, strip)
    if off_anchor:
        # an empty window is NaN in every value's difference; the folds skip
        # NaN, so it is left only there, and only an off-mask anchor has one
        for (reduce, neutral), strip in zip(sides, strips):
            reduce(strip, neutral, strip)


def _unsigned_zeros(a):
    """``a + 0.0`` in place: each ``-0.0`` becomes ``+0.0``, and no other value changes."""
    return np.add(a, 0.0, out=a)


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


def full_overlap_rect(shape, b: Probe) -> tuple[int, int, int, int]:
    """Cells whose probe window lies entirely inside a raster of ``shape``.

    The half-open rectangle ``(r0, r1, c0, c1)`` of rows ``r0 <= r < r1``
    and columns ``c0 <= c < c1``; ``(0, 0, 0, 0)`` when no cell qualifies.
    """
    h, w = shape
    dys, dxs, _ = b.offsets()
    r0, r1 = max(0, -int(dys.min())), min(h, h - int(dys.max()))
    c0, c1 = max(0, -int(dxs.min())), min(w, w - int(dxs.max()))
    return (r0, r1, c0, c1) if r0 < r1 and c0 < c1 else (0, 0, 0, 0)
