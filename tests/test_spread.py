"""The run-length sliding kernel against literal per-cell loops.

Random probes have no two equal neighbours, so every run has length 1 and
:func:`lipmaps.morphology.spread` reads only table level 0, the padded image,
which it builds once per strip for both sides; each of those single-cell
values gets one subtraction, folded into both the max and the min.  The
other probes here are piecewise flat: runs of length ``2**k`` and
``2**k + 1`` (a table level read as one slice, and a chord-length table
built from two overlapping level slices), runs wider than the raster, rings, probes taller than one row
strip, anchors outside the mask, a few values shared by many runs, which the
kernel reduces together before one subtraction, and single cells mixed in
among such runs.  Every map must match the loop below bit for bit; the loop
reads the raster one cell at a time and does not go through the kernel.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import reference, traced_peak

from lipmaps import (
    GreyImage,
    Probe,
    make_ring_probe,
    map_add,
    map_add_via_mult,
    map_mult,
    map_mult_via_add,
    mglb_add,
    mglb_mult,
    mlub_add,
    mlub_mult,
)
from lipmaps.asplund import _RATIO_ROWS
from lipmaps.lip import hat, xi, xi_inv
from lipmaps.morphology import _STRIP, _chords, dilate, erode, probe_runs, spread

M = 256.0
RUN_LENGTHS = (1, 2, 3, 4, 5, 8, 9, 16, 17)


def windows(f, b, sign=1):
    """Per cell, the pairs ``(f[x + sign*h], b(h))`` with ``x + sign*h`` inside the raster."""
    h, w = f.shape
    dys, dxs, vals = b.offsets()
    out = {}
    for r in range(h):
        for c in range(w):
            out[r, c] = [
                (f[r + sign * dy, c + sign * dx], v)
                for dy, dx, v in zip(dys, dxs, vals)
                if 0 <= r + sign * dy < h and 0 <= c + sign * dx < w
            ]
    return out


def loop_reduce(shape, wins, combine, pick, empty):
    out = np.full(shape, empty)
    for cell, pairs in wins.items():
        if pairs:
            out[cell] = pick(combine(x, v) for x, v in pairs)
    return out


def flat_probe(rng, rows, lengths, lo, hi, holes=False):
    """Rows of runs with the given lengths, in shuffled order, neighbouring runs unequal."""
    values = []
    for _ in range(rows):
        order = rng.permutation(lengths)
        levels = rng.uniform(lo, hi, size=2)
        values.append(np.concatenate([np.full(n, levels[i % 2]) for i, n in enumerate(order)]))
    return with_mask(rng, np.array(values), holes)


def valued_probe(rng, rows, lengths, levels, holes=False):
    """Rows of runs with the given lengths, each run taking one of ``levels``, neighbours unequal."""
    values = []
    for _ in range(rows):
        row, prev = [], None
        for n in rng.permutation(lengths):
            prev = rng.choice([v for v in levels if v != prev])
            row.append(np.full(n, prev))
        values.append(np.concatenate(row))
    return with_mask(rng, np.array(values), holes)


def with_mask(rng, values, holes):
    """``(values, mask, anchor)``: about a tenth of the cells dropped if ``holes``, a random anchor."""
    mask = rng.random(values.shape) < 0.9 if holes else np.ones(values.shape, dtype=bool)
    mask.flat[0] = True
    anchor = (int(rng.integers(values.shape[0])), int(rng.integers(values.shape[1])))
    return values, mask, anchor


def assert_all_maps(f_mult, f_add, b):
    """Every map of the kernel equals its per-cell loop, bit for bit."""
    m = b.m
    shape = f_mult.shape

    wins = windows(hat(f_mult.values, m), b.with_values(hat(b.values, m)))
    hi = loop_reduce(shape, wins, lambda x, v: x - v, max, -np.inf)
    lo = loop_reduce(shape, wins, lambda x, v: x - v, min, np.inf)
    assert np.array_equal(map_mult(f_mult, b).values, hi - lo)

    wins = windows(xi(f_add.values, m), b.with_values(xi(b.values, m)))
    hi = loop_reduce(shape, wins, lambda x, v: x - v, max, -np.inf)
    lo = loop_reduce(shape, wins, lambda x, v: x - v, min, np.inf)
    assert np.array_equal(mlub_add(f_add, b).values, xi_inv(hi, m))
    assert np.array_equal(mglb_add(f_add, b).values, xi_inv(lo, m))
    assert np.array_equal(map_add(f_add, b).values, xi_inv(hi - lo, m))


def assert_dilate_erode(f, b):
    shape = f.shape
    plus = loop_reduce(shape, windows(f, b, sign=-1), lambda x, v: x + v, max, -np.inf)
    minus = loop_reduce(shape, windows(f, b), lambda x, v: x - v, min, np.inf)
    assert np.array_equal(dilate(f, b), plus)
    assert np.array_equal(erode(f, b), minus)


def images(rng, shape):
    return (
        GreyImage(rng.uniform(1.0, 255.0, size=shape), M),
        GreyImage(rng.uniform(-400.0, 250.0, size=shape), M),
    )


class TestLongRuns:
    @pytest.mark.parametrize("height", [1, 5, _STRIP - 1, _STRIP, _STRIP + 1, 2 * _STRIP + 2])
    @pytest.mark.parametrize("width", [5, 23])
    def test_power_of_two_runs(self, rng, height, width):
        # 65-cell rows: runs of 16 and 17 are wider than a 5- or 23-wide raster
        for holes in (False, True):
            values, mask, anchor = flat_probe(rng, 3, RUN_LENGTHS, 5.0, 250.0, holes)
            b = Probe(values, mask, anchor, M)
            assert_all_maps(*images(rng, (height, width)), b)

    @pytest.mark.parametrize("height", [_STRIP - 1, _STRIP, _STRIP + 1, 2 * _STRIP + 3])
    def test_probe_taller_than_strip(self, rng, height):
        values, mask, anchor = flat_probe(rng, _STRIP + 6, (1, 2, 3), 5.0, 250.0, holes=True)
        b = Probe(values, mask, anchor, M)
        assert_all_maps(*images(rng, (height, 7)), b)

    @pytest.mark.parametrize("radii", [(3, 1), (6, 3)])
    def test_ring_probes(self, rng, radii):
        ring = make_ring_probe(*radii)
        assert_all_maps(*images(rng, (_STRIP + 1, 19)), ring)

    def test_anchor_outside_mask(self, rng):
        # ring corners are outside the domain; anchor there so some windows are empty
        ring = make_ring_probe(6, 3)
        for anchor in ((0, 0), (12, 0), (0, 12), (12, 12)):
            b = Probe(ring.values, ring.mask, anchor, M)
            assert not b.mask[anchor]
            assert_all_maps(*images(rng, (9, 11)), b)

    def test_strips_below_the_probes_reach(self, rng):
        # every probe cell lies 99 or 100 rows below the off-mask anchor, so no
        # row of the raster is a source for the strips after the first
        values = rng.uniform(5.0, 250.0, size=(101, 4))
        values[100] = 40.0
        mask = np.zeros(values.shape, dtype=bool)
        mask[99:] = True
        b = Probe(values, mask, (0, 1), M)
        assert_all_maps(*images(rng, (2 * _STRIP + 3, 5)), b)

    def test_probe_larger_than_raster(self, rng):
        values, mask, anchor = flat_probe(rng, 9, RUN_LENGTHS, 5.0, 250.0, holes=True)
        b = Probe(values, mask, anchor, M)
        assert_all_maps(*images(rng, (4, 5)), b)
        assert_all_maps(*images(rng, (4, 5)), make_ring_probe(6, 3))


class TestDilateErodeRuns:
    @pytest.mark.parametrize("height", [1, _STRIP - 1, _STRIP, _STRIP + 1])
    def test_with_infinities(self, rng, height):
        for holes in (False, True):
            values, mask, anchor = flat_probe(rng, 4, RUN_LENGTHS, -20.0, 20.0, holes)
            b = Probe(values, mask, anchor, M)
            f = rng.uniform(-50.0, 50.0, size=(height, 13))
            f[rng.random(f.shape) < 0.1] = np.inf
            f[rng.random(f.shape) < 0.1] = -np.inf
            assert_dilate_erode(f, b)

    def test_infinite_runs_saturate(self):
        f = np.array([[0.0, -np.inf, -np.inf, -np.inf, 2.0, np.inf, np.inf, 1.0]])
        b = Probe(np.zeros((1, 4)), np.ones((1, 4), dtype=bool), (0, 1), M)
        assert_dilate_erode(f, b)

    def test_tall_probe(self, rng):
        values, mask, anchor = flat_probe(rng, _STRIP + 3, (1, 2, 4), -20.0, 20.0, holes=True)
        b = Probe(values, mask, anchor, M)
        assert_dilate_erode(rng.uniform(-50.0, 50.0, size=(_STRIP + 1, 6)), b)


class TestSharedValues:
    """Probes with 2 to 4 values: the runs of one value are reduced together, then subtracted once."""

    @pytest.mark.parametrize("n_values, height", [(2, _STRIP - 1), (3, _STRIP), (4, _STRIP + 1)])
    def test_few_values_many_runs(self, rng, n_values, height):
        levels = list(rng.uniform(5.0, 250.0, size=n_values))
        for holes in (False, True):
            values, mask, anchor = valued_probe(rng, 4, RUN_LENGTHS, levels, holes)
            b = Probe(values, mask, anchor, M)
            dy, _, n, v = probe_runs(b)
            # one value spans several runs in one row and runs in several rows,
            # and its runs read different table levels
            top = max(levels, key=lambda x: np.sum(v == x))
            assert np.sum((v == top) & (dy == dy[0])) >= 2 and len(set(dy[v == top])) >= 2
            assert len(set(np.frexp(n[v == top])[1])) >= 2
            assert_all_maps(*images(rng, (height, 13)), b)

    @pytest.mark.parametrize("height, width", [(9, 5), (_STRIP + 1, 23), (9, 40)])
    def test_group_opens_with_a_plain_slice(self, rng, height, width):
        # value a: runs 4 (a level-2 slice), then 9, 17 and 3 (a slice of each
        # length's chord-length table), 1; value c: runs 1 and 2 (level slices),
        # then 8 and 16, and 5 (a chord-length table)
        a, c = 40.0, 170.0
        rows = [((a, 4), (c, 1), (a, 9), (c, 2), (a, 17)), ((c, 8), (a, 3), (c, 16), (a, 1), (c, 5))]
        values = np.array([np.concatenate([np.full(n, v) for v, n in row]) for row in rows])
        for anchor in ((0, 0), (1, 16), (0, 32)):
            b = Probe(values, np.ones(values.shape, dtype=bool), anchor, M)
            assert_all_maps(*images(rng, (height, width)), b)

    def test_off_mask_anchor_with_holes(self, rng):
        values, mask, _ = valued_probe(rng, 3, RUN_LENGTHS, [30.0, 90.0, 200.0], holes=True)
        mask[1, 7] = False
        b = Probe(values, mask, (1, 7), M)
        assert_all_maps(*images(rng, (_STRIP, 11)), b)

    @pytest.mark.parametrize("height", [_STRIP - 1, _STRIP, _STRIP + 1])
    def test_dilate_erode_with_infinities(self, rng, height):
        values, mask, anchor = valued_probe(rng, 3, RUN_LENGTHS, [-7.5, 2.0, 11.0], holes=True)
        b = Probe(values, mask, anchor, M)
        f = rng.uniform(-50.0, 50.0, size=(height, 17))
        f[rng.random(f.shape) < 0.1] = np.inf
        f[rng.random(f.shape) < 0.1] = -np.inf
        assert_dilate_erode(f, b)

    def test_scratch_memory_independent_of_value_count(self, rng):
        # 64 runs of one geometry: 64 distinct values, then 2 alternating values
        lengths = (1, 2, 3, 4, 5, 8, 9, 16) * 2

        def probe(levels):
            values = np.array([np.repeat(levels[16 * r : 16 * r + 16], lengths) for r in range(4)])
            return Probe(values, np.ones(values.shape, dtype=bool), (1, 40), M)

        many = probe(5.0 + 3.0 * np.arange(64))
        two = probe(np.where(np.arange(64) % 2, 5.0, 9.0))
        assert len(set(probe_runs(many)[3])) == 64 and len(probe_runs(two)[0]) == 64
        f = rng.uniform(1.0, 255.0, size=(2 * _STRIP + 2, 200))

        def peak(b):
            tracemalloc.start()
            try:
                spread(f, b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # less than one more strip-sized accumulator for 62 more values
        assert peak(many) < peak(two) + _STRIP * f.shape[1] * f.itemsize
        assert_all_maps(*images(rng, (_STRIP + 1, 9)), many)


def mixed_probe(rng, rows, holes=False):
    """Rows of single cells with values of their own among runs of two shared values.

    Per row, value ``u`` sits on two separate cells (one value, two runs of
    length 1), so it is reduced like a shared value, not subtracted as a single
    cell.
    """
    s, t, u = rng.uniform(5.0, 250.0, size=3)
    values = []
    for _ in range(rows):
        one = iter(rng.uniform(5.0, 250.0, size=4))
        row = [(s, 4), (next(one), 1), (t, 9), (u, 1), (next(one), 1), (s, 2), (next(one), 1), (u, 1)]
        row += [(t, 17), (next(one), 1)]
        values.append(np.concatenate([np.full(n, v) for v, n in row]))
    return with_mask(rng, np.array(values), holes)


def single_cells(b):
    """``(single, runs)``: the probe's runs of one cell whose value no other run holds, and all its runs."""
    _, _, n, v = probe_runs(b)
    vals, counts = np.unique(v, return_counts=True)
    return int(np.sum((n == 1) & np.isin(v, vals[counts == 1]))), len(n)


def assert_one_side(f, b, hi, lo):
    """``spread`` asked for one side returns it as the loop does, and ``None`` for the other."""
    wins = windows(f, b)
    got = spread(f, b, hi=hi, lo=lo)
    for asked, side, pick, empty in ((hi, got[0], max, -np.inf), (lo, got[1], min, np.inf)):
        if asked:
            assert np.array_equal(side, loop_reduce(f.shape, wins, lambda x, v: x - v, pick, empty))
        else:
            assert side is None


class TestSingleCells:
    """Values held by one cell: one subtraction per strip, folded into both the max and the min."""

    @pytest.mark.parametrize("shape", [(5, 5), (1, 7), (7, 1)])
    @pytest.mark.parametrize("height", [1, _STRIP - 1, _STRIP, _STRIP + 1, 2 * _STRIP + 2])
    def test_run_free_probes(self, rng, shape, height):
        for holes in (False, True):
            values, mask, anchor = with_mask(rng, rng.uniform(5.0, 250.0, size=shape), holes)
            b = Probe(values, mask, anchor, M)
            single, runs = single_cells(b)
            assert single == runs == mask.sum()
            assert_all_maps(*images(rng, (height, 9)), b)

    @pytest.mark.parametrize("height", [_STRIP - 1, _STRIP, _STRIP + 1])
    def test_mixed_with_shared_values(self, rng, height):
        for holes in (False, True):
            b = Probe(*mixed_probe(rng, 3, holes), M)
            single, runs = single_cells(b)
            assert 3 <= single < runs
            assert_all_maps(*images(rng, (height, 13)), b)

    def test_cells_beyond_the_raster(self, rng):
        # a 9x11 probe on 3x4 rasters: some cells never reach the raster, some
        # reach it only from a border cell
        for anchor in ((0, 0), (4, 5), (8, 10), (8, 0)):
            b = Probe(rng.uniform(5.0, 250.0, size=(9, 11)), np.ones((9, 11), dtype=bool), anchor, M)
            assert_all_maps(*images(rng, (3, 4)), b)

    def test_run_clipped_to_one_cell(self, rng):
        # the 9-cell run at offsets -20..-12 reaches a 13-wide raster from one
        # column only, so after clipping its value sits on one cell
        values = np.concatenate([np.full(9, 40.0), rng.uniform(5.0, 250.0, size=12)])[None, :]
        b = Probe(values, np.ones(values.shape, dtype=bool), (0, 20), M)
        assert_all_maps(*images(rng, (_STRIP + 1, 13)), b)

    def test_off_mask_anchor(self, rng):
        for values, mask, _ in (with_mask(rng, rng.uniform(5.0, 250.0, size=(5, 7)), True), mixed_probe(rng, 2, True)):
            mask[1, 3] = False
            b = Probe(values, mask, (1, 3), M)
            assert_all_maps(*images(rng, (_STRIP + 1, 11)), b)

    @pytest.mark.parametrize("hi, lo", [(True, False), (False, True)])
    def test_one_side(self, rng, hi, lo):
        f = rng.uniform(-50.0, 50.0, size=(_STRIP + 1, 11))
        assert_one_side(f, Probe(*with_mask(rng, rng.uniform(-20.0, 20.0, size=(5, 5)), True), M), hi, lo)
        assert_one_side(f, Probe(*mixed_probe(rng, 2, True), M), hi, lo)

    @pytest.mark.parametrize("height", [_STRIP - 1, _STRIP, _STRIP + 1])
    def test_dilate_erode_with_infinities(self, rng, height):
        f = rng.uniform(-50.0, 50.0, size=(height, 17))
        f[rng.random(f.shape) < 0.1] = np.inf
        f[rng.random(f.shape) < 0.1] = -np.inf
        for shape in ((5, 5), (1, 7), (7, 1)):
            assert_dilate_erode(f, Probe(*with_mask(rng, rng.uniform(-20.0, 20.0, size=shape), True), M))
        values, mask, anchor = mixed_probe(rng, 3, holes=True)
        assert_dilate_erode(f, Probe(values - 120.0, mask, anchor, M))


class TestAdditiveAgainstLipDifference:
    """The additive maps, read through ``xi``, against the direct LIP difference ``(x - v)/(1 - v/m)``.

    The two differ by rounding only: within ``1e-12 * max(m, |value|)``,
    and exactly on the infinite markers and the ``m`` of an empty window or
    of an ``m`` cell.
    """

    @staticmethod
    def assert_close(got, want, m):
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        err = np.abs(got[finite] - want[finite])
        assert np.all(err <= 1e-12 * np.maximum(m, np.abs(want[finite])))

    @pytest.mark.parametrize("m", [1e-6, 1.0, 256.0, 65536.0, 1e200])
    def test_scales(self, rng, m):
        lip_diff = lambda x, v: (x - v) / (1.0 - v / m)

        def bounds(f, b):
            wins = windows(f, b)
            return loop_reduce(f.shape, wins, lip_diff, max, -np.inf), loop_reduce(f.shape, wins, lip_diff, min, np.inf)

        for _ in range(4):
            # uniform in [-m, m[, with cells log-uniform down to -m e^40
            f = rng.uniform(-m, m, size=(9, 11))
            far = rng.random(f.shape) < 0.3
            f[far] = -m * np.exp(rng.uniform(0.0, 40.0, size=far.sum()))
            values, mask, _ = with_mask(rng, rng.uniform(-m, m, size=(3, 4)), holes=True)
            mask[:, 3] = False  # no offset with dx >= 0: the first column's windows are empty
            b = Probe(values, mask, (1, 3), m)
            c1, c2 = bounds(f, b)
            empty = c2 == np.inf
            assert empty.any() and not empty.all()
            d = np.minimum(lip_diff(c1, np.where(empty, 0.0, c2)), np.nextafter(m, -np.inf))
            self.assert_close(map_add(GreyImage(f, m), b).values, d, m)
            # the bounds also take -inf cells and m cells, whose difference is m
            f[rng.random(f.shape) < 0.1] = -np.inf
            f[rng.random(f.shape) < 0.1] = m
            c1, c2 = bounds(f, b)
            self.assert_close(mlub_add(GreyImage(f, m), b).values, c1, m)
            self.assert_close(mglb_add(GreyImage(f, m), b).values, np.where(empty, m, c2), m)


class TestRunDecomposition:
    @pytest.mark.parametrize("radii, runs", [((6, 3), 27), ((15, 7), 61), ((30, 15), 123)])
    def test_ring_run_counts(self, radii, runs):
        # the counts the benchmark reports as asplund.probe_runs
        assert len(probe_runs(make_ring_probe(*radii))[0]) == runs

    def test_runs_cover_the_domain(self, rng):
        values, mask, anchor = flat_probe(rng, 5, RUN_LENGTHS, 5.0, 250.0, holes=True)
        b = Probe(values, mask, anchor, M)
        dy, dx, n, v = probe_runs(b)
        rebuilt = np.zeros(mask.shape, dtype=bool)
        for y, x, k, val in zip(dy, dx, n, v):
            cells = (anchor[0] + y, slice(anchor[1] + x, anchor[1] + x + k))
            assert not rebuilt[cells].any()
            assert np.all(b.values[cells] == val)
            rebuilt[cells] = True
        assert np.array_equal(rebuilt, mask)
        # maximal: touching runs on one row differ in value
        for i in range(1, len(dy)):
            if dy[i] == dy[i - 1] and dx[i] == dx[i - 1] + n[i - 1]:
                assert v[i] != v[i - 1]


def with_infinities(rng, shape):
    """Values in ``[-50, 50[`` with about a tenth of the cells ``+inf`` and a tenth ``-inf``."""
    f = rng.uniform(-50.0, 50.0, size=shape)
    f[rng.random(shape) < 0.1] = np.inf
    f[rng.random(shape) < 0.1] = -np.inf
    return f


class TestFlatLayout:
    """Edges of the flat table layout.

    :func:`spread` reads every table slice as one flat range at the table's
    row stride, padding columns included, and folds it into a padded
    accumulator of the same stride.  These cases put a range's end on the
    last valid column of its level, make the padding wider than the raster,
    and compute a last strip's rows past the raster (at ``_STRIP + 1`` rows,
    two strips of 33, the last with one row past it); every map must still
    match the loop.
    """

    def probes(self, rng):
        flat = Probe(*flat_probe(rng, 3, RUN_LENGTHS, 5.0, 250.0, holes=True), M)
        free = Probe(*with_mask(rng, rng.uniform(5.0, 250.0, size=(3, 3)), True), M)
        return [flat, free, Probe(*mixed_probe(rng, 2, True), M), make_ring_probe(3, 1)]

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("height", [1, 3, _STRIP + 1])
    def test_narrow_rasters(self, rng, width, height):
        for b in self.probes(rng):
            assert_all_maps(*images(rng, (height, width)), b)
            assert_dilate_erode(with_infinities(rng, (height, width)), b)

    @pytest.mark.parametrize("last", [1, 5, 8])
    @pytest.mark.parametrize("width", [1, 4, 9, 30])
    def test_run_ends_at_last_table_column(self, rng, last, width):
        # anchored at the top-left cell, the bottom probe row ends in a run of
        # `last` cells at the rightmost offset: its last slice (level 0, or the
        # second level-2 slice, or the one level-3 slice) ends at the last valid
        # column of its level on the table's last row
        values = rng.uniform(5.0, 250.0, size=(3, 6 + last))
        values[2, 6:] = 40.0
        values[0, 2:4] = 40.0  # the same value on another row: one group, not a single cell
        b = Probe(values, np.ones(values.shape, dtype=bool), (0, 0), M)
        dy, dx, n, _ = probe_runs(b)
        end, bottom = dx + n - 1, dy == dy.max()
        assert end[bottom][-1] == end.max() and n[bottom][-1] == last
        for height in (3, _STRIP + 1):
            assert_all_maps(*images(rng, (height, width)), b)
            assert_dilate_erode(with_infinities(rng, (height, width)), b)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 7), (8, 2)])
    def test_probe_wider_and_taller_than_raster(self, rng, shape):
        values, mask, anchor = flat_probe(rng, 9, RUN_LENGTHS, 5.0, 250.0, holes=True)
        for anchor in (anchor, (8, 64), (4, 30)):
            b = Probe(values, mask, anchor, M)
            assert_all_maps(*images(rng, shape), b)
            assert_dilate_erode(with_infinities(rng, shape), b)

    def test_last_strip_of_one_row(self, rng):
        tall = Probe(*flat_probe(rng, _STRIP + 6, (1, 2, 3), 5.0, 250.0, holes=True), M)
        for b in self.probes(rng) + [tall, make_ring_probe(6, 3)]:
            assert_all_maps(*images(rng, (_STRIP + 1, 7)), b)
            assert_dilate_erode(with_infinities(rng, (_STRIP + 1, 7)), b)

    @pytest.mark.parametrize("width", [1, 2, 9])
    def test_infinite_cells(self, rng, width):
        f = with_infinities(rng, (_STRIP + 1, width))
        for b in self.probes(rng):
            assert_dilate_erode(f, b)
            assert_one_side(f, b, True, False)
            assert_one_side(f, b, False, True)

    @pytest.mark.parametrize("width", [1, 2, 9])
    def test_off_mask_anchors(self, rng, width):
        ring = make_ring_probe(6, 3)
        mixed, mask, _ = mixed_probe(rng, 2, True)
        mask[1, 5] = False
        for b in (Probe(ring.values, ring.mask, (0, 12), M), Probe(mixed, mask, (1, 5), M)):
            assert not b.mask[b.anchor]
            assert_all_maps(*images(rng, (_STRIP + 1, width)), b)
            assert_dilate_erode(with_infinities(rng, (_STRIP + 1, width)), b)

    def test_memory_layout(self, rng):
        # a strided view and a Fortran-ordered array give the bytes of their C-ordered copy
        g = with_infinities(rng, (_STRIP + 3, 26))
        for b in self.probes(rng):
            for f in (g[:, ::2], np.asfortranarray(g[:, ::2])):
                want = spread(np.ascontiguousarray(f), b)
                assert all(x.tobytes() == y.tobytes() for x, y in zip(spread(f, b), want))

    @pytest.mark.parametrize("height", [9, _STRIP + 1, 2 * _STRIP + 2])
    @pytest.mark.parametrize("sides", [1, 2])
    def test_scratch_memory_bound(self, rng, sides, height):
        # the strip scratch and the outputs: strips of 9, 33 and 44 rows, a
        # table clipped to the ring's rows that reach the raster
        ring = make_ring_probe(30, 15)
        f = rng.uniform(1.0, 255.0, size=(height, 200))
        floats = scratch_floats(f.shape, ring, sides) + sides * f.size
        assert traced_peak(lambda: spread(f, ring, lo=sides == 2)) < floats * f.itemsize + 64 * 1024


def scratch_floats(shape, b, sides):
    """Floats of ``spread``'s strip scratch.

    The table, the ``H_L`` buffer (at most one table level), the accumulator
    and one padded block per side, for strips of ``n`` rows: the fewest
    strips of at most ``_STRIP`` rows, all of one height.  The table holds
    ``n`` rows plus the span of the probe's rows that reach the raster.
    """
    h = shape[0]
    n = -(-h // -(-h // _STRIP))
    y_lo, y_hi, _, width, groups = _chords(b, shape)
    top = max(k for lengths in groups.values() for k, *_ in lengths)
    return (top + 2) * (n + y_hi - y_lo) * width + (1 + sides) * n * width


class TestMapMemory:
    """A map call holds its output raster and the kernel's strip scratch, nothing more.

    The kernel applies ``T`` to each strip's rows of table level 0, and the
    map finishes each strip in the kernel's padded blocks and copies its rows
    into the one output raster, so no raster of ``T f``, ``hi`` or ``lo`` is
    made, and the full-overlap region is four integers.  The link maps hold their
    intermediate image besides, and the ratio reference ``tilde(f)``, both
    bounds and one block of quotient rows.
    """

    @staticmethod
    def peak(rng, call):
        f = GreyImage(rng.uniform(1.0, 255.0, size=(512, 512)), M)
        ring = make_ring_probe(6, 3)
        call(f, ring)  # numpy's first-call allocations stay out of the trace
        return traced_peak(lambda: call(f, ring)), f, ring

    @pytest.mark.parametrize(
        "call, rasters, sides",
        [
            (map_add, 1, 2),
            (map_mult, 1, 2),
            (mlub_add, 1, 1),
            (mglb_add, 1, 1),
            (mlub_mult, 1, 1),
            (mglb_mult, 1, 1),
            (map_mult_via_add, 2, 2),
            (map_add_via_mult, 2, 2),
        ],
        ids=[
            "map_add", "map_mult", "mlub_add", "mglb_add", "mlub_mult", "mglb_mult", "map_mult_via_add", "map_add_via_mult"
        ],
    )
    def test_peak_at_512(self, rng, call, rasters, sides):
        peak, f, ring = self.peak(rng, call)
        floats = rasters * f.values.size + scratch_floats(f.shape, ring, sides)
        assert peak < floats * f.values.itemsize + 64 * 1024

    @pytest.mark.parametrize("call, rasters", [(reference(map_mult), 3)], ids=["map_mult"])
    def test_ratio_peak_at_512(self, rng, call, rasters):
        # tilde(f), both bounds and one block of quotient rows; numpy buffers
        # its strided ufuncs in up to 192 KiB
        peak, f, _ = self.peak(rng, call)
        floats = rasters * f.values.size + _RATIO_ROWS * f.shape[1]
        assert peak < floats * f.values.itemsize + 256 * 1024


def offset_loop(f, b, pick, empty):
    """Window max or min of ``f(x + h) - b(h)``, one clipped raster pass per probe offset, zeros as ``+0.0``."""
    h, w = f.shape
    out = np.full(f.shape, empty)
    for dy, dx, v in zip(*b.offsets()):
        r0, r1 = max(0, -dy), min(h, h - dy)
        c0, c1 = max(0, -dx), min(w, w - dx)
        if r0 < r1 and c0 < c1:
            dst = out[r0:r1, c0:c1]
            pick(dst, f[r0 + dy : r1 + dy, c0 + dx : c1 + dx] - v, out=dst)
    return out + 0.0


class TestChordLengths:
    """Per value, runs grouped by clipped length: one table ``H_L`` per non-power-of-two length.

    The tables of one value share one buffer, so the first length's table
    must not be read after the next length rebuilds it.
    """

    @staticmethod
    def probe(rng):
        # 70 rows: taller than a strip.  Value 40 has four lone chords of
        # non-power-of-two lengths, so its first length (in any order) is one
        # lone chord followed by others; value 90 has length-5 chords 67 rows
        # apart and a length-4 chord; the 9-cell runs of value 170 reach past
        # the left and right borders of a 12-wide raster (offsets -15..-7 and
        # 6..14, clipped to -11..-7 and 6..11); the other cells are single
        values = rng.uniform(5.0, 250.0, size=(70, 30))
        mask = rng.random(values.shape) < 0.05
        for row, col, n, v in (
            (0, 4, 3, 40.0), (5, 6, 5, 40.0), (9, 10, 6, 40.0), (12, 18, 7, 40.0),
            (1, 8, 5, 90.0), (34, 5, 5, 90.0), (68, 20, 5, 90.0), (40, 12, 4, 90.0),
            (20, 0, 9, 170.0), (21, 21, 9, 170.0),
        ):
            values[row, col : col + n] = v
            mask[row, col : col + n] = True
        return Probe(values, mask, (35, 15), M)

    def test_groups(self, rng):
        b = self.probe(rng)
        _, _, _, width, groups = _chords(b, (_STRIP + 9, 12))

        def lengths(groups, v):
            return sorted((1 << k) + d for k, d, _, _ in groups[v])

        assert lengths(groups, 40.0) == [3, 5, 6, 7]
        assert all(d and len(rel) == 1 for _, d, _, rel in groups[40.0])
        assert lengths(groups, 90.0) == [4, 5]
        [far] = [rel for _, d, _, rel in groups[90.0] if d]
        assert len(far) == 3 and far[-1] > 60 * width
        assert lengths(groups, 170.0) == [5, 6]
        assert lengths(_chords(b, (_STRIP + 9, 40))[4], 170.0) == [9]  # unclipped

    @pytest.mark.parametrize("shape", [(_STRIP + 9, 12), (2 * _STRIP + 3, 12), (5, 31), (_STRIP, 40)])
    def test_against_offset_loop(self, rng, shape):
        b = self.probe(rng)
        for f in (rng.uniform(-50.0, 50.0, size=shape), with_infinities(rng, shape)):
            want = offset_loop(f, b, np.maximum, -np.inf), offset_loop(f, b, np.minimum, np.inf)
            for hi, lo in ((True, True), (True, False), (False, True)):
                got = spread(f, b, hi=hi, lo=lo)
                for asked, side, ref in zip((hi, lo), got, want):
                    assert side.tobytes() == ref.tobytes() if asked else side is None

    @pytest.mark.parametrize(
        "radii, runs, lengths, builds",
        [
            ((6, 3), (7, 20), (3, 5), (3, 4)),
            ((15, 7), (15, 46), (5, 12), (5, 11)),
            ((30, 15), (31, 92), (10, 19), (10, 18)),
        ],
    )
    def test_benchmark_rings(self, radii, runs, lengths, builds):
        # per value (disk, ring) on a 512x512 raster: runs, distinct lengths, and
        # the non-power-of-two lengths that each build a table per strip and side
        groups = _chords(make_ring_probe(*radii), (512, 512))[4]
        got = [
            (sum(len(rel) for *_, rel in groups[v]), len(groups[v]), sum(d > 0 for _, d, _, _ in groups[v]))
            for v in (4.0, 161.0)
        ]
        assert list(zip(*got)) == [runs, lengths, builds]


class TestZeroSign:
    """A zero result is ``+0.0``, whatever order the folds meet ``-0.0 == 0.0`` ties in."""

    @staticmethod
    def assert_no_negative_zero(*arrays):
        for a in arrays:
            if a is not None:
                assert not np.any(np.signbit(a) & (a == 0))

    @pytest.mark.parametrize("shape", [(1, 9), (5, 5), (_STRIP + 1, 7)])
    def test_signed_zero_inputs(self, rng, shape):
        for _ in range(8):
            f = rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)
            b = Probe(*with_mask(rng, rng.choice([0.0, -0.0, 1.0], size=(3, 4)), True), M)
            for hi, lo in ((True, True), (True, False), (False, True)):
                self.assert_no_negative_zero(*spread(f, b, hi=hi, lo=lo))
            self.assert_no_negative_zero(dilate(f, b), erode(f, b))
            image = GreyImage(f, M)
            for call in (map_add, mlub_add, mglb_add):
                self.assert_no_negative_zero(call(image, b).values)
            # the multiplicative maps need a strict probe; map_mult a strict image,
            # whose zeros come from windows whose max and min meet, while the bound
            # maps admit the edge value 0 and its sign, which hat sends to -inf
            strict = b.with_values(np.where(b.values > 0, 100.0, 200.0))
            g = GreyImage(np.where(f > 0, 100.0, 200.0), M)
            self.assert_no_negative_zero(map_mult(g, strict).values)
            edges = GreyImage(np.where(f > 0, 100.0, np.where(f < 0, 200.0, f)), M)
            for call in (mlub_mult, mglb_mult):
                self.assert_no_negative_zero(call(edges, strict).values)


def two_step(name, f, b):
    """Map ``name`` as two full-raster steps: :func:`spread` of ``T f`` by ``T b``, then the finish on whole rasters."""
    m = f.m
    t = hat if name.endswith("mult") else xi
    hi, lo = spread(t(f.values, m), b.with_values(t(b.values, m)))

    def exp(side):
        with np.errstate(over="ignore"):
            return np.exp(side)

    finish = {
        "map_mult": lambda: hi - lo,
        "mlub_mult": lambda: exp(hi),
        "mglb_mult": lambda: exp(lo),
        "map_add": lambda: np.minimum(xi_inv(hi - lo, m), np.nextafter(m, -np.inf)),
        "mlub_add": lambda: xi_inv(hi, m),
        "mglb_add": lambda: xi_inv(lo, m),
    }
    return finish[name]()


STREAMED = {
    "map_mult": map_mult,
    "mlub_mult": mlub_mult,
    "mglb_mult": mglb_mult,
    "map_add": map_add,
    "mlub_add": mlub_add,
    "mglb_add": mglb_add,
}


@pytest.mark.filterwarnings("error")
class TestStreamedMaps:
    """Every map streamed through the kernel equals the two-step reference, bit for bit.

    The maps apply ``T`` to each strip of table level 0 and finish each strip
    into the output; the reference transforms whole rasters, calls
    :func:`spread` and finishes whole rasters.  Heights cover one row, one
    full strip, two strips of 33 rows, three of 43, and three of 44 whose
    last one computes two rows past the raster; the images carry
    the cells ``T`` sends to ``-inf`` or ``+inf`` (``hat(0)``, ``hat(m)``,
    ``xi(-inf)``, ``xi(m)``) where a map's regime admits them.
    """

    @staticmethod
    def images(rng, shape, m):
        """``{map family: images}``, each image kind in the regime of the maps it is run through."""
        strict = rng.uniform(0.001, 0.999, size=shape) * m
        edges = strict.copy()
        edges.flat[rng.choice(edges.size, size=4, replace=False)] = [0.0, m, 0.0, m]
        below = rng.uniform(-3.0, 0.999, size=shape) * m
        below.flat[0] = -1e3 * m
        closure = below.copy()
        closure.flat[rng.choice(closure.size, size=2, replace=False)] = [-np.inf, m]
        strict, edges, below, closure = (GreyImage(v, m) for v in (strict, edges, below, closure))
        return {
            "map_mult": [strict],
            "mlub_mult": [strict, edges],
            "mglb_mult": [strict, edges],
            "map_add": [strict, below],
            "mlub_add": [below, closure],
            "mglb_add": [below, closure],
        }

    @staticmethod
    def probes(rng, h, m):
        """Rings, runs among single cells, empty windows, no reach, reach beyond one strip, a first value with empty windows."""
        def probe(values, mask, anchor):
            return Probe(np.asarray(values, dtype=float) / 256.0 * m, mask, anchor, m)

        ring = make_ring_probe(6, 3)
        mixed, mask, anchor = mixed_probe(rng, 3, holes=True)
        one = np.ones((1, 1), dtype=bool)
        # anchors off the mask: the windows of the last columns, or the last rows, are empty
        right = np.array([[False, False, True]])
        corner = np.zeros((3, 3), dtype=bool)
        corner[2, 2] = True
        # a probe whose only row lies h + 2 rows below its anchor reaches no cell
        none = np.zeros((h + 3, 1), dtype=bool)
        none[-1] = True
        # only far below or far above: some strips have an empty table
        below = np.zeros((_STRIP + 8, 2), dtype=bool)
        below[-1] = True
        tall = rng.random((2 * _STRIP + 6, 3)) < 0.1
        tall[[0, -1], 1] = True
        # the smallest value, the first in the kernel's order, lies two cells right of
        # the anchor, whose value covers the last two columns: each side starts NaN
        # there, and a later value must replace it.  Single-cell values, then runs of two
        cells, pairs = np.ones((1, 3), dtype=bool), np.ones((2, 4), dtype=bool)
        return [
            probe(ring.values, ring.mask, ring.anchor),
            probe(mixed, mask, anchor),
            probe([[100.0]], one, (0, 0)),
            probe(rng.uniform(5.0, 250.0, size=(1, 3)), right, (0, 0)),
            probe(rng.uniform(5.0, 250.0, size=(3, 3)), corner, (0, 0)),
            probe(np.full(none.shape, 50.0), none, (0, 0)),
            probe(np.full(below.shape, 70.0), below, (0, 0)),
            probe(np.full(below.shape, 70.0), below[::-1], (below.shape[0] - 1, 1)),
            probe(rng.uniform(5.0, 250.0, size=tall.shape), tall, (_STRIP + 3, 1)),
            probe([[200.0, 120.0, 10.0]], cells, (0, 0)),
            probe([[200.0, 200.0, 10.0, 10.0], [120.0, 120.0, 10.0, 10.0]], pairs, (0, 0)),
        ]

    @pytest.mark.parametrize("m", [1e-6, 1.0, 256.0, 65536.0, 1e200])
    @pytest.mark.parametrize("height", [1, _STRIP, _STRIP + 1, 2 * _STRIP + 1, 2 * _STRIP + 2])
    def test_against_two_steps(self, rng, m, height):
        families = self.images(rng, (height, 9), m)
        for b in self.probes(rng, height, m):
            for name, call in STREAMED.items():
                for f in families[name]:
                    got = call(f, b).values
                    assert got.tobytes() == two_step(name, f, b).tobytes(), (name, b.shape, b.anchor)

    @pytest.mark.parametrize("reach", [_STRIP + 7, -(_STRIP + 7), 2 * _STRIP + 2])
    def test_strips_with_empty_tables(self, rng, reach):
        # a probe reaching only far below (or above) leaves the last (or first)
        # strips of 50 rows without a source row: they fold only NaN, which the
        # off-anchor pass turns into the neutral, and every strip after the
        # first moves rows up from the one before
        rows = abs(reach) + 1
        mask = np.zeros((rows, 3), dtype=bool)
        mask[-1 if reach > 0 else 0] = True
        b = Probe(rng.uniform(5.0, 250.0, size=(rows, 3)), mask, (0 if reach > 0 else rows - 1, 1), M)
        for f in (rng.uniform(-50.0, 50.0, size=(3 * _STRIP + 5, 6)), with_infinities(rng, (3 * _STRIP + 5, 6))):
            hi, lo = spread(f, b)
            assert hi.tobytes() == offset_loop(f, b, np.maximum, -np.inf).tobytes()
            assert lo.tobytes() == offset_loop(f, b, np.minimum, np.inf).tobytes()
