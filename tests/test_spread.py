"""The run-length sliding kernel against literal per-cell loops.

Random probes have no two equal neighbours, so every run has length 1 and
:func:`lipmaps.morphology.spread` reads only table level 0, the padded image,
which it builds once per strip for both sides; each of those single-cell
values gets one subtraction, folded into both the max and the min.  The
other probes here are piecewise flat: runs of length ``2**k`` and
``2**k + 1`` (a table level read as one slice, and as two overlapping
slices), runs wider than the raster, rings, probes taller than one row
strip, anchors outside the mask, a few values shared by many runs, which the
kernel reduces together before one subtraction, and single cells mixed in
among such runs.  Every map must match the loop below bit for bit; the loop
reads the raster one cell at a time and does not go through the kernel.
"""

import tracemalloc

import numpy as np
import pytest

from lipmaps import GreyImage, Probe, make_ring_probe, map_add, map_mult, mglb_add, mlub_add
from lipmaps.lip import hat, xi, xi_inv
from lipmaps.morphology import _STRIP, dilate, erode, probe_runs, spread

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
    assert np.array_equal(map_mult(f_mult, b, path="morpho").values, hi - lo)

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
    @pytest.mark.parametrize("height", [1, 5, _STRIP - 1, _STRIP, _STRIP + 1])
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
        # row of the raster is a source for the strips from row _STRIP down
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
        # value a: runs 4 (level 2, one slice), then 9 and 17 (two slices), 3, 1;
        # value c: runs 1 and 2 (one slice each), then 8 and 16
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
    @pytest.mark.parametrize("height", [1, _STRIP - 1, _STRIP, _STRIP + 1])
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
