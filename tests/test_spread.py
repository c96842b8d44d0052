"""The run-length sliding kernel against literal per-cell loops, on probes with long runs.

Random probes have no two equal neighbours, so every run has length 1 and
the log-step tables of :func:`lipmaps.morphology.spread` are never built.
The probes here are piecewise flat: runs of length ``2**k`` and ``2**k + 1``
(a table level read as one slice, and as two overlapping slices), runs wider
than the raster, rings, probes taller than one row strip, anchors outside
the mask.  Every map must match the loop below bit for bit; the loop reads
the raster one cell at a time and does not go through the kernel.
"""

import numpy as np
import pytest

from lipmaps import GreyImage, Probe, make_ring_probe, map_add, map_mult, mglb_add, mlub_add
from lipmaps.lip import hat, lip_sub
from lipmaps.morphology import _STRIP, covered_mask, dilate, erode, probe_runs

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
    values = np.array(values)
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

    wins = windows(f_add.values, b)
    lip_diff = lambda x, v: (x - v) / (1.0 - v / m)
    c1 = loop_reduce(shape, wins, lip_diff, max, -np.inf)
    c2 = loop_reduce(shape, wins, lip_diff, min, np.inf)
    cov = np.array([[bool(wins[r, c]) for c in range(shape[1])] for r in range(shape[0])])
    assert np.array_equal(covered_mask(shape, b), cov)
    assert np.array_equal(mlub_add(f_add, b).values, c1)
    assert np.array_equal(mglb_add(f_add, b).values, np.where(cov, c2, m))
    expect = np.full(shape, -np.inf)
    expect[cov] = lip_sub(c1[cov], c2[cov], m)
    assert np.array_equal(map_add(f_add, b).values, expect)


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
