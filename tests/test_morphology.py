"""Dilation/erosion with clipped windows: examples, adjunction, lattice laws."""

import re

import numpy as np
import pytest

from lipmaps import DimensionError, DomainError, Probe, map_add, mglb_add, morphology
from lipmaps.morphology import dilate, erode, full_overlap_rect, reflect, spread

from conftest import M, full_probe, grey


def random_probe_any_mask(rng, h, w):
    """Random values and a random (non-empty) mask; anchor may be unmasked."""
    mask = rng.random((h, w)) < 0.6
    if not mask.any():
        mask[h // 2, w // 2] = True
    values = rng.uniform(-20.0, 20.0, size=(h, w))
    anchor = (int(rng.integers(h)), int(rng.integers(w)))
    return Probe(values, mask, anchor)


class TestHandEnumerated:
    def test_dilate_1x3_flat(self):
        f = np.array([[1.0, 2.0, 3.0]])
        b = full_probe(np.zeros((1, 3)))
        assert dilate(f, b).tolist() == [[2.0, 3.0, 3.0]]

    def test_erode_1x3_flat(self):
        f = np.array([[1.0, 2.0, 3.0]])
        b = full_probe(np.zeros((1, 3)))
        assert erode(f, b).tolist() == [[1.0, 1.0, 2.0]]

    def test_single_zero_cell_is_identity(self, rng):
        f = rng.uniform(-5, 5, size=(6, 7))
        b = full_probe([[0.0]])
        assert np.array_equal(dilate(f, b), f)
        assert np.array_equal(erode(f, b), f)

    def test_flat_probe_on_constant(self):
        f = np.full((5, 5), 3.25)
        b = full_probe(np.zeros((3, 3)))
        assert np.all(dilate(f, b) == 3.25)
        assert np.all(erode(f, b) == 3.25)

    def test_empty_clipped_window(self):
        # probe strictly to the right of the anchor; dilation looks left
        # (f(x-h)), erosion looks right (f(x+h))
        f = np.array([[1.0, 2.0]])
        b = Probe([[0.0, 5.0]], [[False, True]], (0, 0))
        assert dilate(f, b).tolist() == [[-np.inf, 6.0]]
        assert erode(f, b).tolist() == [[-3.0, np.inf]]

    def test_infinities_saturate(self):
        f = np.array([[-np.inf, 0.0, np.inf]])
        b = full_probe(np.zeros((1, 3)))
        assert dilate(f, b).tolist() == [[0.0, np.inf, np.inf]]
        assert erode(f, b).tolist() == [[-np.inf, -np.inf, 0.0]]

    @pytest.mark.parametrize("op", [dilate, erode])
    def test_nan_cell_rejected(self, op):
        # a NaN would otherwise fill the 3x3 block of output cells whose window reads it
        f = np.zeros((4, 4))
        f[3, 0] = f[1, 2] = np.nan
        with pytest.raises(DomainError, match=r"NaN at cell \(1, 2\)"):
            op(f, full_probe(np.ones((3, 3))))


class TestRasterShape:
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    @pytest.mark.parametrize("op", [dilate, erode, spread])
    def test_not_two_d_names_the_shape(self, op, shape):
        with pytest.raises(DimensionError, match=re.escape(f"got shape {shape}")):
            op(np.zeros(shape), full_probe(np.ones((3, 3))))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_rasters_give_empty_outputs(self, shape):
        f, b = np.zeros(shape), full_probe(np.ones((3, 3)))
        for out in (dilate(f, b), erode(f, b), *spread(f, b)):
            assert out.shape == shape

    def test_no_side_runs_no_kernel(self, rng, monkeypatch):
        def kernel(*args, **kwargs):
            raise AssertionError("the strip loop ran")

        monkeypatch.setattr(morphology, "_stream", kernel)
        assert spread(rng.uniform(-5, 5, size=(6, 7)), full_probe(np.ones((3, 3))), hi=False, lo=False) == (None, None)


class TestReflect:
    def test_symmetric_probe_fixed(self):
        b = full_probe([[1.0, 2.0, 1.0]])
        rb = reflect(b)
        assert np.array_equal(rb.values, b.values)
        assert np.array_equal(rb.mask, b.mask)
        assert rb.anchor == b.anchor

    def test_offsets_negated(self):
        b = Probe([[4.0, 161.0]], [[True, True]], (0, 0))  # offsets {0, +1}
        rb = reflect(b)
        dys, dxs, vals = rb.offsets()
        assert list(zip(dys, dxs, vals)) == [(0, -1, 161.0), (0, 0, 4.0)]

    def test_involution(self, rng):
        for _ in range(20):
            b = random_probe_any_mask(rng, 3, 4)
            rrb = reflect(reflect(b))
            assert np.array_equal(rrb.values, b.values)
            assert np.array_equal(rrb.mask, b.mask)
            assert rrb.anchor == b.anchor


class TestAdjunction:
    def test_dilation_of_g_is_minimal_f(self, rng):
        # delta(g) <= f  <=>  g <= eps(f); both directions, 120 instances
        for _ in range(120):
            g = rng.uniform(-10, 10, size=(8, 8))
            f = rng.uniform(-10, 10, size=(8, 8))
            b = random_probe_any_mask(rng, 3, 3)
            lhs = bool(np.all(dilate(g, b) <= f))
            rhs = bool(np.all(g <= erode(f, b)))
            assert lhs == rhs

    def test_canonical_pairs(self, rng):
        for _ in range(40):
            g = rng.uniform(-10, 10, size=(6, 6))
            b = random_probe_any_mask(rng, 3, 3)
            f = dilate(g, b)
            cov = np.isfinite(f)
            # closure: g <= erode(dilate(g)) wherever defined
            assert np.all(g[cov] <= erode(f, b)[cov] + 1e-12)


class TestLatticeLaws:
    def test_dilate_distributes_over_max(self, rng):
        for _ in range(120):
            f = rng.uniform(-10, 10, size=(8, 8))
            g = rng.uniform(-10, 10, size=(8, 8))
            b = random_probe_any_mask(rng, 3, 3)
            lhs = dilate(np.maximum(f, g), b)
            rhs = np.maximum(dilate(f, b), dilate(g, b))
            assert np.array_equal(lhs, rhs)

    def test_erode_distributes_over_min(self, rng):
        for _ in range(120):
            f = rng.uniform(-10, 10, size=(8, 8))
            g = rng.uniform(-10, 10, size=(8, 8))
            b = random_probe_any_mask(rng, 3, 3)
            lhs = erode(np.minimum(f, g), b)
            rhs = np.minimum(erode(f, b), erode(g, b))
            assert np.array_equal(lhs, rhs)


class TestTranslationEquivariance:
    def test_shifted_embeddings_agree(self, rng):
        # paste the same block at two offsets; outputs agree wherever the
        # probe window stays inside the block
        block = rng.uniform(-5, 5, size=(6, 6))
        b = random_probe_any_mask(rng, 3, 3)
        dys, dxs, _ = b.offsets()
        my0, my1 = -int(dys.min()), int(dys.max())
        mx0, mx1 = -int(dxs.min()), int(dxs.max())
        big1 = np.zeros((16, 16))
        big2 = np.zeros((16, 16))
        big1[2 : 2 + 6, 3 : 3 + 6] = block
        big2[7 : 7 + 6, 5 : 5 + 6] = block
        for op in (dilate, erode):
            o1, o2 = op(big1, b), op(big2, b)
            # interior of the block where the window cannot leave it
            r0, r1 = max(my0, my1), 6 - max(my0, my1)
            c0, c1 = max(mx0, mx1), 6 - max(mx0, mx1)
            if r0 >= r1 or c0 >= c1:
                continue
            a = o1[2 + r0 : 2 + r1, 3 + c0 : 3 + c1]
            c = o2[7 + r0 : 7 + r1, 5 + c0 : 5 + c1]
            assert np.array_equal(a, c)


class TestReferenceScan:
    """The vectorised operators must match the literal per-cell loop bit for bit."""

    @staticmethod
    def loop_dilate(f, b):
        h, w = f.shape
        dys, dxs, vals = b.offsets()
        out = np.full((h, w), -np.inf)
        for r in range(h):
            for c in range(w):
                best = -np.inf
                for dy, dx, v in zip(dys, dxs, vals):
                    rr, cc = r - dy, c - dx
                    if 0 <= rr < h and 0 <= cc < w:
                        best = max(best, f[rr, cc] + v)
                out[r, c] = best
        return out

    @staticmethod
    def loop_erode(f, b):
        h, w = f.shape
        dys, dxs, vals = b.offsets()
        out = np.full((h, w), np.inf)
        for r in range(h):
            for c in range(w):
                best = np.inf
                for dy, dx, v in zip(dys, dxs, vals):
                    rr, cc = r + dy, c + dx
                    if 0 <= rr < h and 0 <= cc < w:
                        best = min(best, f[rr, cc] - v)
                out[r, c] = best
        return out

    def test_bit_identical_to_loop(self, rng):
        for _ in range(25):
            f = rng.uniform(-50, 50, size=(7, 9))
            b = random_probe_any_mask(rng, 3, 4)
            assert np.array_equal(dilate(f, b), self.loop_dilate(f, b))
            assert np.array_equal(erode(f, b), self.loop_erode(f, b))

    def test_bit_identical_with_infinities(self, rng):
        f = rng.uniform(-50, 50, size=(6, 6))
        f[0, 0], f[3, 4] = -np.inf, np.inf
        b = random_probe_any_mask(rng, 3, 3)
        assert np.array_equal(dilate(f, b), self.loop_dilate(f, b))
        assert np.array_equal(erode(f, b), self.loop_erode(f, b))


class TestMasks:
    def test_full_overlap_centre_anchor(self):
        b = full_probe(np.zeros((3, 3)))
        assert full_overlap_rect((4, 5), b) == (1, 3, 1, 4)

    def test_full_overlap_empty_when_probe_too_big(self):
        b = full_probe(np.zeros((5, 5)))
        assert full_overlap_rect((3, 3), b) == (0, 0, 0, 0)

    @staticmethod
    def covered(shape, b):
        """Cells with a non-empty window: neither ``map_add`` -inf nor ``mglb_add`` m there."""
        f = grey(np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))
        empty = map_add(f, b).values == -np.inf
        assert np.array_equal(mglb_add(f, b).values == M, empty)
        return ~empty

    def test_covered_all_with_masked_anchor(self):
        b = full_probe(np.zeros((3, 3)))
        assert self.covered((4, 4), b).all()

    def test_covered_with_offset_probe(self):
        b = Probe([[0.0, 1.0]], [[False, True]], (0, 0))
        cov = self.covered((1, 3), b)
        assert cov.tolist() == [[True, True, False]]
