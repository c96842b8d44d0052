"""Lighting simulation, ring probes, target planting, and minima detection."""

import numpy as np
import pytest

from lipmaps import (
    Detection,
    DomainError,
    FmMap,
    darken,
    detect_minima,
    lip_add,
    make_canvas,
    make_ring_probe,
    map_add,
    map_mult,
    plant_target,
    lip_mult,
    random_image,
    random_probe,
)
from lipmaps.morphology import reflect

from conftest import M, grey


class TestDarken:
    def test_zero_is_identity(self, rng):
        f = grey(rng.uniform(10, 240, (4, 4)))
        out = darken(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_documented_value(self):
        out = darken(grey([[100.0]]), 200.0)
        assert out.values[0, 0] == 221.875

    def test_composes_through_lip_addition(self, rng):
        f = grey(rng.uniform(0, 200, (4, 4)))
        k1, k2 = 60.0, 110.0
        a = darken(darken(f, k1), k2).values
        b = darken(f, lip_add(k1, k2)).values
        assert np.max(np.abs(a - b)) <= 1e-12 * M

    def test_constant_range_checked(self):
        f = grey([[10.0]])
        with pytest.raises(DomainError):
            darken(f, 256.0)
        with pytest.raises(DomainError):
            darken(f, -1.0)


class TestRingProbe:
    def test_centre_is_disk_value(self):
        p = make_ring_probe(2, 1)
        assert p.values[2, 2] == 4.0
        assert p.m == M

    def test_default_values(self):
        p = make_ring_probe(3, 1)
        vals = set(p.values[p.mask].tolist())
        assert vals == {4.0, 161.0}

    def test_mask_is_rounded_disk(self):
        for outer, inner in ((2, 1), (5, 2), (9, 4)):
            p = make_ring_probe(outer, inner)
            side = 2 * outer + 1
            count = 0
            for r in range(side):
                for c in range(side):
                    d = round(np.hypot(r - outer, c - outer))
                    inside = d <= outer
                    assert p.mask[r, c] == inside
                    count += inside
                    if inside:
                        expect = 4.0 if d <= inner else 161.0
                        assert p.values[r, c] == expect
            assert p.mask.sum() == count

    def test_symmetric_under_reflect(self):
        p = make_ring_probe(4, 2)
        rp = reflect(p)
        assert np.array_equal(rp.values, p.values)
        assert np.array_equal(rp.mask, p.mask)
        assert rp.anchor == p.anchor

    def test_radius_ordering(self):
        with pytest.raises(DomainError):
            make_ring_probe(2, 2)
        with pytest.raises(DomainError):
            make_ring_probe(1, 0)

    def test_value_range(self):
        with pytest.raises(DomainError):
            make_ring_probe(2, 1, ring_value=256.0)

    @pytest.mark.parametrize("radii", [(6.7, 3.2), (6, 3.0), ("6", 3)], ids=["floats", "float-inner", "str"])
    def test_radii_must_be_integers(self, radii):
        # int() built the radius-6 ring from (6.7, 3.2)
        with pytest.raises(DomainError) as exc:
            make_ring_probe(*radii)
        assert str(exc.value) == f"ring radii must be two integers, got {radii!r}"
        assert make_ring_probe(np.int64(6), np.int32(3)).shape == (13, 13)


SIZE_CASES = pytest.mark.parametrize(
    "size, what",
    [((2.5, 3), "two integers"), (("4", 3), "two integers"), ((-1, 5), "non-negative"), ((3, -1), "non-negative")],
    ids=["float", "str", "negative-height", "negative-width"],
)


class TestCanvas:
    def test_deterministic(self):
        a = make_canvas(8, 8, seed=5)
        b = make_canvas(8, 8, seed=5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, make_canvas(8, 8, seed=6).values)

    def test_noise_band(self):
        c = make_canvas(16, 16, background=128.0, noise=10.0, seed=1)
        assert np.all(c.values >= 118.0) and np.all(c.values <= 138.0)

    def test_noiseless(self):
        c = make_canvas(4, 4, background=77.0, noise=0.0)
        assert np.all(c.values == 77.0)

    @SIZE_CASES
    def test_size_must_be_non_negative_integers(self, size, what):
        with pytest.raises(DomainError) as exc:
            make_canvas(*size)
        assert str(exc.value) == f"raster size must be {what}, got {size!r}"

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -1.0, 1e308])
    def test_noise_must_be_non_negative_with_a_finite_range(self, noise):
        with pytest.raises(DomainError, match="noise must be non-negative with 2 \\* noise finite"):
            make_canvas(4, 4, noise=noise)


class TestRandomRasters:
    @SIZE_CASES
    def test_image_size_must_be_non_negative_integers(self, size, what):
        with pytest.raises(DomainError) as exc:
            random_image(*size, np.random.default_rng(0))
        assert str(exc.value) == f"raster size must be {what}, got {size!r}"

    @SIZE_CASES
    def test_probe_size_must_be_non_negative_integers(self, size, what):
        with pytest.raises(DomainError) as exc:
            random_probe(*size, np.random.default_rng(0))
        assert str(exc.value) == f"raster size must be {what}, got {size!r}"

    @pytest.mark.parametrize("make", [random_image, random_probe])
    @pytest.mark.parametrize("low", [np.nan, np.inf, -np.inf])
    def test_low_must_be_finite(self, make, low):
        with pytest.raises(DomainError, match="low must be finite"):
            make(3, 3, np.random.default_rng(0), low=low)

    @pytest.mark.parametrize("make", [random_image, random_probe])
    @pytest.mark.parametrize("high", [np.nan, np.inf, -np.inf])
    def test_high_must_be_finite(self, make, high):
        with pytest.raises(DomainError, match="high must be finite"):
            make(3, 3, np.random.default_rng(0), high=high)

    @pytest.mark.parametrize("make", [random_image, random_probe])
    @pytest.mark.parametrize("low, high", [(200.0, 100.0), (-1e308, 1e308)])
    def test_low_and_high_must_span_a_finite_range(self, make, low, high):
        with pytest.raises(DomainError, match="need low <= high with high - low finite"):
            make(3, 3, np.random.default_rng(0), low=low, high=high)

    @pytest.mark.parametrize("make", [random_image, random_probe])
    def test_equal_bounds_give_that_value(self, make):
        out = make(3, 3, np.random.default_rng(0), low=50.0, high=50.0)
        assert np.all(out.values == 50.0)


class TestPlantTarget:
    def test_plant_then_map_add_zero_at_anchor(self):
        canvas = make_canvas(20, 20, seed=3)
        probe = make_ring_probe(3, 1)
        scene = plant_target(canvas, probe, (10, 10))
        out = map_add(scene, probe)
        assert out.values[10, 10] == 0.0

    def test_plant_with_additive_lighting_still_zero(self):
        canvas = make_canvas(20, 20, seed=3)
        probe = make_ring_probe(3, 1)
        scene = plant_target(
            canvas, probe, (10, 10), transform=lambda v: lip_add(v, 50.0)
        )
        assert map_add(scene, probe).values[10, 10] <= 1e-9 * M

    def test_plant_with_multiplicative_lighting_still_zero(self):
        canvas = make_canvas(20, 20, seed=3)
        probe = make_ring_probe(3, 1)
        scene = plant_target(
            canvas, probe, (10, 10), transform=lambda v: lip_mult(2.0, v)
        )
        assert map_mult(scene, probe).values[10, 10] <= 1e-9

    def test_only_masked_cells_written(self):
        canvas = make_canvas(9, 9, seed=0, noise=0.0, background=50.0)
        probe = make_ring_probe(2, 1)
        scene = plant_target(canvas, probe, (4, 4))
        assert scene.values[4 - 2, 4 - 2] == 50.0  # corner outside the disk

    def test_footprint_bounds(self):
        canvas = make_canvas(8, 8, seed=0)
        probe = make_ring_probe(3, 1)
        with pytest.raises(DomainError):
            plant_target(canvas, probe, (1, 4))

    @pytest.mark.parametrize("at", [(5.5, 5), ("5", 5), (5, 5, 5), 5], ids=["float", "str", "three", "int"])
    def test_position_must_be_two_integers(self, at):
        # int() planted (5.5, 5) at row 5
        canvas = make_canvas(12, 12, seed=0)
        with pytest.raises(DomainError) as exc:
            plant_target(canvas, make_ring_probe(2, 1), at)
        assert str(exc.value) == f"target position must be two integers, got {at!r}"


class TestDetectMinima:
    def map_with(self, values, full=None):
        return FmMap(np.asarray(values, dtype=np.float64), full)

    def test_planted_detection_unique(self):
        canvas = make_canvas(24, 24, seed=9)
        probe = make_ring_probe(3, 1)
        scene = plant_target(canvas, probe, (12, 12))
        hits = detect_minima(map_add(scene, probe), 1e-6)
        assert [(d.row, d.col) for d in hits] == [(12, 12)]
        assert hits[0].value == 0.0 and hits[0].threshold == 1e-6

    def test_threshold_below_minimum_gives_empty(self):
        out = self.map_with([[1.0, 2.0]])
        assert detect_minima(out, 0.5) == []

    def test_infinite_threshold_returns_all_full_overlap(self):
        # rows 1..2, columns 1..2: the hits are placed back at their map cells
        out = self.map_with([[0.0, 0.0, 0.0], [0.0, 4.0, 3.0], [0.0, 2.0, 1.0]], (1, 3, 1, 3))
        hits = detect_minima(out, np.inf)
        assert [(d.row, d.col, d.value) for d in hits] == [(2, 2, 1.0), (2, 1, 2.0), (1, 2, 3.0), (1, 1, 4.0)]
        assert all(isinstance(d, Detection) for d in hits)

    def test_empty_full_rect_gives_empty(self):
        out = self.map_with([[0.0, 1.0]], (1, 1, 0, 2))
        assert out.full_rect == (0, 0, 0, 0)
        assert detect_minima(out, np.inf) == []

    def test_nan_threshold_rejected(self):
        with pytest.raises(DomainError, match="threshold must not be NaN"):
            detect_minima(self.map_with([[1.0, 2.0]]), np.nan)

    def test_sorted_by_value_then_row_major(self):
        out = self.map_with([[2.0, 1.0], [1.0, 0.5]])
        hits = detect_minima(out, 2.0)
        assert [(d.row, d.col, d.value) for d in hits] == [
            (1, 1, 0.5),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (0, 0, 2.0),
        ]

    def test_stability_under_darkening(self):
        canvas = make_canvas(32, 32, seed=4)
        probe = make_ring_probe(3, 1)
        scene = plant_target(canvas, probe, (16, 16))
        t = 1e-3 * M
        base = detect_minima(map_add(scene, probe), t)
        dark = detect_minima(map_add(darken(scene, 200.0), probe), t)
        assert [(d.row, d.col) for d in base] == [(d.row, d.col) for d in dark] == [(16, 16)]
