"""Container invariants, regime checks, and the strict clamp."""

import numpy as np
import pytest
from conftest import reference

from lipmaps import (
    DimensionError,
    DistanceMap,
    DomainError,
    FmMap,
    GreyImage,
    Probe,
    RealMap,
    RegimeError,
    clamp_strict,
    map_add,
    map_add_via_mult,
    map_mult,
    map_mult_via_add,
    mglb_add,
    mglb_mult,
    mlub_add,
    mlub_mult,
)
from lipmaps.rasters import check_same_scale, require_regime


class TestGreyImage:
    def test_basic(self):
        img = GreyImage([[0.0, 128.0], [255.0, 256.0]])
        assert img.shape == (2, 2) and img.width == 2 and img.height == 2
        assert img.m == 256.0

    def test_values_are_read_only(self):
        img = GreyImage([[1.0]])
        with pytest.raises(ValueError):
            img.values[0, 0] = 2.0

    def test_source_array_not_aliased(self):
        src = np.array([[1.0]])
        img = GreyImage(src)
        src[0, 0] = 99.0
        assert img.values[0, 0] == 1.0

    def test_rejects_above_m(self):
        with pytest.raises(DomainError, match=r"cell \(0, 1\)"):
            GreyImage([[1.0, 257.0]])

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(DomainError):
            GreyImage([[np.nan]])
        with pytest.raises(DomainError):
            GreyImage([[np.inf]])

    def test_rejects_bad_shape_and_m(self):
        with pytest.raises(DimensionError):
            GreyImage(np.zeros(3))
        with pytest.raises(DomainError):
            GreyImage([[1.0]], m=0.0)

    def test_negative_values_allowed(self):
        img = GreyImage([[-5.0, -np.inf]])
        assert img.values[0, 0] == -5.0

    def test_custom_scale(self):
        img = GreyImage([[0.9]], m=1.0)
        assert img.m == 1.0
        with pytest.raises(DomainError):
            GreyImage([[1.5]], m=1.0)


class TestProbe:
    def test_offsets_and_masked_values(self):
        p = Probe([[1.0, 2.0], [3.0, 4.0]], [[True, False], [False, True]], (0, 1))
        dys, dxs, vals = p.offsets()
        assert list(zip(dys, dxs, vals)) == [(0, -1, 1.0), (1, 0, 4.0)]
        assert list(p.masked_values()) == [1.0, 4.0]

    def test_unmasked_values_normalised(self):
        p = Probe([[7.0, 9.0]], [[True, False]], (0, 0))
        assert p.values[0, 1] == 0.0

    def test_empty_mask_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            Probe([[1.0]], [[False]], (0, 0))

    def test_anchor_bounds(self):
        with pytest.raises(DomainError):
            Probe([[1.0]], [[True]], (0, 1))

    def test_nonfinite_masked_value_rejected(self):
        with pytest.raises(DomainError):
            Probe([[np.inf]], [[True]], (0, 0))

    def test_anchor_need_not_be_masked(self):
        p = Probe([[0.0, 5.0]], [[False, True]], (0, 0))
        assert p.anchor == (0, 0)

    @pytest.mark.parametrize(
        "anchor", [(1.7, 0.2), ("1", 1), (np.float64(1.0), 0), (1, 2, 3), 5], ids=["float", "str", "np-float", "three", "int"]
    )
    def test_anchor_must_be_two_integers(self, anchor):
        # int() anchored (1.7, 0.2) at (1, 0) and ("1", 1) at (1, 1)
        values, mask = np.ones((2, 2)), np.ones((2, 2), dtype=bool)
        with pytest.raises(DomainError) as exc:
            Probe(values, mask, anchor)
        assert str(exc.value) == f"anchor must be two integers, got {anchor!r}"
        assert Probe(values, mask, (np.int64(1), np.uint8(0))).anchor == (1, 0)


class TestMaps:
    def test_real_map_rejects_negative(self):
        with pytest.raises(DomainError):
            RealMap([[-0.5]], None)
        RealMap([[0.0, np.inf]], None)  # fine
        RealMap([[-np.inf]], None)  # empty-window marker is tolerated

    def test_fm_map_rejects_above_m(self):
        with pytest.raises(DomainError):
            FmMap([[256.5]], None)
        FmMap([[-np.inf, 256.0]], None)  # fine

    def test_default_mask(self):
        m = FmMap([[1.0, 2.0]], None)
        assert m.full_mask.all()

    def test_mask_shape_checked(self):
        with pytest.raises(DimensionError):
            FmMap([[1.0, 2.0]], np.ones((2, 2), dtype=bool))


class TestRegimes:
    def test_scale_mismatch(self):
        a = GreyImage([[1.0]], m=256.0)
        b = GreyImage([[1.0]], m=255.0)
        with pytest.raises(DimensionError):
            check_same_scale(a, b)

    @pytest.mark.parametrize(
        "regime,value,ok",
        [
            ("I", 0.0, True),
            ("I", 256.0, False),
            ("I*", 0.0, False),
            ("I*", 255.999, True),
            ("Ibar", 256.0, True),
            ("Ibar", -0.001, False),
            ("FM", -1e9, True),
            ("FM", -np.inf, False),
            ("FM", 256.0, False),
            ("FMm", 256.0, True),
            ("FMm", -np.inf, False),
            ("FMm", np.nextafter(256.0, np.inf), False),
            ("FMbar", -np.inf, True),
            ("FMbar", 256.0, True),
            ("FMbar", np.inf, False),
            ("FMbar", np.nan, False),
            ("Ibar", np.nan, False),
        ],
    )
    def test_regime_table(self, regime, value, ok):
        arr = np.array([[128.0, value]])
        if ok:
            require_regime(arr, 256.0, regime)
        else:
            with pytest.raises(RegimeError, match=r"cell \(0, 1\)"):
                require_regime(arr, 256.0, regime)

    def test_one_require_regime(self):
        # the benchmark's tracer wraps require_regime by identity, in every module
        import lipmaps.lip
        import lipmaps.rasters

        assert lipmaps.rasters.require_regime is lipmaps.lip.require_regime

    def test_masked_check_skips_outside_cells(self):
        vals = np.array([[0.0, 128.0]])
        mask = np.array([[False, True]])
        require_regime(vals, 256.0, "I*", mask=mask)
        with pytest.raises(RegimeError):
            require_regime(vals, 256.0, "I*", mask=np.array([[True, True]]))


class TestClamp:
    def test_pulls_edges_into_strict_regime(self):
        img = GreyImage([[0.0, 128.0, 256.0]])
        out = clamp_strict(img)
        assert list(out.values[0]) == [0.5, 128.0, 255.5]

    def test_eps_validated(self):
        img = GreyImage([[1.0]])
        with pytest.raises(DomainError):
            clamp_strict(img, 0.0)
        with pytest.raises(DomainError):
            clamp_strict(img, 128.0)


def _arrays(container):
    return [a for a in (getattr(container, k, None) for k in ("values", "mask", "full_mask")) if a is not None]


def _image_and_probe(rng):
    """A strict image and a strict probe with off-mask cells and anchor."""
    mask = rng.random((3, 4)) < 0.7
    mask[0, 0] = mask[1, 2] = False
    mask[2, 3] = True
    return GreyImage(rng.uniform(5.0, 250.0, size=(9, 11))), Probe(rng.uniform(5.0, 250.0, size=(3, 4)), mask, (1, 2))


# name: the map as a function of image and probe
MAPS = {
    "map_mult morpho": lambda f, b: map_mult(f, b),
    "map_mult ratio": reference(map_mult),
    "map_add": map_add,
    "map_mult_via_add": map_mult_via_add,
    "map_add_via_mult": map_add_via_mult,
    "mlub_mult morpho": mlub_mult,
    "mlub_mult ratio": reference(mlub_mult),
    "mglb_mult morpho": mglb_mult,
    "mglb_mult ratio": reference(mglb_mult),
    "mlub_add": mlub_add,
    "mglb_add": mglb_add,
}


class TestCopyRule:
    """A container copies every array a caller passes, holds it read-only, and adopts only what the library just made."""

    @staticmethod
    def build(kind, values, mask):
        if kind == "GreyImage":
            return GreyImage(values)
        if kind == "Probe":
            return Probe(values, mask, (0, 1))
        if kind == "GreyImage.with_values":
            return GreyImage([[1.0, 1.0], [1.0, 1.0]]).with_values(values)
        if kind == "Probe.with_values":
            return Probe([[1.0, 1.0], [1.0, 1.0]], mask, (0, 0)).with_values(values)
        return {"DistanceMap": DistanceMap, "RealMap": RealMap, "FmMap": FmMap}[kind](values, mask)

    @pytest.mark.parametrize(
        "kind",
        ["GreyImage", "Probe", "DistanceMap", "RealMap", "FmMap", "GreyImage.with_values", "Probe.with_values"],
    )
    def test_caller_arrays_copied_and_frozen(self, kind):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, True], [False, True]])
        c = self.build(kind, values, mask)
        kept = [a.copy() for a in _arrays(c)]
        values[:] = 5.0
        mask[:] = False
        for a, was in zip(_arrays(c), kept):
            assert a.tobytes() == was.tobytes()
            assert not a.flags.writeable
            assert not np.shares_memory(a, values) and not np.shares_memory(a, mask)

    def test_adopt_runs_every_check(self):
        with pytest.raises(DomainError, match=r"cell \(0, 0\)"):
            GreyImage._adopt(np.array([[np.nan]]), 256.0)
        with pytest.raises(DomainError):
            RealMap._adopt(np.array([[-1.0]]), None, 256.0)
        with pytest.raises(DimensionError):
            DistanceMap._adopt(np.zeros((2, 2)), np.ones((1, 2), dtype=bool), 256.0)

    def test_adopt_freezes_without_a_copy(self):
        v, mk = np.ones((2, 3)), np.ones((2, 3), dtype=bool)
        img, fm = GreyImage._adopt(v, 256.0), FmMap._adopt(v, mk, 256.0)
        assert img.values is v and fm.values is v and fm.full_mask is mk
        assert not (v.flags.writeable or mk.flags.writeable)

    @pytest.mark.parametrize("name", MAPS)
    def test_map_results_share_nothing_with_inputs(self, rng, name):
        f, b = _image_and_probe(rng)
        out = MAPS[name](f, b)
        for a in _arrays(out):
            assert not a.flags.writeable
            for src in (f.values, b.values, b.mask):
                assert not np.shares_memory(a, src)

    @pytest.mark.parametrize("writable", [False, True])
    @pytest.mark.parametrize("name", MAPS)
    def test_maps_leave_inputs_untouched(self, rng, name, writable):
        # with the flags switched back on, a map that wrote into its input would go unnoticed but for the bytes
        f, b = _image_and_probe(rng)
        for a in (f.values, b.values, b.mask):
            a.setflags(write=writable)
        before = [a.tobytes() for a in (f.values, b.values, b.mask)]
        MAPS[name](f, b)
        assert [a.tobytes() for a in (f.values, b.values, b.mask)] == before
