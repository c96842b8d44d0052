"""Container invariants, regime checks, and the strict clamp."""

import numpy as np
import pytest

from lipmaps import (
    DimensionError,
    DomainError,
    FmMap,
    GreyImage,
    Probe,
    RealMap,
    RegimeError,
    clamp_strict,
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
