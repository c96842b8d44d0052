"""Metrics, bound maps, distance maps, and the isomorphism link.

Frozen constants are float64 roundings of a 60-digit evaluation of the
closed forms on the documented two-cell instance (f=(100,200) probed by
(150,150), m=256); the scan oracles re-derive them in test_oracles.py.
"""

import math
import re

import numpy as np
import pytest

from lipmaps import (
    DimensionError,
    GreyImage,
    Probe,
    RegimeError,
    SingularityError,
    VerificationError,
    dist_add,
    dist_metric_link,
    dist_mult,
    add_bounds,
    complement,
    darken,
    lip_add,
    lip_mult,
    map_add,
    map_add_via_mult,
    map_mult,
    map_mult_via_add,
    mglb_add,
    mglb_mult,
    mlub_add,
    mlub_mult,
    mult_bounds,
    random_image,
    random_probe,
    xi,
)
from lipmaps.asplund import _PROBE_TILDE_MIN
from lipmaps.lip import tilde

from conftest import M, full_probe, grey, reference

# float64 of the 60-digit closed forms on the documented 1x2 instance
LAM_12 = 1.723669786066323
MU_12 = 0.5617555786516293
C1_12 = 120.75471698113208
D_MULT_12 = 1.1211440516127889
D_ADD_12 = 164.10256410256412

# each multiplicative map, the kernel, and its ratio closed-form reference
LUBS = (mlub_mult, reference(mlub_mult))
GLBS = (mglb_mult, reference(mglb_mult))
DISTS = (map_mult, reference(map_mult))


class TestDistMult:
    def test_documented_instance(self, instance_1x2):
        f, g, _ = instance_1x2
        lam, mu = mult_bounds(f, g)
        assert math.isclose(lam, LAM_12, rel_tol=1e-13)
        assert math.isclose(mu, MU_12, rel_tol=1e-13)
        d = dist_mult(f, g)
        assert math.isclose(d, D_MULT_12, rel_tol=1e-13)
        assert abs(d - 1.121145) <= 1e-5  # documented rounding

    def test_identity(self, rng):
        f = random_image(4, 4, rng)
        assert dist_mult(f, f) == 0.0

    def test_scaling_invariance_exact_pair(self, rng):
        f = random_image(4, 4, rng)
        doubled = GreyImage(lip_mult(2.0, f.values))
        assert dist_mult(doubled, f) <= 1e-9

    def test_lighting_invariance(self, rng):
        f = random_image(6, 6, rng)
        g = random_image(6, 6, rng)
        base = dist_mult(f, g)
        for alpha in (0.5, 2.0, 3.0):
            scaled = GreyImage(lip_mult(alpha, f.values))
            assert abs(dist_mult(scaled, g) - base) <= 1e-9

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(20):
            f = random_image(4, 4, rng)
            g = random_image(4, 4, rng)
            d = dist_mult(f, g)
            assert d >= 0.0
            assert abs(d - dist_mult(g, f)) <= 1e-12

    def test_strict_regime_enforced(self):
        with pytest.raises(RegimeError, match=r"cell \(0, 0\)"):
            dist_mult(grey([[0.0, 10.0]]), grey([[10.0, 10.0]]))
        with pytest.raises(RegimeError):
            dist_mult(grey([[10.0, 10.0]]), grey([[10.0, 256.0]]))

    def test_shape_and_scale_mismatch(self):
        with pytest.raises(DimensionError):
            dist_mult(grey([[10.0]]), grey([[10.0, 20.0]]))
        with pytest.raises(DimensionError):
            dist_mult(grey([[10.0]]), GreyImage([[10.0]], m=255.0))

    @pytest.mark.parametrize("fn", [dist_mult, mult_bounds], ids=lambda fn: fn.__name__)
    def test_pair_checked_before_regime(self, fn):
        # mis-shaped and out of regime at once: the pair check comes first
        with pytest.raises(DimensionError):
            fn(grey([[0.0]]), grey([[256.0, 10.0]]))


class TestDistAdd:
    def test_documented_instance(self, instance_1x2):
        f, g, _ = instance_1x2
        c1, c2 = add_bounds(f, g)
        assert math.isclose(c1, C1_12, rel_tol=1e-13)
        assert math.isclose(c2, -C1_12, rel_tol=1e-13)
        d = dist_add(f, g)
        assert math.isclose(d, D_ADD_12, rel_tol=1e-13)
        assert abs(d - 164.1026) <= 1e-3  # documented rounding

    def test_identity(self, rng):
        f = random_image(4, 4, rng)
        assert dist_add(f, f) == 0.0

    def test_shift_invariance_exact_pair(self, rng):
        f = random_image(4, 4, rng)
        for k in (50.0, 200.0):
            assert dist_add(darken(f, k), f) <= 1e-9 * M

    def test_lighting_invariance(self, rng):
        f = random_image(6, 6, rng)
        g = random_image(6, 6, rng)
        base = dist_add(f, g)
        for k in (50.0, 200.0):
            assert abs(dist_add(darken(f, k), g) - base) <= 1e-9 * M

    def test_negative_values_welcome(self):
        f = grey([[-300.0, 40.0]])
        g = grey([[10.0, 20.0]])
        assert dist_add(f, g) >= 0.0

    def test_m_cell_rejected(self):
        with pytest.raises(RegimeError):
            dist_add(grey([[10.0, 256.0]]), grey([[10.0, 10.0]]))


class TestBoundMaps:
    def test_documented_instance(self, instance_1x2):
        f, _, b = instance_1x2
        for lub, glb in zip(LUBS, GLBS):
            lam = lub(f, b)
            mu = glb(f, b)
            assert math.isclose(lam.values[0, 0], LAM_12, rel_tol=1e-13)
            assert math.isclose(mu.values[0, 0], MU_12, rel_tol=1e-13)
            # clipped window at x=1 sees the single cell 200 vs probe cell 150
            single = lam.values[0, 1]
            assert math.isclose(single, LAM_12, rel_tol=1e-13)
            assert lam.full_mask.tolist() == [[True, False]]

    def test_constant_equals_probe_gives_ones(self):
        f = grey(np.full((5, 5), 150.0))
        b = full_probe(np.full((3, 3), 150.0))
        for lub in LUBS:
            assert np.all(lub(f, b).values == 1.0)

    def test_mu_below_lam(self, rng):
        f = random_image(8, 8, rng)
        b = random_probe(3, 3, rng)
        for lub, glb in zip(LUBS, GLBS):
            assert np.all(glb(f, b).values <= lub(f, b).values)

    def test_homogeneity(self, rng):
        f = random_image(8, 8, rng)
        b = random_probe(3, 3, rng)
        for alpha in (0.5, 2.0, 3.0):
            scaled = GreyImage(lip_mult(alpha, f.values))
            for fn in LUBS + GLBS:
                lhs = fn(scaled, b).values
                rhs = alpha * fn(f, b).values
                assert np.max(np.abs(lhs - rhs) / (1.0 + rhs)) <= 1e-12

    def test_two_paths_agree(self, rng):
        for _ in range(10):
            f = random_image(8, 8, rng)
            b = random_probe(3, 3, rng)
            for fn in (mlub_mult, mglb_mult):
                a = reference(fn)(f, b).values
                c = fn(f, b).values
                assert np.max(np.abs(a - c) / (1.0 + np.abs(a))) <= 1e-9

    def test_edge_values_total(self):
        f = GreyImage([[0.0, 128.0, 256.0]])
        b = full_probe([[128.0]], anchor=(0, 0))
        for lub, glb in zip(LUBS, GLBS):
            lam = lub(f, b).values
            assert lam[0, 0] == 0.0 and lam[0, 1] == 1.0 and lam[0, 2] == np.inf
            got = glb(f, b).values
            assert got[0, 0] == 0.0 and got[0, 2] == np.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [1e-6, 1.0, 256.0, 65536.0, 1e200])
    @pytest.mark.parametrize("ratio", [True, False], ids=["ratio", "morpho"])
    @pytest.mark.parametrize("fn", [mlub_mult, mglb_mult, map_mult], ids=lambda fn: fn.__name__)
    def test_subnormal_probe_cell_named(self, fn, ratio, m):
        # ln(1 - 5e-324/m) is subnormal or 0 at every scale: the ratio form
        # overflowed to NaN, the kernel met hat(b) = -inf or went on;
        # map_mult_via_add already raised SingularityError for the same cell
        f = GreyImage([[m / 2, m / 4]], m)
        fn = reference(fn) if ratio else fn
        for values, cell in (([[5e-324, m / 2]], r"\(0, 0\)"), ([[m / 2, 5e-324]], r"\(0, 1\)")):
            b = Probe(values, [[True, True]], (0, 0), m)
            with pytest.raises(SingularityError, match=rf"probe value 5e-324 at cell {cell} too close to 0"):
                fn(f, b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [1e-6, 1.0, 256.0, 65536.0, 1e200])
    def test_probe_bound_keeps_ratio_finite(self, m):
        # an image cell below m has |tilde| <= 53 ln 2, so at the bound the
        # quotient tilde(f)/tilde(b) stays below the largest float; with an
        # image cell one ulp below m, the kernel and the reference at the bound
        # and one float above it return finite maps that agree, and the float
        # below it raises
        assert _PROBE_TILDE_MIN >= 53 * math.log(2) / np.finfo(np.float64).max

        def tb(v):
            return abs(float(tilde(v, m)))

        at = _PROBE_TILDE_MIN * m
        while tb(at) < _PROBE_TILDE_MIN:
            at = np.nextafter(at, np.inf)
        while tb(np.nextafter(at, 0.0)) >= _PROBE_TILDE_MIN:
            at = np.nextafter(at, 0.0)
        f = GreyImage([[np.nextafter(m, 0.0), m / 2]], m)
        for v in (at, np.nextafter(at, np.inf)):
            b = Probe([[v, m / 2]], [[True, True]], (0, 0), m)
            for fn in (mlub_mult, mglb_mult, map_mult):
                a, c = reference(fn)(f, b).values, fn(f, b).values
                assert np.all(np.isfinite(a)) and np.max(np.abs(a - c) / (1.0 + np.abs(a))) <= 1e-9
        b = Probe([[np.nextafter(at, 0.0), m / 2]], [[True, True]], (0, 0), m)
        for fn in LUBS + GLBS + DISTS:
            with pytest.raises(SingularityError, match=r"at cell \(0, 0\) too close to 0"):
                fn(f, b)


class TestAdditiveBoundMaps:
    def test_documented_instance(self, instance_1x2):
        f, _, b = instance_1x2
        c1 = mlub_add(f, b)
        c2 = mglb_add(f, b)
        assert math.isclose(c1.values[0, 0], C1_12, rel_tol=1e-13)
        assert math.isclose(c2.values[0, 0], -C1_12, rel_tol=1e-13)

    def test_probe_at_own_place_gives_zero(self, rng):
        f = grey(np.full((7, 7), 100.0))
        b = full_probe(np.arange(9, dtype=float).reshape(3, 3) * 20 + 30)
        from lipmaps import plant_target

        planted = plant_target(f, b, (3, 3))
        assert mlub_add(planted, b).values[3, 3] == 0.0
        assert mglb_add(planted, b).values[3, 3] == 0.0

    def test_c2_below_c1(self, rng):
        f = random_image(8, 8, rng)
        b = random_probe(3, 3, rng)
        assert np.all(mglb_add(f, b).values <= mlub_add(f, b).values)

    def test_shift_equivariance(self, rng):
        # c-maps of a LIP-shifted image are the LIP-shifted c-maps
        f = random_image(8, 8, rng)
        b = random_probe(3, 3, rng)
        for k in (50.0, 200.0):
            shifted = darken(f, k)
            for fn in (mlub_add, mglb_add):
                lhs = fn(shifted, b).values
                rhs = lip_add(fn(f, b).values, k)
                assert np.max(np.abs(lhs - rhs)) <= 1e-9 * M

    @pytest.mark.parametrize("m", [1e-6, 1e200])
    def test_m_cell_gives_m_exactly(self, rng, m):
        # m (-) v = m; the direct (m - v)/(1 - v/m) can round one ulp above m
        f = GreyImage([[m]], m)
        for v in rng.uniform(-m, m, size=200):
            b = full_probe([[v]], m=m)
            assert mlub_add(f, b).values[0, 0] == m
            assert mglb_add(f, b).values[0, 0] == m

    def test_probe_value_m_singular(self, instance_1x2):
        f, _, _ = instance_1x2
        bad = full_probe([[150.0, 256.0]], anchor=(0, 0))
        with pytest.raises(SingularityError):
            mlub_add(f, bad)

    def test_probe_value_m_names_its_cell(self):
        # the off-mask cell (0, 0) comes first in row-major order, so the m
        # cell (1, 0) is domain cell 1 but is named by its coordinates
        f = GreyImage([[100.0, 120.0], [80.0, 60.0]])
        bad = Probe([[0.0, 150.0], [256.0, 20.0]], [[False, True], [True, True]], (0, 1))
        for fn in (mlub_add, mglb_add, map_add, map_add_via_mult):
            with pytest.raises(SingularityError) as exc:
                fn(f, bad)
            assert str(exc.value) == "probe value equals m=256.0 at cell (1, 0): LIP difference is singular there"


class TestMapMult:
    def test_documented_instance(self, instance_1x2):
        f, _, b = instance_1x2
        for dist in DISTS:
            out = dist(f, b)
            assert math.isclose(out.values[0, 0], D_MULT_12, rel_tol=1e-12)
            assert out.values[0, 1] == 0.0  # single-cell clipped window
            assert out.full_mask.tolist() == [[True, False]]

    def test_constant_scene_constant_probe(self):
        f = grey(np.full((6, 6), 80.0))
        b = full_probe(np.full((3, 3), 130.0))
        out = map_mult(f, b)
        assert np.all(out.values[out.full_mask] == 0.0)

    def test_planted_scaled_target_hits_zero(self, rng):
        canvas = random_image(16, 16, rng, low=60.0, high=200.0)
        b = random_probe(3, 3, rng)
        from lipmaps import plant_target

        planted = plant_target(canvas, b, (8, 8), transform=lambda v: lip_mult(2.0, v))
        out = map_mult(planted, b)
        masked = np.where(out.full_mask, out.values, np.inf)
        assert np.unravel_index(np.argmin(masked), masked.shape) == (8, 8)
        # rounding near the exact match never takes a distance below 0
        for dist in (out, reference(map_mult)(planted, b), map_mult_via_add(planted, b)):
            assert 0.0 <= dist.values[8, 8] <= 1e-9
            assert dist.values.min() >= 0.0

    def test_two_paths_within_1e9(self, rng):
        for _ in range(10):
            f = random_image(12, 12, rng)
            b = random_probe(3, 3, rng)
            a = reference(map_mult)(f, b).values
            c = map_mult(f, b).values
            assert np.max(np.abs(a - c)) <= 1e-9

    def test_nonnegative(self, rng):
        f = random_image(10, 10, rng)
        b = random_probe(5, 5, rng)
        assert np.all(map_mult(f, b).values >= 0.0)

    def test_tiny_strict_value_stays_finite(self, rng):
        # hat(1e-15) is about -35.8; through log(1 - f/m) it underflowed to -inf
        values = random_image(8, 8, rng).values.copy()
        values[3, 4] = 1e-15
        f = GreyImage(values)
        b = random_probe(3, 3, rng)
        morpho = map_mult(f, b).values
        assert np.all(np.isfinite(morpho))
        assert np.max(np.abs(morpho - reference(map_mult)(f, b).values)) <= 1e-9 * np.max(morpho)

    def test_ratio_past_the_largest_quotient(self):
        # at cell (0, 0) lam is about 9e6 and mu about 3e-308, so lam / mu
        # overflows while ln(lam) - ln(mu) is 724.3, as in the kernel;
        # the window at (0, 0) is the whole image, so dist_mult gives the same
        f = GreyImage([[np.nextafter(256.0, 0.0), 1e-305]])
        b = full_probe([[1e-3, 200.0]], anchor=(0, 0))
        ratio, morpho = reference(map_mult)(f, b).values, map_mult(f, b).values
        assert np.all(np.isfinite(ratio)) and 724.0 < ratio[0, 0] < 725.0
        assert np.max(np.abs(ratio - morpho)) <= 1e-9 * ratio[0, 0]
        assert dist_mult(f, GreyImage(b.values)) == ratio[0, 0]

    def test_strict_regime(self):
        f = GreyImage([[0.0, 100.0]])
        b = full_probe([[100.0]], anchor=(0, 0))
        with pytest.raises(RegimeError, match=r"cell \(0, 0\)"):
            map_mult(f, b)


class TestMapAdd:
    def test_documented_instance(self, instance_1x2):
        f, _, b = instance_1x2
        out = map_add(f, b)
        assert math.isclose(out.values[0, 0], D_ADD_12, rel_tol=1e-12)
        assert out.values[0, 1] == 0.0

    def test_planted_target_hits_zero(self, rng):
        canvas = random_image(16, 16, rng)
        b = random_probe(3, 3, rng)
        from lipmaps import plant_target

        planted = plant_target(canvas, b, (8, 8))
        out = map_add(planted, b)
        assert out.values[8, 8] == 0.0

    def test_values_in_image_range(self, rng):
        f = random_image(10, 10, rng)
        b = random_probe(3, 3, rng)
        vals = map_add(f, b).values
        assert np.all(vals >= 0.0) and np.all(vals < M)

    @pytest.mark.parametrize("m", [1e-6, 1e200])
    def test_values_below_m_when_c2_far_below_minus_m(self, rng, m):
        # log-uniform values down to -m e^40: c1 (-) c2 rounds to m or above unless capped
        for _ in range(20):
            f = GreyImage(-m * np.exp(rng.uniform(0.0, 40.0, size=(6, 6))), m)
            b = full_probe(-m * np.exp(rng.uniform(0.0, 40.0, size=(3, 3))), m=m)
            vals = map_add(f, b).values
            assert np.all(vals >= 0.0) and np.all(vals < m)
            d = dist_add(GreyImage(f.values[:3, :3], m), GreyImage(b.values, m))
            assert 0.0 <= d < m

    def test_lighting_invariance_and_argmin(self, rng):
        canvas = random_image(24, 24, rng)
        b = random_probe(3, 3, rng)
        from lipmaps import plant_target

        f = plant_target(canvas, b, (12, 12))
        base = map_add(f, b)
        dark = map_add(darken(f, 200.0), b)
        fm = base.full_mask
        assert np.max(np.abs(dark.values[fm] - base.values[fm])) <= 1e-6 * M
        a = np.where(fm, base.values, np.inf)
        d = np.where(fm, dark.values, np.inf)
        assert np.unravel_index(np.argmin(a), a.shape) == np.unravel_index(
            np.argmin(d), d.shape
        )


class TestEmptyWindowConventions:
    """Probe that does not cover its anchor: border cells with empty windows."""

    def probe(self):
        return Probe([[0.0, 150.0]], [[False, True]], (0, 0))

    def test_multiplicative(self):
        f = grey([[100.0, 150.0, 200.0]])
        b = self.probe()
        for lub, glb, dist in zip(LUBS, GLBS, DISTS):
            assert lub(f, b).values[0, 2] == 0.0
            assert glb(f, b).values[0, 2] == np.inf
            assert dist(f, b).values[0, 2] == -np.inf

    def test_additive(self):
        f = grey([[100.0, 150.0, 200.0]])
        b = self.probe()
        assert mlub_add(f, b).values[0, 2] == -np.inf
        assert mglb_add(f, b).values[0, 2] == M
        out = map_add(f, b)
        assert out.values[0, 2] == -np.inf
        assert not out.full_mask[0, 2]

    def test_additive_window_of_minus_inf_cells_is_covered(self):
        # cell 0 sees only the -inf cell, cell 1 only the m cell, cell 3 nothing
        f = grey([[10.0, -np.inf, M, 10.0]])
        b = self.probe()
        hi, lo = mlub_add(f, b).values[0], mglb_add(f, b).values[0]
        assert hi[0] == lo[0] == -np.inf
        assert hi[1] == lo[1] == M
        assert hi[3] == -np.inf and lo[3] == M


class TestLatticeOperatorLaws:
    def test_mlub_distributes_over_supremum(self, rng):
        for _ in range(30):
            f = random_image(8, 8, rng)
            g = random_image(8, 8, rng)
            b = random_probe(3, 3, rng)
            fg = GreyImage(np.maximum(f.values, g.values))
            for lub in LUBS:
                lhs = lub(fg, b).values
                rhs = np.maximum(lub(f, b).values, lub(g, b).values)
                assert np.array_equal(lhs, rhs)

    def test_mglb_distributes_over_infimum(self, rng):
        for _ in range(30):
            f = random_image(8, 8, rng)
            g = random_image(8, 8, rng)
            b = random_probe(3, 3, rng)
            fg = GreyImage(np.minimum(f.values, g.values))
            for glb in GLBS:
                lhs = glb(fg, b).values
                rhs = np.minimum(glb(f, b).values, glb(g, b).values)
                assert np.array_equal(lhs, rhs)


class TestLink:
    def test_map_mult_via_add_documented(self, instance_1x2):
        f, _, b = instance_1x2
        out = map_mult_via_add(f, b)
        assert math.isclose(out.values[0, 0], D_MULT_12, rel_tol=1e-12)

    def test_map_add_via_mult_documented(self, instance_1x2):
        f, _, b = instance_1x2
        out = map_add_via_mult(f, b)
        assert math.isclose(out.values[0, 0], D_ADD_12, rel_tol=1e-12)

    def test_constant_instance_zero_both_paths(self):
        f = grey(np.full((5, 5), 90.0))
        b = full_probe(np.full((3, 3), 70.0))
        fm = map_mult(f, b).full_mask
        assert np.all(map_mult_via_add(f, b).values[fm] == 0.0)
        assert np.all(map_add_via_mult(f, b).values[fm] == 0.0)

    def test_link_agreement_random(self, rng):
        for _ in range(10):
            f = random_image(12, 12, rng)
            b = random_probe(3, 3, rng)
            md = map_mult(f, b).values
            mv = map_mult_via_add(f, b).values
            assert np.max(np.abs(mv - md) / (1.0 + np.abs(md))) <= 1e-9
            ad = map_add(f, b).values
            av = map_add_via_mult(f, b).values
            assert np.max(np.abs(av - ad)) <= 1e-9 * M

    def test_remark_value_relation(self, rng):
        # additive map of the transformed pair equals m*(1 - exp(-mult map))
        f = random_image(10, 10, rng)
        b = random_probe(3, 3, rng)
        f2 = GreyImage(complement(xi(f.values)))
        b2 = b.with_values(complement(xi(b.values)))
        lhs = map_add(f2, b2).values
        rhs = M * (1.0 - np.exp(-map_mult(f, b).values))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * M

    def test_metric_pair_documented(self, instance_1x2):
        f, g, _ = instance_1x2
        d1, d2 = dist_metric_link(f, g)
        assert math.isclose(d1, D_MULT_12, rel_tol=1e-13)
        assert abs(d1 - d2) <= 1e-9 * (1 + abs(d1))

    def test_metric_pair_equal_images(self, rng):
        f = random_image(4, 4, rng)
        assert dist_metric_link(f, f) == (0.0, 0.0)

    def test_metric_pair_random(self, rng):
        for _ in range(20):
            f = random_image(4, 4, rng)
            g = random_image(4, 4, rng)
            d1, d2 = dist_metric_link(f, g)
            assert abs(d1 - d2) <= 1e-9

    def test_via_mult_names_the_cell_far_below_minus_m(self):
        # xi_inv(m - f) rounds to m there; the error names the caller's value, not m
        far = -M * np.exp(40.0)
        f = GreyImage([[10.0, far, 20.0], [30.0, 40.0, 50.0]])
        b = full_probe([[10.0]], anchor=(0, 0))
        with pytest.raises(RegimeError, match=rf"image value {re.escape(str(far))} at cell \(0, 1\)"):
            map_add_via_mult(f, b)
        with pytest.raises(RegimeError, match=rf"probe value {re.escape(str(far))} at cell \(0, 1\)"):
            map_add_via_mult(GreyImage(f.values[:, ::2]), full_probe([[10.0, far]], anchor=(0, 0)))
        assert np.all(np.isfinite(map_add(f, b).values))

    @pytest.mark.parametrize("tiny", [1e-14, 1e-300])
    def test_via_add_names_the_cell_too_close_to_0(self, tiny):
        # m - xi(v) rounds to m there; the error names the caller's value, not m,
        # and the off-mask zeros of a probe, which round to m too, are not checked
        f = GreyImage([[10.0, tiny, 20.0], [30.0, 40.0, 50.0]])
        ok = GreyImage([[10.0, 30.0, 20.0], [30.0, 40.0, 50.0]])
        holed = Probe([[10.0, 0.0, tiny]], np.array([[True, False, True]]), (0, 0), M)
        message = rf"{{}} value {re.escape(str(tiny))} at cell \(0, {{}}\) is too close to 0"
        with pytest.raises(RegimeError, match=message.format("image", 1)):
            map_mult_via_add(f, full_probe([[10.0]], anchor=(0, 0)))
        with pytest.raises(RegimeError, match=message.format("probe", 2)):
            map_mult_via_add(ok, holed)
        with pytest.raises(RegimeError, match=message.format("image", 1)):
            dist_metric_link(f, ok)
        with pytest.raises(RegimeError, match=message.format("probe image", 1)):
            dist_metric_link(ok, f)
        # the direct maps take these values
        assert map_mult(f, full_probe([[10.0]], anchor=(0, 0))).values.shape == f.shape
        assert np.isfinite(dist_mult(ok, f))

    def test_via_mult_rejects_minus_inf(self):
        f = GreyImage([[-np.inf, 10.0]])
        b = full_probe([[10.0]], anchor=(0, 0))
        with pytest.raises(RegimeError):
            map_add_via_mult(f, b)


class TestWindowRestrictionOracle:
    """Every map cell equals the whole-domain distance of the clipped window.

    This is the literal reading of a distance map: restrict the image to
    the probe window at each cell and hand the restriction to the metric.
    It exercises border clipping independently of the sliding-window code.
    """

    @staticmethod
    def window_pair(f, b, r, c):
        dys, dxs, vals = b.offsets()
        rows, cols = r + dys, c + dxs
        inside = (rows >= 0) & (rows < f.height) & (cols >= 0) & (cols < f.width)
        if not inside.any():
            return None
        fw = GreyImage(f.values[rows[inside], cols[inside]].reshape(1, -1), f.m)
        bw = GreyImage(vals[inside].reshape(1, -1), f.m)
        return fw, bw

    def test_map_mult_ratio_matches_per_cell_metric(self, rng):
        f = random_image(9, 11, rng)
        b = random_probe(3, 3, rng)
        out = reference(map_mult)(f, b).values
        for r in range(f.height):
            for c in range(f.width):
                fw, bw = self.window_pair(f, b, r, c)
                assert out[r, c] == dist_mult(fw, bw)

    def test_bound_maps_match_per_cell_bounds(self, rng):
        # the ratio reference is the paper's bracket of each window bit for bit,
        # and the kernel's bound maps are within rounding of it; probes with
        # holes and an off-mask anchor, so some windows are clipped or empty
        for _ in range(30):
            ph, pw = rng.integers(1, 5), rng.integers(2, 5)
            mask = rng.random((ph, pw)) < 0.6
            anchor = (rng.integers(ph), rng.integers(pw))
            mask[anchor] = False
            if not mask.any():
                mask[anchor[0], (anchor[1] + 1) % pw] = True
            b = Probe(rng.uniform(10, 240, size=(ph, pw)), mask, anchor)
            f = random_image(rng.integers(3, 10), rng.integers(3, 10), rng)
            ref_lam, ref_mu = (reference(fn)(f, b).values for fn in (mlub_mult, mglb_mult))
            lam_map, mu_map = mlub_mult(f, b).values, mglb_mult(f, b).values
            for r in range(f.height):
                for c in range(f.width):
                    pair = self.window_pair(f, b, r, c)
                    if pair is None:
                        continue
                    lam, mu = mult_bounds(*pair)
                    assert (ref_lam[r, c], ref_mu[r, c]) == (lam, mu)
                    assert abs(lam_map[r, c] - lam) <= 1e-12 * lam
                    assert abs(mu_map[r, c] - mu) <= 1e-12 * mu

    def test_map_add_matches_per_cell_metric(self, rng):
        f = random_image(9, 11, rng)
        b = random_probe(3, 3, rng)
        out = map_add(f, b).values
        for r in range(f.height):
            for c in range(f.width):
                fw, bw = self.window_pair(f, b, r, c)
                assert out[r, c] == dist_add(fw, bw)

    def test_morpho_path_matches_per_cell_metric(self, rng):
        f = random_image(8, 8, rng)
        b = random_probe(3, 5, rng)
        out = map_mult(f, b).values
        for r in range(f.height):
            for c in range(f.width):
                fw, bw = self.window_pair(f, b, r, c)
                assert abs(out[r, c] - dist_mult(fw, bw)) <= 1e-9

    def test_partial_mask_probe(self, rng):
        mask = np.array([[True, False, True], [False, True, False]])
        b = Probe(rng.uniform(20, 200, size=(2, 3)), mask, (0, 1))
        f = random_image(6, 7, rng)
        out = map_add(f, b).values
        for r in range(f.height):
            for c in range(f.width):
                pair = self.window_pair(f, b, r, c)
                if pair is None:
                    assert out[r, c] == -np.inf
                else:
                    assert out[r, c] == dist_add(*pair)


class TestMetricAxiomsQuick:
    """Small smoke version; the full 200-triple battery runs in acceptance."""

    def test_both_metrics(self, rng):
        for _ in range(25):
            f = random_image(4, 4, rng)
            g = random_image(4, 4, rng)
            h = random_image(4, 4, rng)
            for dist in (dist_mult, dist_add):
                dfg = dist(f, g)
                assert dfg >= 0.0
                assert abs(dfg - dist(g, f)) <= 1e-12
                assert dist(f, f) == 0.0
                assert dist(f, h) <= dfg + dist(g, h) + 1e-9
