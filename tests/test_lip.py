"""Grey-value algebra: frozen oracle values and algebraic laws.

Expected constants were computed with a 60-digit mpmath evaluation of the
defining formulas and frozen as their nearest float64; the same evaluation
is repeated here (``_mp_*`` helpers) so the assertions stay anchored to an
independent arithmetic rather than to the library's own float path.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from mpmath import mp, mpf

from lipmaps import (
    DomainError,
    SingularityError,
    VerificationError,
    complement,
    complement_difference_identity,
    hat,
    hat_inv,
    lip_add,
    lip_mult,
    lip_neg,
    lip_sub,
    tilde,
    transmittance,
    xi,
    xi_inv,
)

M = 256.0

mp.dps = 60


def _mp_lip_add(f, g):
    return float(mpf(f) + mpf(g) - mpf(f) * mpf(g) / mpf(M))


def _mp_lip_mult(lam, f):
    return float(mpf(M) - mpf(M) * (1 - mpf(f) / mpf(M)) ** mpf(lam))


def _mp_lip_sub(f, g):
    return float((mpf(f) - mpf(g)) / (1 - mpf(g) / mpf(M)))


grey_values = st.floats(min_value=0.0, max_value=255.5)
strict_values = st.floats(min_value=0.5, max_value=255.5)
scalars = st.floats(min_value=0.05, max_value=20.0)

# scale-relative float-noise budget for the algebra laws
LAW_TOL = 1e-12 * M


class TestFrozenValues:
    def test_lip_add(self):
        assert lip_add(100.0, 100.0) == 160.9375
        assert _mp_lip_add(100, 100) == 160.9375

    def test_lip_add_neutral_and_absorbing(self):
        assert lip_add(137.25, 0.0) == 137.25
        assert lip_add(100.0, 256.0) == 256.0

    def test_lip_mult(self):
        assert lip_mult(2.0, 128.0) == 192.0
        assert _mp_lip_mult(2, 128) == 192.0
        assert lip_mult(1.0, 73.5) == 73.5
        assert lip_mult(0.5, 192.0) == 128.0  # undoes the first example

    def test_lip_neg(self):
        assert lip_neg(128.0) == -256.0
        assert lip_add(128.0, lip_neg(128.0)) == 0.0
        assert lip_neg(0.0) == 0.0

    def test_lip_sub(self):
        expected = 120.75471698113208  # float64 of 12800/106
        assert math.isclose(lip_sub(200.0, 150.0), expected, rel_tol=1e-15)
        assert math.isclose(_mp_lip_sub(200, 150), expected, rel_tol=1e-15)
        assert lip_sub(93.0, 93.0) == 0.0

    def test_lip_sub_of_zero_is_negation(self):
        for g in (10.0, 128.0, 250.0):
            assert lip_sub(0.0, g) == lip_neg(g)

    def test_transmittance(self):
        assert transmittance(0.0) == 1.0
        assert transmittance(128.0) == 0.5
        # transmittance law: T(100 (+) 100) = T(100)^2, both sides dyadic
        assert transmittance(lip_add(100.0, 100.0)) == 0.371337890625
        assert transmittance(100.0) ** 2 == 0.371337890625

    def test_tilde(self):
        assert tilde(128.0) == -0.6931471805599453
        assert tilde(0.0) == 0.0
        assert tilde(256.0) == -np.inf

    def test_hat(self):
        assert math.isclose(hat(128.0), -0.36651292058166435, rel_tol=1e-14)
        assert hat(0.0) == -np.inf
        assert hat(256.0) == np.inf

    def test_hat_near_zero(self):
        # log(1 - f/m) keeps ~13 digits at f = 1e-3; log1p keeps them all
        ref = float(mp.log(-mp.log(1 - mpf(1e-3) / mpf(M))))
        assert abs(hat(1e-3) - ref) <= 1e-15 * abs(ref)

    def test_hat_round_trip(self):
        for f in (0.5, 31.25, 128.0, 255.5):
            assert math.isclose(hat_inv(hat(f)), f, rel_tol=1e-12)
        assert hat_inv(-np.inf) == 0.0
        assert hat_inv(np.inf) == M

    def test_xi(self):
        assert xi(0.0) == 0.0
        assert math.isclose(xi(128.0), 177.445678223346, rel_tol=1e-14)
        assert xi_inv(0.0) == 0.0
        assert math.isclose(xi_inv(177.445678223346), 128.0, rel_tol=1e-14)
        assert xi_inv(np.inf) == M
        assert xi(-np.inf) == -np.inf

    def test_complement(self):
        assert complement(100.0) == 156.0
        assert complement(M) == 0.0
        assert complement(complement(42.75)) == 42.75

    def test_complement_difference_identity(self):
        lhs = complement_difference_identity(100.0, 150.0)
        assert math.isclose(lhs, 85.33333333333333, rel_tol=1e-15)
        assert complement_difference_identity(93.0, 93.0) == 0.0
        assert complement_difference_identity(0.0, 117.0) == M


class TestDomainErrors:
    def test_lip_add_above_m(self):
        with pytest.raises(DomainError):
            lip_add(300.0, 1.0)

    def test_lip_mult_range(self):
        with pytest.raises(DomainError):
            lip_mult(2.0, -1.0)
        with pytest.raises(DomainError):
            lip_mult(2.0, 257.0)

    def test_singularities(self):
        with pytest.raises(SingularityError):
            lip_neg(256.0)
        with pytest.raises(SingularityError):
            lip_sub(10.0, 256.0)
        with pytest.raises(SingularityError):
            complement_difference_identity(10.0, 0.0)

    def test_tilde_hat_domain(self):
        with pytest.raises(DomainError):
            tilde(256.5)
        with pytest.raises(DomainError):
            hat(-0.5)

    def test_transmittance_domain(self):
        with pytest.raises(DomainError):
            transmittance(256.0)

    def test_shape_mismatch(self):
        from lipmaps import DimensionError

        with pytest.raises(DimensionError):
            lip_add(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            lip_add(np.nan, 1.0)


class TestAdditionLaws:
    @given(grey_values, grey_values)
    def test_commutative(self, f, g):
        assert lip_add(f, g) == lip_add(g, f)

    @given(grey_values, grey_values, grey_values)
    def test_associative(self, f, g, h):
        assert abs(lip_add(lip_add(f, g), h) - lip_add(f, lip_add(g, h))) <= LAW_TOL

    @given(grey_values)
    def test_neutral_and_absorbing(self, f):
        assert lip_add(f, 0.0) == f
        assert abs(lip_add(f, M) - M) <= LAW_TOL

    @given(st.floats(min_value=0.0, max_value=255.0))
    def test_negation_cancels(self, f):
        assert abs(lip_add(f, lip_neg(f))) <= LAW_TOL

    @given(grey_values, st.floats(min_value=0.0, max_value=255.0))
    def test_sub_then_add_restores(self, f, g):
        assert abs(lip_add(lip_sub(f, g), g) - f) <= LAW_TOL

    @given(st.floats(min_value=0.0, max_value=255.0))
    def test_negation_involution(self, f):
        assert abs(lip_neg(lip_neg(f)) - f) <= LAW_TOL

    @given(grey_values, grey_values)
    def test_transmittance_product_law(self, f, g):
        lhs = transmittance(lip_add(f, g)) if lip_add(f, g) < M else 0.0
        rhs = transmittance(f) * transmittance(g) if f < M and g < M else 0.0
        assert abs(lhs - rhs) <= 1e-14


class TestMultiplicationLaws:
    @given(scalars, scalars, grey_values)
    def test_composition(self, lam, mu, f):
        # skip near-saturated results: recovering the transmittance from a
        # grey value within a few ulp of m is ill-conditioned by construction
        assume(lip_mult(mu, f) <= 255.99 and lip_mult(lam * mu, f) <= 255.99)
        assert abs(lip_mult(lam, lip_mult(mu, f)) - lip_mult(lam * mu, f)) <= LAW_TOL

    @given(scalars, grey_values, grey_values)
    def test_distributes_over_addition(self, lam, f, g):
        lhs = lip_mult(lam, lip_add(f, g))
        rhs = lip_add(lip_mult(lam, f), lip_mult(lam, g))
        assert abs(lhs - rhs) <= LAW_TOL


class TestIsomorphismLaws:
    @given(grey_values, grey_values)
    def test_additive_morphism(self, f, g):
        lhs = xi(lip_add(f, g))
        rhs = xi(f) + xi(g)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    @given(scalars, grey_values)
    def test_scaling_morphism(self, lam, f):
        assume(lip_mult(lam, f) <= 255.99)
        lhs = xi(lip_mult(lam, f))
        rhs = lam * xi(f)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    @given(st.floats(min_value=-1e6, max_value=255.9))
    def test_round_trip(self, f):
        assert abs(xi_inv(xi(f)) - f) <= 1e-12 * (M + abs(f))

    @given(strict_values, strict_values)
    @example(0.5000000000000001, 0.5)  # one ulp apart: 1 - f/m rounds them together
    def test_order_preserving(self, f, g):
        assert (f <= g) == (xi(f) <= xi(g))

    @given(strict_values)
    def test_xi_is_minus_m_tilde(self, f):
        assert xi(f) == -M * tilde(f)


class TestEq25Identity:
    @given(grey_values, st.floats(min_value=0.5, max_value=256.0))
    def test_identity_holds(self, f, b):
        out = complement_difference_identity(f, b)
        assert abs(out - M * (1.0 - f / b)) <= 1e-9 * M

    def test_raster_form(self, rng):
        f = rng.uniform(0.0, 256.0, size=(16, 16))
        b = rng.uniform(0.5, 256.0, size=(16, 16))
        out = complement_difference_identity(f, b)
        assert np.max(np.abs(out - M * (1.0 - f / b))) <= 1e-9 * M

    def test_detects_violation(self):
        with pytest.raises(VerificationError):
            complement_difference_identity(100.0, 150.0, tol=1e-30)


def test_scalar_in_scalar_out():
    assert isinstance(lip_add(1.0, 2.0), float)
    out = lip_add(np.array([[1.0, 2.0]]), 3.0)
    assert isinstance(out, np.ndarray) and out.shape == (1, 2)
