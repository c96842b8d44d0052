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

from conftest import traced_peak

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


# every public function, with the operand an edge value is put into; the
# other operands hold M / 2, which every function accepts
HALF = np.array([[M / 2, M / 2]])
EDGE_CALLS = {
    "lip_add f": lambda v: lip_add(v, HALF),
    "lip_add g": lambda v: lip_add(HALF, v),
    "lip_mult lam": lambda v: lip_mult(v, HALF),
    "lip_mult f": lambda v: lip_mult(2.0, v),
    "lip_neg": lip_neg,
    "lip_sub f": lambda v: lip_sub(v, HALF),
    "lip_sub g": lambda v: lip_sub(HALF, v),
    "transmittance": transmittance,
    "tilde": tilde,
    "hat": hat,
    "hat_inv": hat_inv,
    "xi": xi,
    "xi_inv": xi_inv,
    "complement": complement,
    "identity f": lambda v: complement_difference_identity(v, HALF),
    "identity b": lambda v: complement_difference_identity(HALF, v),
}
EDGES = {
    "nan": np.nan,
    "-inf": -np.inf,
    "+inf": np.inf,
    "m": M,
    "above m": np.nextafter(M, np.inf),
    "negative": -1.0,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("call", EDGE_CALLS)
def test_edge_inputs_total(call, edge):
    """A NaN-free result, or a domain error naming the first bad cell; never a NaN or a warning."""
    v = np.array([[M / 2, EDGES[edge]]]) if call != "lip_mult lam" else EDGES[edge]
    try:
        out = EDGE_CALLS[call](v)
    except DomainError as exc:
        assert call == "lip_mult lam" or "at cell (0, 1)" in str(exc)
        return
    assert not np.isnan(out).any()


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


# The formulas the one-buffer transforms replace, under the error states the library sets
def _literal_tilde(f, m):
    with np.errstate(divide="ignore"):
        return np.log1p(-f / m)


def _literal_hat(f, m):
    with np.errstate(divide="ignore"):
        return np.log(-np.log1p(-f / m))


def _literal_hat_inv(y, m):
    with np.errstate(over="ignore"):
        return -m * np.expm1(-np.exp(y))


def _literal_xi(f, m):
    with np.errstate(divide="ignore"):
        return -m * np.log1p(-f / m)


def _literal_xi_inv(f, m):
    with np.errstate(over="ignore"):
        return -m * np.expm1(-f / m)


def _literal_lip_add(f, g, m):
    return f + g - f * g / m


def _literal_lip_mult(lam, f, m):
    with np.errstate(divide="ignore"):
        return m - m * (1.0 - f / m) ** lam


LIP_MULT_EXPONENTS = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0, 1.7, -2.5, 1e-300, np.inf, -np.inf)


# name: (function, literal formula, the inputs its regime admits)
TRANSFORMS = {
    "tilde": (tilde, _literal_tilde, lambda x, m: 0 <= x <= m),
    "hat": (hat, _literal_hat, lambda x, m: 0 <= x <= m),
    "hat_inv": (hat_inv, _literal_hat_inv, lambda x, m: True),
    "xi": (xi, _literal_xi, lambda x, m: x <= m),
    "xi_inv": (xi_inv, _literal_xi_inv, lambda x, m: True),
}
ONE_BUFFER_SCALES = (1e-6, 256.0, 1e200)


def _edges(m):
    return [0.0, m, -np.inf, 0.0, -0.0, 5e-324, -1e300, m / 3]


def _outcome(call):
    """The result's bytes, or the class and message of what it raised (warnings count)."""
    try:
        return np.asarray(call(), dtype=np.float64).tobytes()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


def _lip_add_operands(m):
    ok = [x for x in _edges(m) if -np.inf < x <= m]
    return np.meshgrid(ok, ok)


class TestOneBuffer:
    """The transforms, ``lip_add`` and ``lip_mult`` write into a fresh output, never into their input, bit for bit as before."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", ONE_BUFFER_SCALES)
    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_equals_literal_formula(self, name, m):
        fn, literal, admits = TRANSFORMS[name]
        xs = [x for x in _edges(m) if admits(x, m)]
        arr = np.array(xs)
        assert _outcome(lambda: fn(arr, m)) == _outcome(lambda: literal(arr, m))
        for x in xs:
            assert _outcome(lambda: fn(x, m)) == _outcome(lambda: literal(np.asarray(x), m))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", ONE_BUFFER_SCALES)
    def test_lip_add_equals_literal_formula(self, m):
        f, g = _lip_add_operands(m)
        for a, b in ((f, g), (f, m / 3), (-0.0, g)):
            assert _outcome(lambda: lip_add(a, b, m)) == _outcome(lambda: _literal_lip_add(a, b, m))
        for a, b in zip(f.ravel(), g.ravel()):
            assert _outcome(lambda: lip_add(float(a), float(b), m)) == _outcome(
                lambda: _literal_lip_add(np.asarray(a), np.asarray(b), m)
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", ONE_BUFFER_SCALES)
    def test_lip_mult_equals_literal_formula(self, m):
        # a scalar takes the array loop of ``**`` too, so it equals the formula on a one-cell array
        f = np.array([x for x in _edges(m) if 0 <= x <= m] + [np.nextafter(m, 0)])
        for lam in LIP_MULT_EXPONENTS:
            assert _outcome(lambda: lip_mult(lam, f, m)) == _outcome(lambda: _literal_lip_mult(lam, f, m))
            for x in f:
                assert _outcome(lambda: lip_mult(lam, float(x), m)) == _outcome(
                    lambda: _literal_lip_mult(lam, np.array([x]), m)
                )

    def test_lip_mult_holds_one_raster(self):
        f = np.random.default_rng(4).uniform(10.0, 240.0, size=(512, 512))
        f.setflags(write=False)
        out = []
        assert traced_peak(lambda: out.append(lip_mult(2.0, f, M))) < 1.1 * f.nbytes
        assert not np.shares_memory(out[0], f)

    def test_lip_add_holds_one_raster(self):
        # the output and one block of scratch; a transposed operand adds one gathered block, never a copy
        f = np.random.default_rng(5).uniform(-300.0, 250.0, size=(1024, 1024))
        f.setflags(write=False)
        for a, b in ((f, 30.0), (30.0, f), (f.T, 30.0), (f, f.T)):
            out = []
            assert traced_peak(lambda: out.append(lip_add(a, b, M))) < 1.1 * f.nbytes
            assert not np.shares_memory(out[0], f)

    @staticmethod
    def inputs(m, writable):
        a = np.array([[x for x in _edges(m) if 0 <= x <= m]] * 2)
        a.setflags(write=writable)
        return a

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_input_untouched(self, name, writable):
        a = self.inputs(M, writable)
        before = a.tobytes()
        out = TRANSFORMS[name][0](a, M)
        assert a.tobytes() == before and not np.shares_memory(out, a)

    @pytest.mark.parametrize("writable", [True, False])
    def test_lip_add_inputs_untouched(self, writable):
        a, b = self.inputs(M, writable), self.inputs(M, writable)[:, ::-1]
        before = a.tobytes(), b.tobytes()
        for out in (lip_add(a, b, M), lip_add(a, 10.0, M), lip_add(10.0, b, M)):
            assert (a.tobytes(), b.tobytes()) == before
            assert not np.shares_memory(out, a) and not np.shares_memory(out, b)

    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_scalar_gives_float(self, name):
        fn = TRANSFORMS[name][0]
        for x in (100.0, np.float64(100.0), np.array(100.0)):
            assert type(fn(x, M)) is float
        assert type(lip_add(np.float64(1.0), np.array(2.0), M)) is float


#: Element counts around ``lip_add``'s block of 2**15 output cells, each with a 2-D shape of that size.
BLOCK_SIZES = {2**15 - 1: (217, 151), 2**15: (128, 256), 2**15 + 1: (99, 331), 3 * 2**15 + 7: (17, 5783)}


def _block_operand(rng, shape, m, layout):
    """A read-only FMm operand of ``shape`` in the given memory layout, with edge values at the block seams."""
    n = int(np.prod(shape))
    flat = rng.uniform(-2.0, 1.0, size=n) * m
    for i, x in zip((0, 2**15 - 1, 2**15, n - 1), (m, 0.0, -0.0, m / 3)):
        flat[min(i, n - 1)] = x
    values = flat.reshape(shape)
    if layout == "transposed":
        values = np.ascontiguousarray(values.T).T
    elif layout == "strided":
        base = np.zeros(shape[:-1] + (2 * shape[-1],))
        base[..., ::2] = values
        values = base[..., ::2]
    values.setflags(write=False)
    return values


class TestLipAddBlocks:
    """``lip_add`` fills its output block by block, bit for bit the formula, on every layout."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", ONE_BUFFER_SCALES)
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_equals_literal_formula_across_blocks(self, size, layout, m):
        rng = np.random.default_rng(size)
        shapes = [BLOCK_SIZES[size]] + ([(size,)] if layout != "transposed" else [])
        for shape in shapes:
            f, g = _block_operand(rng, shape, m, layout), _block_operand(rng, shape, m, "contiguous")
            before = f.tobytes(), g.tobytes()
            for a, b in ((f, g), (g, f), (f, f), (f, m / 3), (m / 3, f), (f, -0.0), (f, m)):
                # warnings as errors: an overflow at m = 1e200 must raise in both, the same way
                assert _outcome(lambda: lip_add(a, b, m)) == _outcome(lambda: _literal_lip_add(a, b, m))
                with np.errstate(over="ignore"):
                    assert lip_add(a, b, m).tobytes() == _literal_lip_add(a, b, m).tobytes()
            assert (f.tobytes(), g.tobytes()) == before

    def test_empty_zero_d_and_three_d_operands(self):
        assert lip_add(np.full((3, 0), 10.0), 5.0, M).shape == (3, 0)
        assert lip_add(np.array(10.0), 5.0, M) == lip_add(10.0, 5.0, M) == _literal_lip_add(10.0, 5.0, M)
        f = np.full((2, 3, 2**14 + 1), 10.0).transpose(2, 0, 1)
        out = lip_add(f, 5.0, M)
        assert out.shape == (2**14 + 1, 2, 3) and out.flags.c_contiguous
        assert out.tobytes() == _literal_lip_add(f, 5.0, M).tobytes()
