"""Full-raster checks: a passing raster costs reductions only, a failing one names its first bad cell.

Every check first reduces the raster (``max``, and ``min`` where a lower
bound applies) and builds a bool mask only when a reduction fails.  These
tests pin both halves: the memory a passing check takes, and the exact
error of a raster whose only bad cell is its last, where the reduction is
the only pass that sees it.
"""

import numpy as np
import pytest
from conftest import M, binary_fmap, full_probe, traced_peak

from lipmaps import (
    DistanceMap,
    FmMap,
    GreyImage,
    RealMap,
    detect_minima,
    lip_neg,
    lip_sub,
    map_add_via_mult,
    map_mult_via_add,
    read_image,
    read_map,
    read_pgm,
    xi,
)
from lipmaps.errors import DomainError, ParseError, RegimeError, SingularityError
from lipmaps.lip import require_regime

N = 300  # every failing raster is N x N, its only bad cell the last

BOUNDS = {
    "I": "[0, 256.0[",
    "I*": "]0, 256.0[",
    "Ibar": "[0, 256.0]",
    "FM": "]-inf, 256.0[",
    "FMm": "]-inf, 256.0]",
    "FMbar": "[-inf, 256.0]",
}


def last_bad(value, fill=128.0):
    v = np.full((N, N), fill)
    v[-1, -1] = value
    return v


class TestPassingCheckMemory:
    """A passing check holds no raster-sized bool: its peak stays below 1/16 of the raster's bytes."""

    @pytest.mark.parametrize("regime", sorted(BOUNDS))
    def test_require_regime(self, rng, regime):
        v = rng.uniform(0.1, 0.9, size=(512, 512)) * M
        assert traced_peak(lambda: require_regime(v, M, regime)) < v.nbytes // 16

    @pytest.mark.parametrize("rect", [(2, 510, 2, 510), None], ids=["map", "image"])
    @pytest.mark.parametrize("read", [read_map, read_image])
    def test_readers_peak_at_their_values(self, rng, tmp_path, rect, read):
        values = rng.uniform(-2.0, 0.9, size=(512, 512)) * M
        p = tmp_path / "f.fmap"
        p.write_bytes(binary_fmap(values, M, rect))
        assert traced_peak(lambda: read(p)) < values.nbytes + values.nbytes // 16


LAST = "at cell (299, 299)"


def _regime_failures():
    """``(name, call, error class, message)`` of ``require_regime`` on each regime's bad last cells."""
    bad = {
        "NaN": (np.nan, BOUNDS),
        "-inf": (-np.inf, ("I", "I*", "Ibar", "FM", "FMm")),
        "m": (M, ("I", "I*", "FM")),
        "above m": (257.0, ("Ibar", "FMm", "FMbar")),
        "zero": (0.0, ("I*",)),
        "negative": (-1.0, ("I", "I*", "Ibar")),
    }
    for kind, (value, regimes) in bad.items():
        for regime in regimes:
            text = "NaN" if np.isnan(value) else value
            yield (
                f"{regime} {kind}",
                lambda value=value, regime=regime: require_regime(last_bad(value), M, regime),
                RegimeError,
                f"image value {text} {LAST} outside regime {BOUNDS[regime]}",
            )


def _probe():
    return full_probe([[100.0]])


# (name, call, error class, message); each call sees an N x N raster whose last cell is its only bad one
FAILURES = [
    *_regime_failures(),
    ("1-D NaN", lambda: require_regime(last_bad(np.nan).ravel(), M, "FMbar", "f"), RegimeError,
     "f value NaN at index 89999 outside regime [-inf, 256.0]"),
    ("GreyImage NaN", lambda: GreyImage(last_bad(np.nan)), RegimeError,
     f"image value NaN {LAST} outside regime [-inf, 256.0]"),
    ("DistanceMap NaN", lambda: DistanceMap(last_bad(np.nan)), RegimeError,
     f"map value NaN {LAST} outside regime [-inf, inf]"),
    ("FmMap above m", lambda: FmMap(last_bad(257.0)), RegimeError,
     f"map value 257.0 {LAST} outside regime [-inf, 256.0]"),
    ("RealMap negative", lambda: RealMap(last_bad(-1.0, fill=2.0)), DomainError,
     f"negative value -1.0 {LAST} in a non-negative map"),
    ("RealMap negative among -inf markers", lambda: RealMap(last_bad(-1.0, fill=-np.inf)), DomainError,
     f"negative value -1.0 {LAST} in a non-negative map"),
    ("lip_neg m", lambda: lip_neg(last_bad(M)), SingularityError,
     f"f value equals m=256.0 {LAST}: LIP difference is singular there"),
    ("lip_sub m", lambda: lip_sub(last_bad(1.0), last_bad(M)), SingularityError,
     f"g value equals m=256.0 {LAST}: LIP difference is singular there"),
    ("link rounds to m near 0", lambda: map_mult_via_add(GreyImage(last_bad(1e-300)), _probe()), RegimeError,
     f"image value 1e-300 {LAST} is too close to 0: m - xi(value) rounds to m"),
    ("link rounds to m far below", lambda: map_add_via_mult(GreyImage(last_bad(-1e6)), _probe()), RegimeError,
     f"image value -1000000.0 {LAST} is too far below -m=256.0: xi_inv(m - value) rounds to m"),
]


class TestFailuresThroughTheReduction:
    @pytest.mark.parametrize("call, error, message", [pytest.param(*case[1:], id=case[0]) for case in FAILURES])
    def test_last_cell_named(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_p5_last_byte_above_maxval(self, tmp_path):
        pixels = np.full(N * N, 7, dtype=np.uint8)
        pixels[-1] = 201
        head = b"P5\n300 300\n200\n"
        p = tmp_path / "f.pgm"
        p.write_bytes(head + pixels.tobytes())
        with pytest.raises(ParseError) as exc:
            read_pgm(p)
        offset = len(head) + N * N - 1
        assert exc.value.offset == offset
        assert str(exc.value) == f"pixel value 201 exceeds maxval 200 (at byte offset {offset})"

    @pytest.mark.parametrize("read", [read_map, read_image])
    def test_fmap_last_cell_nan(self, tmp_path, read):
        p = tmp_path / "f.fmap"
        p.write_bytes(binary_fmap(last_bad(np.nan), M))
        with pytest.raises(ParseError) as exc:
            read(p)
        assert str(exc.value) == "NaN not allowed at row 299, column 299"

    @pytest.mark.parametrize("regime", ["I", "I*", "Ibar"])
    def test_first_bad_cell_named_before_a_last_nan(self, regime):
        v = last_bad(np.nan)
        v[0, 0] = -1.0
        with pytest.raises(RegimeError) as exc:
            require_regime(v, M, regime)
        assert str(exc.value) == f"image value -1.0 at cell (0, 0) outside regime {BOUNDS[regime]}"

    def test_first_m_named_before_a_last_m(self):
        v = last_bad(M)
        v[0, 1] = M
        with pytest.raises(SingularityError) as exc:
            lip_neg(v)
        assert str(exc.value) == "f value equals m=256.0 at cell (0, 1): LIP difference is singular there"

    def test_fmap_first_nan_named(self, tmp_path):
        v = last_bad(np.nan)
        v[0, 1] = np.nan
        p = tmp_path / "f.fmap"
        p.write_bytes(binary_fmap(v, M))
        with pytest.raises(ParseError) as exc:
            read_map(p)
        assert str(exc.value) == "NaN not allowed at row 0, column 1"

    def test_real_map_markers_pass(self):
        v = last_bad(-np.inf, fill=3.0)
        v[0, 0] = np.inf
        assert RealMap(v).values[-1, -1] == -np.inf

    @pytest.mark.parametrize("regime", sorted(BOUNDS))
    def test_empty_arrays_pass(self, regime):
        assert require_regime(np.empty(0), M, regime).shape == (0,)
        assert require_regime(np.empty((0, 3)), M, regime, mask=np.zeros((0, 3), dtype=bool)).shape == (0, 3)

    def test_empty_arrays_pass_the_lip_functions(self):
        assert lip_neg(np.empty(0)).shape == (0,)
        assert lip_sub(np.empty((2, 0)), np.empty((2, 0))).shape == (2, 0)
        assert xi(np.empty((0, 3))).shape == (0, 3)


class TestDetectOnARectangle:
    def test_non_square_rect_with_ties_matches_brute_force(self, rng):
        values = rng.integers(0, 4, size=(12, 20)).astype(np.float64)
        r0, r1, c0, c1 = 3, 10, 6, 17  # 7 x 11
        dist_map = DistanceMap(values, (r0, r1, c0, c1))
        for threshold in (0.0, 1.0, 2.0, np.inf):
            expected = sorted(
                (values[r, c], r, c) for r in range(r0, r1) for c in range(c0, c1) if values[r, c] <= threshold
            )
            got = [(d.value, d.row, d.col) for d in detect_minima(dist_map, threshold)]
            assert got == expected
        assert len(expected) == 7 * 11
