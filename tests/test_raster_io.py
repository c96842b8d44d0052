"""File formats: PGM parsing, fmap/probe round trips, error positions."""

import errno
import os
import stat
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import binary_fmap, full_probe, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from lipmaps import (
    DistanceMap,
    DomainError,
    FmMap,
    GreyImage,
    LipError,
    ParseError,
    Probe,
    RealMap,
    RegimeError,
    darken,
    make_canvas,
    make_ring_probe,
    map_add,
    map_mult,
    plant_target,
    read_image,
    read_map,
    read_pgm,
    read_probe,
    write_image,
    write_map,
    write_pgm8,
    write_probe,
)
from lipmaps import cli


def edge_floats(rng, shape):
    """Random float64 bit patterns (NaN removed) with the edge values planted."""
    v = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    v = np.where(np.isnan(v), 1.5, v)
    edges = [5e-324, -5e-324, 2.2250738585072009e-308, -0.0, 0.0, np.inf, -np.inf, 1e308, -1e308]
    v.flat[: len(edges)] = edges
    return v


class TestPgm:
    def test_p2_one_pixel(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n1 1\n255\n128\n")
        img = read_pgm(p)
        assert img.values.tolist() == [[128.0]]
        assert img.m == 256.0

    def test_p5_zeros(self, tmp_path):
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P5\n3 2\n255\n" + bytes(6))
        img = read_pgm(p)
        assert img.shape == (2, 3) and np.all(img.values == 0.0)

    def test_p2_p5_parity(self, tmp_path, rng):
        vals = rng.integers(0, 256, size=(5, 7))
        p2 = tmp_path / "a.pgm"
        p5 = tmp_path / "b.pgm"
        rows = "\n".join(" ".join(str(v) for v in row) for row in vals)
        p2.write_text(f"P2\n7 5\n255\n{rows}\n")
        p5.write_bytes(b"P5 7 5 255\n" + bytes(int(v) for v in vals.ravel()))
        assert np.array_equal(read_pgm(p2).values, read_pgm(p5).values)

    def test_p5_raster_is_a_view_of_the_file_bytes(self, tmp_path):
        # the peak is the bytes read and the float64 values, with no
        # raster-sized copy of the bytes between them
        data = b"P5\n512 512\n255\n" + bytes(range(256)) * 1024
        p = tmp_path / "big.pgm"
        p.write_bytes(data)
        assert traced_peak(lambda: read_pgm(p)) < len(data) + 512 * 512 * 8 + 64 * 1024

    def test_comments_anywhere_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_text("P2 # magic\n# whole line\n2 1 # dims\n255\n7 9\n")
        assert read_pgm(p).values.tolist() == [[7.0, 9.0]]

    def test_maxval_over_255_rejected(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_text("P2\n1 1\n65535\n1234\n")
        with pytest.raises(ParseError, match="maxval"):
            read_pgm(p)

    def test_truncated_p5_reports_offset(self, tmp_path):
        p = tmp_path / "e.pgm"
        payload = b"P5\n2 2\n255\n" + bytes(3)
        p.write_bytes(payload)
        with pytest.raises(ParseError, match="byte offset") as exc:
            read_pgm(p)
        assert exc.value.offset == len(payload)

    def test_pixel_above_maxval(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_text("P2\n2 1\n100\n50 101\n")
        with pytest.raises(ParseError, match="exceeds maxval") as exc:
            read_pgm(p)
        assert exc.value.offset == 14
        assert str(exc.value) == "pixel value 101 exceeds maxval 100 (at byte offset 14)"

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("P2\n2 1\n255\n5 x\n", "expected pixel value, got b'x'", 13),
            ("P2\n1 1\n255\n" + "9" * 30 + "\n", f"pixel value {'9' * 30} exceeds maxval 255", 11),
            ("P2\n2 2\n255\n1 2 3\n", "unexpected end of file while reading pixel 3", 17),
            ("P2\n2 1\n255\n1 2 3\n", "trailing data after raster", 15),
        ],
    )
    def test_p2_body_error_offsets(self, tmp_path, text, message, offset):
        p = tmp_path / "bad.pgm"
        p.write_bytes(text.encode("ascii"))
        with pytest.raises(ParseError) as exc:
            read_pgm(p)
        assert exc.value.offset == offset
        assert str(exc.value) == f"{message} (at byte offset {offset})"

    def test_more_digits_than_int_converts(self, tmp_path):
        p = tmp_path / "long.pgm"
        p.write_bytes(b"P2\n1 1\n255\n" + b"9" * 5000 + b"\n")
        with pytest.raises(ParseError, match=r"expected pixel value, got b'9{5000}' \(at byte offset 11\)"):
            read_pgm(p)

    def test_p2_header_the_data_does_not_back_allocates_nothing(self, tmp_path):
        p = tmp_path / "huge.pgm"
        p.write_bytes(b"P2 100000 100000 255\n1 2\n")

        def read():
            with pytest.raises(ParseError, match=r"end of file while reading pixel 2 \(at byte offset 25\)"):
                read_pgm(p)

        assert traced_peak(read) < 1 << 20

    def test_comment_inside_p2_body(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_text("P2\n2 2\n255\n7 # first row\n9\n# second row\n0 255\n")
        assert read_pgm(p).values.tolist() == [[7.0, 9.0], [0.0, 255.0]]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_text("P6\n1 1\n255\n0\n")
        with pytest.raises(ParseError, match="magic"):
            read_pgm(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "h.pgm"
        p.write_text("P2\n3\n")
        with pytest.raises(ParseError, match="end of file"):
            read_pgm(p)

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"P2\nx 1\n255\n0\n", "expected unsigned integer for width, got b'x'", 3),
            (b"P2\n0 3\n255\n", "invalid dimensions 0x3", 6),
            (b"P5 1 1 255#\x00", "missing separator after maxval", 10),
            (b"P5 2 1 100\n\x05\xc8", "pixel value 200 exceeds maxval 100", 12),
        ],
    )
    def test_header_and_p5_error_offsets(self, tmp_path, data, message, offset):
        p = tmp_path / "bad.pgm"
        p.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            read_pgm(p)
        assert exc.value.offset == offset
        assert str(exc.value) == f"{message} (at byte offset {offset})"


class TestFmap:
    def test_documented_single_cell(self, tmp_path):
        p = tmp_path / "m.fmap"
        write_map(DistanceMap(np.ones((1, 1)), None, 256.0), p)
        assert p.read_bytes() == b"fmap 1 1 256 f8le 0 1 0 1\n" + bytes.fromhex("000000000000f03f")

    def test_round_trip_bit_exact(self, tmp_path, rng):
        vals = rng.uniform(-1e3, 1e3, size=(4, 6))
        vals[0, 0] = 1e-300
        vals[1, 1] = 0.1 + 0.2  # classic non-representable decimal
        p = tmp_path / "m.fmap"
        write_map(DistanceMap(vals, None, 256.0), p)
        back = read_map(p)
        assert np.array_equal(back.values, vals)
        assert back.m == 256.0
        assert back.full_mask.all()

    def test_infinities_round_trip(self, tmp_path):
        vals = np.array([[np.inf, -np.inf, 0.5]])
        p = tmp_path / "m.fmap"
        write_map(DistanceMap(vals, None, 256.0), p)
        body = bytes.fromhex("000000000000f07f" "000000000000f0ff" "000000000000e03f")
        assert p.read_bytes() == b"fmap 3 1 256 f8le 0 1 0 3\n" + body
        assert np.array_equal(read_map(p).values, vals)

    def test_write_image_read_image(self, tmp_path, rng):
        img = GreyImage(rng.uniform(-50, 255, size=(3, 3)), 256.0)
        p = tmp_path / "i.fmap"
        write_image(img, p)
        back = read_image(p)
        assert np.array_equal(back.values, img.values)
        assert back.m == img.m

    def test_read_image_dispatches_to_pgm(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_text("P2\n1 1\n255\n42\n")
        assert read_image(p).values.tolist() == [[42.0]]

    def test_read_image_unknown_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"\x89PNG")
        with pytest.raises(ParseError):
            read_image(p)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "bad.fmap"
        p.write_text("pmaf 1 1 256\n0\n")
        with pytest.raises(ParseError, match="header"):
            read_map(p)
        p.write_bytes(b"\x89PNG\r\n\x1a\n")  # not ASCII: still a ParseError
        with pytest.raises(ParseError, match="bad map header") as exc:
            read_map(p)
        assert exc.value.offset == 0

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "bad.fmap"
        p.write_bytes(binary_fmap(np.array([[np.nan]]), 256.0))
        with pytest.raises(ParseError, match="NaN"):
            read_map(p)

    @pytest.mark.parametrize("read", [read_map, read_image])
    def test_text_format_rejected(self, tmp_path, read):
        p = tmp_path / "old.fmap"
        p.write_text("fmap 2 1 256\n100 200\n")
        with pytest.raises(ParseError) as exc:
            read(p)
        assert exc.value.offset == 0
        assert str(exc.value) == (
            "bad map header 'fmap 2 1 256', expected 'fmap <w> <h> <m> f8le [r0 r1 c0 c1]'"
            " (at byte offset 0)"
        )

    def test_write_map_takes_no_mode(self, tmp_path):
        with pytest.raises(TypeError):
            write_map(FmMap(np.zeros((1, 1)), None, 256.0), tmp_path / "x", mode="pgm8")
        assert not (tmp_path / "x").exists()

    def test_pgm8_mode(self, tmp_path):
        vals = np.array([[0.0, 5.0], [10.0, np.inf]])
        p = tmp_path / "v.pgm"
        write_pgm8(RealMap(vals, None, 256.0), p)
        img = read_pgm(p)
        # finite cells min-max normalised; +inf clamps to 255
        assert img.values.tolist() == [[0.0, 128.0], [255.0, 255.0]]
        assert p.read_bytes() == b"P2\n2 2\n255\n0 128\n255 255\n"

    def test_pgm8_minus_inf_clamps_to_zero(self, tmp_path):
        vals = np.array([[-np.inf, 3.0, 7.0]])
        p = tmp_path / "v.pgm"
        write_pgm8(DistanceMap(vals, None, 256.0), p)
        assert read_pgm(p).values.tolist() == [[0.0, 0.0, 255.0]]

    def test_pgm8_constant_map(self, tmp_path):
        p = tmp_path / "v.pgm"
        write_pgm8(FmMap(np.full((2, 2), 3.0), None, 256.0), p)
        assert np.all(read_pgm(p).values == 0.0)

    def test_pgm8_image_view(self, tmp_path):
        p = tmp_path / "v.pgm"
        write_pgm8(GreyImage([[0.0, 128.0]]), p)
        assert p.read_bytes() == b"P2\n2 1\n255\n0 255\n"

    @pytest.mark.filterwarnings("error")
    def test_pgm8_span_past_the_largest_float(self, tmp_path):
        p = tmp_path / "v.pgm"
        write_pgm8(DistanceMap(np.array([[-1e308, 0.0, 1e308]])), p)
        assert p.read_bytes() == b"P2\n3 1\n255\n0 128 255\n"

    def test_pgm8_subnormal_span_keeps_its_precision(self, tmp_path):
        p = tmp_path / "v.pgm"
        write_pgm8(DistanceMap(np.array([[5e-324, 1e-323, 0.0]])), p)
        assert p.read_bytes() == b"P2\n3 1\n255\n128 255 0\n"


class TestProbeFormat:
    def test_documented_flat_probe(self, tmp_path):
        p = tmp_path / "p.probe"
        p.write_text("probe 1 2 0 0 256\n150\n150\n")
        probe = read_probe(p)
        assert probe.shape == (2, 1)
        assert probe.values.tolist() == [[150.0], [150.0]]
        assert probe.anchor == (0, 0)
        assert probe.mask.all()

    def test_underscores_and_anchor(self, tmp_path):
        p = tmp_path / "p.probe"
        p.write_text("probe 3 1 1 0 256\n_ 42 _\n")
        probe = read_probe(p)
        assert probe.mask.tolist() == [[False, True, False]]
        assert probe.anchor == (0, 1)

    def test_round_trip(self, tmp_path, rng):
        values = rng.uniform(1, 255, size=(3, 4))
        mask = rng.random((3, 4)) < 0.7
        mask[1, 2] = True
        probe = Probe(values, mask, (1, 2), 256.0)
        p = tmp_path / "p.probe"
        write_probe(probe, p)
        back = read_probe(p)
        assert np.array_equal(back.values, probe.values)
        assert np.array_equal(back.mask, probe.mask)
        assert back.anchor == probe.anchor and back.m == probe.m

    def test_all_underscores_rejected(self, tmp_path):
        p = tmp_path / "p.probe"
        p.write_text("probe 2 1 0 0 256\n_ _\n")
        with pytest.raises(ParseError, match="empty"):
            read_probe(p)

    def test_anchor_out_of_bounds(self, tmp_path):
        p = tmp_path / "p.probe"
        p.write_text("probe 2 1 2 0 256\n1 2\n")
        with pytest.raises(ParseError, match="anchor"):
            read_probe(p)

    def test_token_count_mismatch(self, tmp_path):
        p = tmp_path / "p.probe"
        p.write_text("probe 3 1 0 0 256\n1 2\n")
        with pytest.raises(ParseError, match="tokens"):
            read_probe(p)

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("", "empty probe file", 0),
            ("prob 1 1 0 0 256\n1\n", "bad probe header 'prob 1 1 0 0 256'", 0),
            ("probe 1 x 0 0 256\n1\n", "bad integer field in probe header 'probe 1 x 0 0 256'", 0),
            ("probe 0 1 0 0 256\n", "invalid dimensions 0x1", 0),
            ("probe 1 2 0 0 256\n1\n", "expected 2 grid lines, found 1", None),
            # header integers are ASCII digits only: no underscore, no sign
            (
                "probe 1_0 1 +0 0 2_56\n1_00 1 1 1 1 1 1 1 1 1\n",
                "bad integer field in probe header 'probe 1_0 1 +0 0 2_56'",
                0,
            ),
            ("probe 2 1 -0 0 256\n1 1\n", "bad integer field in probe header 'probe 2 1 -0 0 256'", 0),
            # values take float()'s grammar without underscores
            ("probe 1 1 0 0 2_56\n1\n", "bad value token '2_56' in probe header", None),
            ("probe 2 1 0 0 256\n1 1_00\n", "bad value token '1_00' at row 0, column 1", None),
            ("probe 1 1 0 0 256\n\xff\n", "non-ASCII byte b'\\xff' in probe file", 18),
        ],
    )
    def test_header_errors(self, tmp_path, text, message, offset):
        p = tmp_path / "p.probe"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParseError) as exc:
            read_probe(p)
        assert exc.value.offset == offset
        assert str(exc.value) == (message if offset is None else f"{message} (at byte offset {offset})")

    @pytest.mark.parametrize(
        "data, expected",
        [
            # lines end at \n, \r or \r\n, and tokens are separated by ASCII
            # whitespace (\v included) only, as in the PGM and fmap readers
            (b"probe 2 2 0 0 256\r\n150 151\r\n152\v153\r\n", [[150.0, 151.0], [152.0, 153.0]]),
            (b"probe 1 2 0 0 256\n150\x1c150\n", "expected 2 grid lines, found 1"),
            (b"probe 2 1 0 0 256\n150\x1f151\n", "row 0: expected 2 tokens, found 1"),
            (b"probe 1 2 0 0 256\n150\f151\n", "expected 2 grid lines, found 1"),
        ],
        ids=["crlf-vt", "x1c", "x1f", "form-feed"],
    )
    def test_separators(self, tmp_path, data, expected):
        p = tmp_path / "p.probe"
        p.write_bytes(data)
        if isinstance(expected, str):
            with pytest.raises(ParseError) as exc:
                read_probe(p)
            assert str(exc.value) == expected
        else:
            assert read_probe(p).values.tolist() == expected

    def test_grid_the_file_does_not_back_allocates_nothing(self, tmp_path):
        p = tmp_path / "p.probe"
        p.write_text("probe 100000000000 1 0 0 256\n1\n")

        def read():
            with pytest.raises(ParseError, match="row 0: expected 100000000000 tokens, found 1"):
                read_probe(p)

        assert traced_peak(read) < 1 << 20

    def test_every_float_reads_back(self, tmp_path, rng):
        # every string the writer prints is in the readers' number grammar
        values = edge_floats(rng, (6, 40))
        values[~np.isfinite(values)] = -0.0
        for m in (5e-324, 1e-6, 3.0000000000000004, 1e200, np.finfo(np.float64).max):
            probe = Probe(values, np.ones(values.shape, dtype=bool), (1, 2), m)
            write_probe(probe, tmp_path / "p.probe")
            back = read_probe(tmp_path / "p.probe")
            assert back.values.tobytes() == values.tobytes() and back.m == m

    def test_strict_flag_rejects_value_m(self, tmp_path):
        p = tmp_path / "p.probe"
        p.write_text("probe 2 1 0 0 256\n150 256\n")
        probe = read_probe(p)  # loading checks no regime
        with pytest.raises(RegimeError, match=r"probe value 256.0 at cell \(0, 1\)"):
            map_mult(GreyImage([[100.0, 100.0]]), probe)


class TestFmapBulkAgreesWithScan:
    """The binary body against a per-cell reference."""

    @pytest.mark.parametrize("m", [256.0, 1e200])
    def test_write_map_bytes_match_format_17g(self, tmp_path, rng, m):
        vals = edge_floats(rng, (7, 9))
        p = tmp_path / "m.fmap"
        write_map(DistanceMap(vals, None, m), p)
        assert p.read_bytes() == binary_fmap(vals, m, (0, 7, 0, 9))
        back = read_map(p)
        assert np.array_equal(back.values.view(np.uint64), vals.view(np.uint64))
        assert back.m == m

    def test_write_image_bytes_match_format_17g(self, tmp_path, rng):
        m = 1e200
        vals = edge_floats(rng, (5, 6))
        vals = np.where(vals > m, m, vals)  # GreyImage holds values <= m only
        p = tmp_path / "i.fmap"
        write_image(GreyImage(vals, m), p)
        assert p.read_bytes() == binary_fmap(vals, m)
        back = read_image(p)
        assert np.array_equal(back.values.view(np.uint64), vals.view(np.uint64))


class TestFmapBinary:
    """Malformed binary bodies and headers, and the stored full-overlap rectangle."""

    def write(self, tmp_path, head, body):
        p = tmp_path / "bad.fmap"
        p.write_bytes(head + body)
        return p

    @pytest.mark.parametrize("cut, found", [(-1, 47), (1, 49)])
    def test_body_byte_count(self, tmp_path, cut, found):
        head = b"fmap 3 2 256 f8le\n"
        body = np.arange(6.0).tobytes()
        p = self.write(tmp_path, head, body[:cut] if cut < 0 else body + bytes(cut))
        with pytest.raises(ParseError) as exc:
            read_map(p)
        assert str(exc.value) == f"binary body: expected 48 bytes, found {found} (at byte offset 18)"

    def test_huge_header_rejected_before_allocation(self, tmp_path):
        p = self.write(tmp_path, b"fmap 1000000 1000000 256 f8le\n", bytes(20))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="expected 8000000000000 bytes, found 20"):
                read_map(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unknown_encoding(self, tmp_path):
        p = self.write(tmp_path, b"fmap 1 1 256 f4be\n", bytes(8))
        with pytest.raises(ParseError) as exc:
            read_map(p)
        assert str(exc.value) == "unknown fmap body encoding 'f4be' (at byte offset 0)"

    def test_first_nan_cell_named(self, tmp_path):
        vals = np.zeros((3, 4))
        vals[1, 2] = vals[2, 0] = np.nan
        p = self.write(tmp_path, b"fmap 4 3 256 f8le\n", vals.tobytes())
        with pytest.raises(ParseError) as exc:
            read_map(p)
        assert str(exc.value) == "NaN not allowed at row 1, column 2"

    def test_header_without_newline(self, tmp_path):
        p = self.write(tmp_path, b"fmap 2 2 256 f8le", b" 0" * 4000)
        with pytest.raises(ParseError) as exc:
            read_map(p)
        assert str(exc.value) == (
            "map header has no newline within its first 4096 bytes (at byte offset 0)"
        )

    @pytest.mark.parametrize(
        "head, message",
        [
            (b"fmap 2 1 256 f8le 0 1 0\n", "bad map header 'fmap 2 1 256 f8le 0 1 0'"),
            (b"fmap 2 1 256 f8le 0 1 0 x\n", "bad integer field in map header"),
            (b"fmap 2 1 256 f8le 0 2 0 2\n", "rectangle 0 2 0 2 does not fit a 2x1 map"),
            (b"fmap 2 1 256 f8le 1 0 0 2\n", "rectangle 1 0 0 2 does not fit a 2x1 map"),
            (b"fmap 0 1 256 f8le\n", "invalid dimensions 0x1"),
            (b"fmap 1_0 1 256 f8le\n", "bad integer field in map header 'fmap 1_0 1 256 f8le'"),
            (b"fmap +1 1 256 f8le\n", "bad integer field in map header"),
            (b"fmap 1 2 2_56 f8le\n", "bad value token '2_56' in map header"),
        ],
    )
    def test_bad_header_fields(self, tmp_path, head, message):
        p = self.write(tmp_path, head, bytes(16))
        with pytest.raises(ParseError, match=message):
            read_map(p)

    def test_rectangle_round_trip(self, tmp_path):
        probe = make_ring_probe(2, 1)
        dist = map_add(GreyImage(np.full((6, 9), 100.0)), probe)
        p = tmp_path / "m.fmap"
        write_map(dist, p)
        assert p.read_bytes().startswith(b"fmap 9 6 256 f8le 2 4 2 7\n")
        back = read_map(p)
        assert back.full_rect == read_map(p, probe).full_rect == dist.full_rect == (2, 4, 2, 7)
        assert np.array_equal(back.full_mask, dist.full_mask)
        assert np.array_equal(read_image(p).values, dist.values)

    def test_empty_mask_is_zero_rectangle(self, tmp_path):
        dist = map_add(GreyImage(np.full((3, 3), 100.0)), make_ring_probe(2, 1))
        assert not dist.full_mask.any()
        p = tmp_path / "m.fmap"
        write_map(dist, p)
        assert p.read_bytes().startswith(b"fmap 3 3 256 f8le 0 0 0 0\n")
        assert not read_map(p).full_mask.any()

    def test_stored_empty_rectangle(self, tmp_path):
        # an empty rectangle is the empty region, whatever corners it names
        values = np.array([[1.5, 2.5]])
        p = self.write(tmp_path, b"fmap 2 1 256 f8le 1 1 0 2\n", values.tobytes())
        back = read_map(p)
        assert back.full_mask.shape == (1, 2) and not back.full_mask.any()
        again = tmp_path / "again.fmap"
        write_map(back, again)
        assert again.read_bytes() == binary_fmap(values, 256.0, (0, 0, 0, 0))
        # a 3x3 probe has no full-overlap cell on a 1x2 map; a 1x1 probe has both
        assert not read_map(p, full_probe(np.full((3, 3), 100.0))).full_mask.any()
        with pytest.raises(DomainError) as exc:
            read_map(p, full_probe([[100.0]]))
        assert str(exc.value) == (
            "map stores full-overlap rectangle r0 r1 c0 c1 = 1 1 0 2, but the probe's is 0 1 0 2"
        )

    @pytest.mark.parametrize("stored", [True, False], ids=["map", "image with a probe"])
    def test_read_map_holds_the_values_only(self, tmp_path, stored):
        # the full-overlap region is four integers, no mask raster, and the NaN
        # checks are reductions: the values and no raster besides
        values = np.zeros((512, 512))
        p = tmp_path / "m.fmap"
        p.write_bytes(binary_fmap(values, 256.0, (2, 510, 2, 510) if stored else None))
        probe = make_ring_probe(2, 1)
        assert traced_peak(lambda: read_map(p, probe)) < values.nbytes + 64 * 1024

    def test_probe_disagreeing_with_rectangle(self, tmp_path):
        p = tmp_path / "m.fmap"
        write_map(map_add(GreyImage(np.full((6, 9), 100.0)), make_ring_probe(2, 1)), p)
        with pytest.raises(DomainError) as exc:
            read_map(p, full_probe(np.full((3, 3), 100.0)))
        assert str(exc.value) == (
            "map stores full-overlap rectangle r0 r1 c0 c1 = 2 4 2 7, but the probe's is 1 5 1 8"
        )


def _map(values):
    return DistanceMap(values, (1, values.shape[0] - 1, 2, values.shape[1]), 256.0)


# each fmap writer, with the raster it writes made from float64 values
_FMAP_WRITERS = {"write_map": (write_map, _map), "write_image": (write_image, GreyImage)}


@pytest.mark.parametrize("writer", _FMAP_WRITERS)
class TestFmapOverAnOldFile:
    """The fmap writers write over an existing file in place, its magic last."""

    @pytest.mark.parametrize("old", ["longer", "shorter", "same size"])
    def test_bytes_of_a_fresh_write(self, tmp_path, rng, writer, old):
        write, raster = _FMAP_WRITERS[writer]
        new = raster(rng.uniform(0.0, 255.0, (6, 9)))
        fresh, p = tmp_path / "fresh.fmap", tmp_path / "old.fmap"
        write(new, fresh)
        size = len(fresh.read_bytes())
        if old == "same size":
            write(raster(rng.uniform(0.0, 255.0, (6, 9))), p)
        else:
            p.write_bytes(bytes(range(256)) * (size // 256 + 1) if old == "longer" else b"fmap 1")
        write(new, p)
        assert p.read_bytes() == fresh.read_bytes()

    def test_interrupted_body_leaves_a_file_no_reader_accepts(self, tmp_path, rng, monkeypatch, writer):
        write, raster = _FMAP_WRITERS[writer]
        old, new = (raster(rng.uniform(0.0, 255.0, (6, 9))) for _ in range(2))
        p = tmp_path / "m.fmap"
        write(old, p)
        size = len(p.read_bytes())
        contiguous = np.ascontiguousarray

        class HalfBody:
            """An array whose ``tofile`` writes half its bytes, then fails."""

            def __init__(self, values, dtype):
                self.body = contiguous(values, dtype=dtype).tobytes()

            def tofile(self, fh):
                fh.write(self.body[: len(self.body) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(np, "ascontiguousarray", HalfBody)
            with pytest.raises(OSError, match="No space left on device"):
                write(new, p)
        data = p.read_bytes()
        # half the new cells over the old ones, under a header with no magic
        assert len(data) == size and data.startswith(bytes(4))
        with pytest.raises(ParseError, match="bad map header"):
            read_map(p)
        with pytest.raises(ParseError, match="unrecognised image format"):
            read_image(p)

    def test_new_file_mode_as_open_gives_it(self, tmp_path, writer):
        write, raster = _FMAP_WRITERS[writer]
        umask = os.umask(0o027)
        try:
            write(raster(np.zeros((2, 3))), tmp_path / "new.fmap")
            with open(tmp_path / "reference", "wb"):
                pass
        finally:
            os.umask(umask)
        mode = stat.S_IMODE((tmp_path / "new.fmap").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference").stat().st_mode) == 0o640

    @pytest.mark.parametrize("where", ["missing/m.fmap", "."], ids=["missing directory", "directory"])
    def test_os_error_as_open_gives_it(self, tmp_path, writer, where):
        write, raster = _FMAP_WRITERS[writer]
        p = tmp_path / where
        with pytest.raises(OSError) as expected:
            open(p, "wb")
        with pytest.raises(type(expected.value)) as exc:
            write(raster(np.zeros((2, 3))), p)
        assert str(exc.value) == str(expected.value)

    def test_dev_null(self, writer):
        write, raster = _FMAP_WRITERS[writer]
        write(raster(np.zeros((2, 3))), os.devnull)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_gets_the_bytes_of_a_regular_file(self, tmp_path, rng, writer):
        write, raster = _FMAP_WRITERS[writer]
        values = raster(rng.uniform(0.0, 255.0, (100, 90)))  # a body longer than a 64 KiB pipe buffer
        fifo, regular = tmp_path / "fifo", tmp_path / "regular.fmap"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write(values, fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        write(values, regular)
        assert got == [regular.read_bytes()]


def test_cli_lighting_to_dev_null(tmp_path):
    scene = tmp_path / "scene.pgm"
    scene.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 17, 255, 128, 9, 64]))
    assert cli.main(["lighting", "--image", str(scene), "--out", os.devnull, "--add", "200"]) == 0


def test_cli_pipeline_writes_reference_bytes(tmp_path, capsys):
    """lighting, map-add and detect through the CLI, as the benchmark runs them."""
    probe = make_ring_probe(6, 3)
    anchor = (23, 40)
    scene = plant_target(make_canvas(64, 64, seed=5), probe, anchor)
    pixels = np.rint(scene.values).astype(np.uint8)
    scene_pgm, ring = tmp_path / "scene.pgm", tmp_path / "ring.probe"
    dark_fmap, map_fmap = tmp_path / "dark.fmap", tmp_path / "map.fmap"
    scene_pgm.write_bytes(b"P5\n64 64\n255\n" + pixels.tobytes())
    write_probe(probe, ring)

    steps = [
        ["lighting", "--image", scene_pgm, "--out", dark_fmap, "--add", "200"],
        ["map-add", "--image", dark_fmap, "--probe", ring, "--out", map_fmap],
        ["detect", "--map", map_fmap, "--threshold", "0.256", "--probe", ring],
    ]
    for argv in steps:
        assert cli.main([str(a) for a in argv]) == 0

    dark = darken(GreyImage(pixels.astype(np.float64)), 200.0)
    expected = map_add(dark, probe)
    assert dark_fmap.read_bytes() == binary_fmap(dark.values, 256.0)
    assert map_fmap.read_bytes() == binary_fmap(expected.values, 256.0, (6, 58, 6, 58))
    back = read_map(map_fmap)
    assert np.array_equal(back.values.view(np.uint64), expected.values.view(np.uint64))
    assert np.array_equal(back.full_mask, expected.full_mask)
    first = capsys.readouterr().out.split("\n", 1)[0].split()
    assert first[:2] == [str(anchor[1]), str(anchor[0])]


# one valid file per format, and the readers each is fed to
_PROBE_BYTES = b"probe 3 2 1 0 256\n150 _ 42.5\n1e-3 255.99999999999997 _\n"
_FMAP_VALUES = np.array([[1.5, -0.0, 256.0], [1e-300, -np.inf, 7.0]])
_VALID_FILES = {
    "P2": (b"P2\n# c\n3 2\n255\n0 17 255\n128 9 64\n", ("read_pgm", "read_image")),
    "P5": (b"P5 3 2 255\n" + bytes([0, 17, 255, 128, 9, 64]), ("read_pgm", "read_image")),
    "map": (binary_fmap(_FMAP_VALUES, 256.0, (0, 2, 1, 3)), ("read_map", "read_map probe", "read_image")),
    "image": (binary_fmap(_FMAP_VALUES, 256.0), ("read_map", "read_map probe", "read_image")),
    "probe": (_PROBE_BYTES, ("read_probe",)),
}
_READERS = {
    "read_pgm": read_pgm,
    "read_image": read_image,
    "read_map": read_map,
    "read_map probe": lambda p: read_map(p, full_probe(np.full((1, 2), 100.0), anchor=(0, 1))),
    "read_probe": read_probe,
}
_CONTAINERS = (GreyImage, DistanceMap, Probe)

# bytes the formats give meaning to, and any byte at all
_BYTES = st.one_of(st.sampled_from(list(b"0123456789 \t\n\r\f\v_+-.eEinfaP#\x00\x80\xff")), st.integers(0, 255))
_EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete", "cut"]), st.integers(0, 1 << 16), _BYTES),
    min_size=1,
    max_size=4,
)


def mutated(data, edits):
    """``data`` with each ``(kind, position, byte)`` edit applied in turn, positions taken modulo the length."""
    data = bytearray(data)
    for kind, at, byte in edits:
        at %= len(data) + 1
        if kind == "insert":
            data.insert(at, byte)
        elif kind == "cut":
            del data[at:]
        elif at < len(data):
            if kind == "set":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", _VALID_FILES)
@settings(max_examples=40, deadline=None)
@given(edits=_EDITS)
def test_mutated_files_give_a_container_or_a_lip_error(fmt, edits):
    data, readers = _VALID_FILES[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f"
        p.write_bytes(mutated(data, edits))
        for name in readers:
            try:
                out = _READERS[name](p)
            except LipError:
                continue
            assert isinstance(out, _CONTAINERS), name
