"""File formats: PGM parsing, fmap/probe round trips, error positions."""

import numpy as np
import pytest

from lipmaps import (
    DistanceMap,
    FmMap,
    GreyImage,
    ParseError,
    Probe,
    RealMap,
    RegimeError,
    darken,
    make_canvas,
    make_ring_probe,
    map_add,
    plant_target,
    read_image,
    read_map,
    read_pgm,
    read_probe,
    write_image,
    write_map,
    write_probe,
)
from lipmaps import cli


def reference_fmap(values, m):
    """The ``fmap`` bytes, one ``format(v, ".17g")`` per cell."""
    lines = [f"fmap {values.shape[1]} {values.shape[0]} {format(m, '.17g')}"]
    lines += [" ".join(format(float(v), ".17g") for v in row) for row in values]
    return ("\n".join(lines) + "\n").encode("ascii")


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


class TestFmap:
    def test_documented_single_cell(self, tmp_path):
        p = tmp_path / "m.fmap"
        write_map(DistanceMap(np.zeros((1, 1)), None, 256.0), p)
        assert p.read_text() == "fmap 1 1 256\n0\n"

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
        text = p.read_text()
        assert "inf" in text and "-inf" in text
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
        p.write_text("fmap 2 2 256\n1 2\n")
        with pytest.raises(ParseError, match="row lines"):
            read_map(p)
        p.write_text("fmap 2 1 256\n1 2 3\n")
        with pytest.raises(ParseError, match="cells"):
            read_map(p)
        p.write_text("pmaf 1 1 256\n0\n")
        with pytest.raises(ParseError, match="header"):
            read_map(p)

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "bad.fmap"
        p.write_text("fmap 1 1 256\nnan\n")
        with pytest.raises(ParseError, match="NaN"):
            read_map(p)

    def test_pgm8_mode(self, tmp_path):
        vals = np.array([[0.0, 5.0], [10.0, np.inf]])
        p = tmp_path / "v.pgm"
        write_map(RealMap(vals, None, 256.0), p, mode="pgm8")
        img = read_pgm(p)
        # finite cells min-max normalised; +inf clamps to 255
        assert img.values.tolist() == [[0.0, 128.0], [255.0, 255.0]]
        assert p.read_bytes() == b"P2\n2 2\n255\n0 128\n255 255\n"

    def test_pgm8_minus_inf_clamps_to_zero(self, tmp_path):
        vals = np.array([[-np.inf, 3.0, 7.0]])
        p = tmp_path / "v.pgm"
        write_map(DistanceMap(vals, None, 256.0), p, mode="pgm8")
        assert read_pgm(p).values.tolist() == [[0.0, 0.0, 255.0]]

    def test_pgm8_constant_map(self, tmp_path):
        p = tmp_path / "v.pgm"
        write_map(FmMap(np.full((2, 2), 3.0), None, 256.0), p, mode="pgm8")
        assert np.all(read_pgm(p).values == 0.0)

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            write_map(FmMap(np.zeros((1, 1)), None, 256.0), tmp_path / "x", mode="png")


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

    def test_strict_flag_rejects_value_m(self, tmp_path):
        p = tmp_path / "p.probe"
        p.write_text("probe 2 1 0 0 256\n150 256\n")
        read_probe(p)  # lenient load is fine
        with pytest.raises(RegimeError):
            read_probe(p, strict=True)


class TestFmapBulkAgreesWithScan:
    """The bulk row parser and writer against per-cell references."""

    @pytest.mark.parametrize("m", [256.0, 1e200])
    def test_write_map_bytes_match_format_17g(self, tmp_path, rng, m):
        vals = edge_floats(rng, (7, 9))
        p = tmp_path / "m.fmap"
        write_map(DistanceMap(vals, None, m), p)
        assert p.read_bytes() == reference_fmap(vals, m)
        back = read_map(p)
        assert np.array_equal(back.values.view(np.uint64), vals.view(np.uint64))
        assert back.m == m

    def test_write_image_bytes_match_format_17g(self, tmp_path, rng):
        m = 1e200
        vals = edge_floats(rng, (5, 6))
        vals = np.where(vals > m, m, vals)  # GreyImage holds values <= m only
        p = tmp_path / "i.fmap"
        write_image(GreyImage(vals, m), p)
        assert p.read_bytes() == reference_fmap(vals, m)
        back = read_image(p)
        assert np.array_equal(back.values.view(np.uint64), vals.view(np.uint64))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1 2\n3 x\n", "bad value token 'x' at row 1, column 1"),
            ("1 nan\n3\n", "NaN not allowed at row 0, column 1"),
            ("1 2\n3\n", "row 1: expected 2 cells, found 1"),
            ("1 2 3\n4 5\n", "row 0: expected 2 cells, found 3"),
            ("1 x\n3 nan\n", "bad value token 'x' at row 0, column 1"),
            ("nan x\n1 2\n", "NaN not allowed at row 0, column 0"),
        ],
    )
    def test_first_error_in_row_major_order(self, tmp_path, body, message):
        p = tmp_path / "bad.fmap"
        p.write_text("fmap 2 2 256\n" + body)
        with pytest.raises(ParseError) as exc:
            read_map(p)
        assert str(exc.value) == message

    def test_crlf_and_blank_lines_between_rows(self, tmp_path):
        p = tmp_path / "m.fmap"
        p.write_bytes(b"fmap 2 2 256\r\n1 -inf\r\n\r\n  \r\n1e400 1_0\r\n")
        assert read_map(p).values.tolist() == [[1.0, -np.inf], [np.inf, 10.0]]


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
    assert dark_fmap.read_bytes() == reference_fmap(dark.values, 256.0)
    assert map_fmap.read_bytes() == reference_fmap(map_add(dark, probe).values, 256.0)
    first = capsys.readouterr().out.split("\n", 1)[0].split()
    assert first[:2] == [str(anchor[1]), str(anchor[0])]
