"""Command-line behaviour: outputs, determinism, and the exit-code contract."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import binary_fmap

import lipmaps
from lipmaps import cli
from lipmaps import (
    GreyImage,
    Probe,
    make_canvas,
    make_ring_probe,
    plant_target,
    read_map,
    write_image,
    write_probe,
)

M = 256.0


@pytest.fixture
def scene_files(tmp_path):
    canvas = make_canvas(24, 24, seed=21)
    probe = make_ring_probe(3, 1)
    scene = plant_target(canvas, probe, (12, 12))
    image_path = tmp_path / "scene.fmap"
    probe_path = tmp_path / "ring.probe"
    write_image(scene, image_path)
    write_probe(probe, probe_path)
    return str(image_path), str(probe_path)


@pytest.fixture
def tiny_files(tmp_path):
    """The documented 1x2 instance as files."""
    image_path = tmp_path / "f.fmap"
    probe_path = tmp_path / "b.probe"
    image_path.write_bytes(binary_fmap(np.array([[100.0, 200.0]]), M))
    probe_path.write_text("probe 2 1 0 0 256\n150 150\n")
    return str(image_path), str(probe_path)


class TestMapMult:
    def test_path_option_exits_2(self, scene_files, tmp_path):
        # map-mult has one way to compute the map; --path is not an option
        image, probe = scene_files
        out = tmp_path / "a.fmap"
        with pytest.raises(SystemExit) as exc:
            cli.main(["map-mult", "--image", image, "--probe", probe, "--out", str(out), "--path", "ratio"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_constant_inputs_give_zero_interior(self, tmp_path):
        image = tmp_path / "c.fmap"
        probe = tmp_path / "c.probe"
        image.write_bytes(binary_fmap(np.full((5, 5), 90.0), M))
        probe.write_text("probe 3 3 1 1 256\n70 70 70\n70 70 70\n70 70 70\n")
        out = tmp_path / "o.fmap"
        assert cli.main(["map-mult", "--image", str(image), "--probe", str(probe),
                         "--out", str(out)]) == 0
        got = read_map(str(out))
        assert np.all(got.values[1:4, 1:4] == 0.0)

    def test_zero_cell_without_clamp_exits_2(self, tmp_path, capsys):
        image = tmp_path / "z.pgm"
        image.write_text("P2\n2 1\n255\n0 128\n")
        probe = tmp_path / "p.probe"
        probe.write_text("probe 1 1 0 0 256\n100\n")
        out = str(tmp_path / "o.fmap")
        rc = cli.main(["map-mult", "--image", str(image), "--probe", str(probe), "--out", out])
        assert rc == 2
        assert "(0, 0)" in capsys.readouterr().err

    def test_zero_cell_with_clamp_succeeds(self, tmp_path):
        image = tmp_path / "z.pgm"
        image.write_text("P2\n2 1\n255\n0 128\n")
        probe = tmp_path / "p.probe"
        probe.write_text("probe 1 1 0 0 256\n100\n")
        out = str(tmp_path / "o.fmap")
        rc = cli.main(["--clamp", "0.5", "map-mult", "--image", str(image),
                       "--probe", str(probe), "--out", out])
        assert rc == 0

    def test_strict_probe_load(self, tmp_path, capsys):
        # the probe file loads; map_mult's regime check rejects its value m
        image = tmp_path / "i.fmap"
        image.write_bytes(binary_fmap(np.array([[100.0]]), M))
        probe = tmp_path / "p.probe"
        probe.write_text("probe 1 1 0 0 256\n256\n")
        out = str(tmp_path / "o.fmap")
        rc = cli.main(["map-mult", "--image", str(image), "--probe", str(probe), "--out", out])
        assert rc == 2
        assert "probe value 256.0 at cell (0, 0) outside regime ]0, 256.0[" in capsys.readouterr().err


class TestMapAdd:
    def test_planted_minimum_at_anchor(self, scene_files, tmp_path):
        image, probe = scene_files
        out = str(tmp_path / "o.fmap")
        assert cli.main(["map-add", "--image", image, "--probe", probe, "--out", out]) == 0
        got = read_map(out)
        assert got.values[12, 12] == 0.0
        assert np.unravel_index(np.argmin(got.values), got.shape) == (12, 12)

    def test_via_mult_option_exits_2(self, scene_files, tmp_path):
        # map-add has one way to compute the map; verify-link reports the multiplicative route's deviation
        image, probe = scene_files
        out = tmp_path / "a.fmap"
        with pytest.raises(SystemExit) as exc:
            cli.main(["map-add", "--image", image, "--probe", probe, "--out", str(out), "--via-mult"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_darkened_scene_same_argmin(self, scene_files, tmp_path):
        image, probe = scene_files
        dark = str(tmp_path / "dark.fmap")
        assert cli.main(["lighting", "--image", image, "--out", dark, "--add", "200"]) == 0
        out_a, out_b = str(tmp_path / "a.fmap"), str(tmp_path / "b.fmap")
        assert cli.main(["map-add", "--image", image, "--probe", probe, "--out", out_a]) == 0
        assert cli.main(["map-add", "--image", dark, "--probe", probe, "--out", out_b]) == 0
        a, b = read_map(out_a), read_map(out_b)
        assert np.unravel_index(np.argmin(a.values), a.shape) == np.unravel_index(
            np.argmin(b.values), b.shape
        )


class TestLighting:
    def test_add_zero_is_identity(self, scene_files, tmp_path):
        image, _ = scene_files
        out = str(tmp_path / "o.fmap")
        assert cli.main(["lighting", "--image", image, "--out", out, "--add", "0"]) == 0
        assert np.array_equal(read_map(out).values, read_map(image).values)

    def test_mult_one_is_identity(self, scene_files, tmp_path):
        image, _ = scene_files
        out = str(tmp_path / "o.fmap")
        assert cli.main(["lighting", "--image", image, "--out", out, "--mult", "1"]) == 0
        got, src = read_map(out).values, read_map(image).values
        assert np.max(np.abs(got - src)) <= 1e-12 * M

    def test_documented_darkening(self, tmp_path):
        image = tmp_path / "i.fmap"
        image.write_bytes(binary_fmap(np.array([[100.0]]), M))
        out = str(tmp_path / "o.fmap")
        assert cli.main(["lighting", "--image", str(image), "--out", out, "--add", "200"]) == 0
        assert read_map(out).values[0, 0] == 221.875

    def test_range_violations_exit_2(self, tmp_path):
        image = tmp_path / "i.fmap"
        image.write_bytes(binary_fmap(np.array([[100.0]]), M))
        out = str(tmp_path / "o.fmap")
        assert cli.main(["lighting", "--image", str(image), "--out", out, "--add", "256"]) == 2
        assert cli.main(["lighting", "--image", str(image), "--out", out, "--mult", "-2"]) == 2


class TestDetect:
    def make_map_file(self, tmp_path, scene_files):
        image, probe = scene_files
        out = str(tmp_path / "map.fmap")
        cli.main(["map-add", "--image", image, "--probe", probe, "--out", out])
        return out, probe

    def test_planted_sample_single_line(self, scene_files, tmp_path, capsys):
        out, probe = self.make_map_file(tmp_path, scene_files)
        rc = cli.main(["detect", "--map", out, "--threshold", str(1e-3 * M),
                       "--probe", probe])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["12 12 0"]

    def test_negative_threshold_empty_exit_1(self, scene_files, tmp_path, capsys):
        out, probe = self.make_map_file(tmp_path, scene_files)
        rc = cli.main(["detect", "--map", out, "--threshold", "-1"])
        assert rc == 1
        assert capsys.readouterr().out == ""

    def test_infinite_threshold_lists_all_full_overlap(self, scene_files, tmp_path, capsys):
        out, probe = self.make_map_file(tmp_path, scene_files)
        rc = cli.main(["detect", "--map", out, "--threshold", "inf", "--probe", probe])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == (24 - 6) * (24 - 6)  # ring radius 3 trims 3 per side

    def test_nan_threshold_exits_2(self, scene_files, tmp_path, capsys):
        out, _ = self.make_map_file(tmp_path, scene_files)
        assert cli.main(["detect", "--map", out, "--threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold must not be NaN" in captured.err

    def make_image_map_file(self, tmp_path, scene_files):
        """The map's values written by write_image, which stores no full-overlap rectangle."""
        out, probe = self.make_map_file(tmp_path, scene_files)
        image = tmp_path / "map_image.fmap"
        write_image(GreyImage(read_map(out).values, M), image)
        return str(image), probe

    def test_without_probe_all_cells_eligible(self, scene_files, tmp_path, capsys):
        out, _ = self.make_image_map_file(tmp_path, scene_files)
        rc = cli.main(["detect", "--map", out, "--threshold", "inf"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 24 * 24

    @pytest.mark.parametrize("bare", [False, True], ids=["stored-rectangle", "text-with-probe"])
    def test_full_overlap_from_file_or_probe(self, scene_files, tmp_path, capsys, bare):
        """A map from map-add brings its own region; a file without one takes the probe's."""
        make = self.make_image_map_file if bare else self.make_map_file
        out, probe = make(tmp_path, scene_files)
        argv = ["detect", "--map", out, "--threshold", "inf"]
        assert cli.main(argv + (["--probe", probe] if bare else [])) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == (24 - 6) * (24 - 6)

    def test_probe_disagreeing_with_stored_rectangle_exits_2(self, scene_files, tmp_path, capsys):
        out, _ = self.make_map_file(tmp_path, scene_files)
        other = tmp_path / "small.probe"
        write_probe(Probe(np.full((3, 3), 100.0), np.ones((3, 3), dtype=bool), (1, 1), M), other)
        rc = cli.main(["detect", "--map", out, "--threshold", "inf", "--probe", str(other)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "rectangle r0 r1 c0 c1 = 3 21 3 21, but the probe's is 1 23 1 23" in err


class TestVerifyLink:
    def test_seeded_random_instance(self, capsys):
        assert cli.main(["verify-link", "--random", "16", "16", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "verify-link: OK" in out

    def test_deterministic_given_seed(self, capsys):
        cli.main(["verify-link", "--random", "8", "8", "--seed", "3"])
        first = capsys.readouterr().out
        cli.main(["verify-link", "--random", "8", "8", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_documented_instance_metric_values(self, tiny_files, capsys):
        image, probe = tiny_files
        assert cli.main(["verify-link", "--image", image, "--probe", probe]) == 0
        out = capsys.readouterr().out
        assert "direct 1.121144 linked 1.121144" in out

    def test_corrupted_comparison_exits_3(self, scene_files, monkeypatch, capsys):
        image, probe = scene_files
        real = lipmaps.asplund.map_mult_via_add

        def corrupted(f, b):
            out = real(f, b)
            bad = np.array(out.values)
            bad[1, 1] += 1e-3
            return type(out)(bad, out.full_rect, out.m)

        monkeypatch.setattr(lipmaps.asplund, "map_mult_via_add", corrupted)
        rc = cli.main(["verify-link", "--image", image, "--probe", probe])
        assert rc == 3
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [("-1", "3"), ("3", "0")], ids=["W=-1", "H=0"])
    def test_random_size_below_one_exits_2(self, size, capsys):
        assert cli.main(["verify-link", "--random", *size]) == 2
        assert f"--random needs W >= 1 and H >= 1, got W={size[0]} H={size[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("files", [False, True], ids=["random", "files"])
    def test_no_full_overlap_cell_prints_nothing(self, files, tmp_path, capsys):
        # the window check comes before the maps, whose deviations would be over no full-overlap cell
        if files:
            image, probe = tmp_path / "f.fmap", tmp_path / "b.probe"
            image.write_bytes(binary_fmap(np.array([[100.0, 200.0]]), M))
            probe.write_text("probe 3 1 0 0 256\n150 150 150\n")
            args = ["--image", str(image), "--probe", str(probe)]
        else:
            args = ["--random", "2", "2"]
        assert cli.main(["verify-link", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no full-overlap cell" in captured.err

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["verify-link", "--random", "8", "8", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed must be a non-negative integer, got -1" in captured.err

    def test_probe_at_another_scale_exits_2(self, tmp_path, capsys):
        # the probe's window is a raster at the probe's scale, so its value 300 is no image cell
        image, probe = tmp_path / "f.fmap", tmp_path / "b.probe"
        image.write_bytes(binary_fmap(np.full((4, 4), 100.0), M))
        probe.write_text("probe 3 3 1 1 512\n" + "300 300 300\n" * 3)
        assert cli.main(["verify-link", "--image", str(image), "--probe", str(probe)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lipmaps: error: grey-scale bounds differ: 256.0 vs 512.0\n"

    def test_missing_arguments_exit_2(self):
        assert cli.main(["verify-link"]) == 2
        assert cli.main(["verify-link", "--image", "x.fmap"]) == 2


class TestErrorPaths:
    def test_unreadable_file_exit_2(self, tmp_path):
        out = str(tmp_path / "o.fmap")
        rc = cli.main(["map-add", "--image", str(tmp_path / "nope.fmap"),
                       "--probe", str(tmp_path / "nope.probe"), "--out", out])
        assert rc == 2

    def test_malformed_probe_exit_2(self, tmp_path, capsys):
        image = tmp_path / "i.fmap"
        image.write_bytes(binary_fmap(np.array([[100.0]]), M))
        probe = tmp_path / "p.probe"
        probe.write_text("probe 2 1 0 0 256\n_ _\n")
        rc = cli.main(["map-add", "--image", str(image), "--probe", str(probe),
                       "--out", str(tmp_path / "o.fmap")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_text_fmap_image_exits_2(self, tmp_path, capsys):
        image = tmp_path / "old.fmap"
        image.write_text("fmap 2 1 256\n100 200\n")
        probe = tmp_path / "b.probe"
        probe.write_text("probe 1 1 0 0 256\n150\n")
        rc = cli.main(["map-add", "--image", str(image), "--probe", str(probe),
                       "--out", str(tmp_path / "o.fmap")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "lipmaps: error: bad map header 'fmap 2 1 256', "
            "expected 'fmap <w> <h> <m> f8le [r0 r1 c0 c1]' (at byte offset 0)\n"
        )

    def test_non_ascii_probe_exits_2_from_the_module(self, tmp_path):
        # the module's __main__ path, as `python -m lipmaps.cli`: an error message, no traceback
        image = tmp_path / "i.fmap"
        image.write_bytes(binary_fmap(np.array([[100.0]]), M))
        probe = tmp_path / "p.probe"
        probe.write_bytes(b"probe 1 1 0 0 256\n\xff\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["map-add", "--image", str(image), "--probe", str(probe), "--out", str(tmp_path / "o.fmap")]
        cmd = [sys.executable, "-W", "error", "-m", "lipmaps.cli", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "lipmaps: error: non-ASCII byte b'\\xff' in probe file (at byte offset 18)\n"
        assert not (tmp_path / "o.fmap").exists()


class TestOneParser:
    """``main`` builds its parser once per process, and calls in sequence share no options."""

    SEQUENCE = (
        ["--clamp", "0.5", "map-mult", "--image", "f.fmap", "--probe", "b.probe", "--out", "clamped.fmap"],
        # without --clamp the 0 cell is rejected: a --clamp left over from the call before would admit it
        ["map-mult", "--image", "f.fmap", "--probe", "b.probe", "--out", "mult.fmap"],
        ["map-add", "--image", "f.fmap", "--probe", "b.probe", "--out", "add.fmap"],
        ["lighting", "--image", "f.fmap", "--out", "lit.fmap", "--add", "40"],
        # a --add left over from the call before would win over --mult
        ["lighting", "--image", "f.fmap", "--out", "lit.fmap", "--mult", "2"],
        ["lighting", "--image", "f.fmap", "--out", "both.fmap", "--add", "40", "--mult", "2"],
        ["detect", "--map", "add.fmap", "--threshold", "inf"],
    )

    @staticmethod
    def inputs(directory):
        values = np.linspace(0.0, 250.0, 6 * 7).reshape(6, 7)
        (directory / "f.fmap").write_bytes(binary_fmap(values, M))
        (directory / "b.probe").write_text("probe 3 3 1 1 256\n70 90 70\n90 120 90\n70 90 70\n")

    @staticmethod
    def files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_in_sequence_equal_separate_runs(self, tmp_path, monkeypatch, capsys):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        shared = tmp_path / "shared"
        shared.mkdir()
        self.inputs(shared)
        monkeypatch.chdir(shared)
        codes = []
        for i, argv in enumerate(self.SEQUENCE):
            # the files a separate process writes from the same files as this call starts from
            alone = tmp_path / f"alone{i}"
            alone.mkdir()
            for name, data in self.files(shared).items():
                (alone / name).write_bytes(data)
            proc = subprocess.run([sys.executable, "-m", "lipmaps.cli", *argv], cwd=alone, env=env,
                                  capture_output=True, text=True, timeout=120)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
            assert self.files(shared) == self.files(alone), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0, 0, 2, 0]
