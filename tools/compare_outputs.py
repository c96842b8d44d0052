"""Compare the outputs of two lipmaps source trees on one seeded battery.

Usage::

    python tools/compare_outputs.py OLD_SRC NEW_SRC [--seed N] [--cases N] [--heights H,...]

``OLD_SRC`` and ``NEW_SRC`` are directories holding the ``lipmaps`` package
(the ``src`` directory of two checkouts).  Each is imported in its own
subprocess, with warnings turned into errors, and runs the same battery:
every public map, both link maps, ``dilate``, ``erode``, ``spread`` with
each choice of sides, and the ratio closed form of the multiplicative
bounds (``asplund._ratio_bounds`` after the bound maps' entry check
``asplund._require_mult``, the reference the tests check the kernel
against), at the scales m in {1e-6, 1, 256, 65536, 1e200}.  Images are strict, carry the edge values 0 and ``m``, run
below ``-m`` (with ``-0.0`` cells, and with or without ``-inf``, ``m``
and ``-1e300`` cells), or are quantised to a few levels; probes have
single-cell values, shared values in runs, negative values (with 0.0
and -0.0), off-mask anchors (one with empty windows in the last column),
more rows than one kernel strip, or reach no cell of the raster.
Raster heights cycle over ``--heights``, by default 1, 64, 65, 129 and
130: one row, one full kernel strip, two strips of 33 rows, three of 43,
and three of 44 whose last one computes two rows past the raster.  The
default of five cases per scale runs each of them once.
Each map result is written with ``write_map`` and each image with
``write_image``, and the file is read back with ``read_map`` (with and
without the probe) and with ``read_image``.  Every such write goes to
one ``out.fmap``, whose size changes with the raster's height and width
and with the header's rectangle, so the battery writes over longer,
shorter and same-size files; a longer old file pins the writer's
truncation.  Each probe, once per case, is written with ``write_probe``
and read back with ``read_probe``: the I/O round trips.  Each result is compared by the ``tobytes()`` of every array
it returns (the file's bytes, for a write), or by the class and message of
the exception it raised.

The check battery feeds each full-raster check a 300x300 raster whose only
bad cell is its last, where a check that reduces the raster first must
still name that cell: at every scale, one image per map, out of the regime
that map checks (``CHECK_LAST``, through the ``GreyImage`` container where
the map accepts all it holds), and an ``fmap`` whose last cell is NaN, read
with ``read_map`` and ``read_image``; ``lip_add`` with an ``f`` or a ``g``
whose last cell is NaN, ``-inf`` or above ``m`` (``CHECK_LAST_LIP``), beside
an array or a scalar, and an ``FmMap`` holding such values; and, for which
fault a check names first, ``lip_add`` of an ``f`` above ``m`` with a NaN
``g`` or a narrower one, and an ``FmMap`` with a NaN or a value above ``m``
and a rectangle that does not fit.  Once, a ``P5`` file whose last byte
exceeds its maxval, read with ``read_pgm`` and ``read_image``.

The ``lip`` battery runs ``lip_add`` across its block seams: at every
scale, at each element count of ``LIP_SIZES`` (one below, at and above
the 2**15-cell block, and three blocks and a part), 1-D and 2-D, on
row-major, transposed and strided operands with the edge values ``m``,
0, -0.0, 5e-324 and ``-1e300`` at the seams, with array and scalar
operands in both orders, once with overflow raising and once with it
ignored.  Its results are compared by a SHA-256 digest of each array.

The CLI battery runs ``lipmaps.cli.main`` in the same process: on the first
case of each scale, every probe kind with the strict, edge-valued and
below-zero images goes through ``map-mult``, ``map-add``, ``detect`` with
and without ``--probe``, ``lighting --add`` and ``--mult``, and
``verify-link --image/--probe``, some under ``--clamp``, and writes a map
into a missing directory and an image to a directory path.  Each command
that wrote a file then runs twice more: once over its own output, and
once over a longer file of junk bytes placed under the same name, so that
writing over an existing file must give a fresh write's bytes.  Each case
also runs ``verify-link --random W H --seed N``, and each scale once runs
``lighting --add`` on a ``LIP_BIG`` image, larger than one ``lip_add``
block.  The CLI's working directory is the temporary directory and its
file names are relative, so that messages match across trees.  Each run is compared by its exit code, stdout, stderr
and the bytes of every file it wrote.  The script prints the counts and
the first mismatches, and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

SCALES = (1e-6, 1.0, 256.0, 65536.0, 1e200)


def images(rng, shape, m):
    """``(name, values)`` of each image kind, values relative to ``m``."""
    import numpy as np

    strict = rng.uniform(0.001, 0.999, size=shape) * m
    edges = strict.copy()
    edges.flat[rng.integers(edges.size, size=2)] = (0.0, m)
    below = rng.uniform(-3.0, 0.999, size=shape) * m
    below.flat[::3] = -0.0  # ties with the zeros of the probes: a zero's sign is compared
    closure = below.copy()
    closure.flat[rng.integers(closure.size, size=3)] = (-np.inf, m, -1e300 * min(m, 1.0))
    levels = np.array([0.1, 0.3, 0.5, 0.9]) * m
    quantised = levels[rng.integers(4, size=shape)]
    return [("strict", strict), ("edges", edges), ("below", below), ("closure", closure), ("quantised", quantised)]


def probes(rng, shape, m):
    """``(name, values, mask, anchor)`` of each probe kind."""
    import numpy as np

    h = shape[0]
    single = rng.uniform(0.001, 0.999, size=(3, 5)) * m
    runs = (np.array([0.2, 0.6]) * m)[rng.integers(2, size=(5, 9))]
    runs[:, 2:6] = 0.4 * m
    holes = rng.random((4, 7)) < 0.8
    holes[1, 3] = False
    negative = rng.uniform(-2.0, 0.9, size=(2, 3)) * m
    negative[0, 0], negative[1, 2] = 0.0, -0.0
    far = np.zeros((h + 3, 3))
    far[-1] = rng.uniform(0.1, 0.9, size=3) * m
    far_mask = np.zeros(far.shape, dtype=bool)
    far_mask[-1] = True
    tall = rng.uniform(0.001, 0.999, size=(70, 3)) * m
    tall_mask = rng.random(tall.shape) < 0.1
    tall_mask[[0, -1], 1] = True
    # cells only right of the anchor, which is off the mask: the last column's windows are empty
    empty = np.zeros((2, 4))
    empty[:, 1:] = rng.uniform(0.001, 0.999, size=(2, 3)) * m
    empty[:, 1] = empty[:, 1].min()  # one value shared by two cells, the others single
    empty_mask = empty != 0
    full = np.ones
    return [
        ("single", single, full(single.shape, dtype=bool), (1, 2)),
        ("runs", runs, full(runs.shape, dtype=bool), (2, 4)),
        ("off-anchor", rng.uniform(0.001, 0.999, size=holes.shape) * m, holes, (1, 3)),
        ("negative", negative, full(negative.shape, dtype=bool), (0, 1)),
        ("no-cell", far, far_mask, (0, 1)),
        ("tall", tall, tall_mask, (35, 1)),
        ("empty-window", empty, empty_mask, (0, 0)),
    ]


#: Last cell, relative to ``m``, of each map's check image: outside the
#: regime the map checks, or, for the link maps, a cell whose transform rounds to ``m``.
CHECK_LAST = {
    "mlub_mult": -float("inf"),
    "mglb_mult": -1e-3,
    "map_mult": 0.0,
    "mlub_add": float("nan"),
    "mglb_add": 2.0,
    "map_add": -float("inf"),
    "map_mult_via_add": 1e-300,
    "map_add_via_mult": -1e6,
}
CHECK_SHAPE = (300, 300)  # every raster of the check battery
#: Last cell, relative to ``m``, of the check battery's ``lip_add`` operands and ``FmMap`` values.
CHECK_LAST_LIP = {"NaN": float("nan"), "-inf": -float("inf"), "above m": 2.0}

#: Element counts of the ``lip`` battery around ``lip_add``'s block of 2**15
#: output cells, each with a 2-D shape of that size.
LIP_SIZES = {2**15 - 1: (217, 151), 2**15: (128, 256), 2**15 + 1: (99, 331), 3 * 2**15 + 7: (17, 5783)}
LIP_BIG = (181, 182)  # the CLI's ``lighting --add`` raster, larger than one block

#: Image kinds the CLI battery runs, with every probe kind, on the first case of
#: each scale: maps that succeed, edge values that only ``--clamp`` admits to
#: ``map-mult``, values below 0.
CLI_IMAGES = ("strict", "edges", "below")


def cli_commands(m):
    """``(name, argv)`` of each command run on the input files ``f.fmap`` and ``b.probe``, in order.

    Each command writes a file of its own name, so that every file written shows as written.
    """
    eps, k, add_t = (repr(x) for x in (1e-3 * m, 0.3 * m, 0.8 * m))
    inputs = ["--image", "f.fmap", "--probe", "b.probe"]
    return [
        ("map-mult", ["map-mult", *inputs, "--out", "mult.fmap"]),
        ("map-add", ["map-add", *inputs, "--out", "add.fmap"]),
        ("clamp map-mult", ["--clamp", eps, "map-mult", *inputs, "--out", "clamped.fmap"]),
        ("detect add", ["detect", "--map", "add.fmap", "--threshold", "inf"]),
        ("detect add probe", ["detect", "--map", "add.fmap", "--threshold", add_t, "--probe", "b.probe"]),
        ("detect mult probe", ["detect", "--map", "clamped.fmap", "--threshold", "2.5", "--probe", "b.probe"]),
        ("lighting add", ["lighting", "--image", "f.fmap", "--out", "lit-add.fmap", "--add", k]),
        ("lighting mult", ["lighting", "--image", "f.fmap", "--out", "lit-mult.fmap", "--mult", "2"]),
        ("verify-link", ["verify-link", *inputs]),
        ("clamp verify-link", ["--clamp", eps, "verify-link", *inputs]),
        ("map-add missing directory", ["map-add", *inputs, "--out", "missing/add.fmap"]),
        ("lighting directory", ["lighting", "--image", "f.fmap", "--out", ".", "--add", k]),
    ]


def battery(lipmaps, seed, cases, heights, tmp):
    """``{case name: result}``; the names of I/O round trips start with ``io``, of CLI runs with ``cli``.

    The names of the check battery's results start with ``check``.  A result
    is a tuple of bytes, ``None`` for a side not asked for, or the
    ``(class, message)`` of the exception raised; a CLI run's is its exit
    code, stdout, stderr and the ``(name, bytes)`` of each file it wrote.
    Files go to directory ``tmp``; the CLI runs in its subdirectory ``cli``
    with relative file names, so that its messages name the same files in
    every tree.
    """
    import numpy as np

    from lipmaps import asplund, cli, morphology, raster_io

    maps = {
        "mlub_mult": asplund.mlub_mult,
        "mglb_mult": asplund.mglb_mult,
        "map_mult": asplund.map_mult,
        "mlub_add": asplund.mlub_add,
        "mglb_add": asplund.mglb_add,
        "map_add": asplund.map_add,
        "map_mult_via_add": asplund.map_mult_via_add,
        "map_add_via_mult": asplund.map_add_via_mult,
    }
    kernel = {
        "dilate": lambda f, b: (morphology.dilate(f, b),),
        "erode": lambda f, b: (morphology.erode(f, b),),
        "spread both": lambda f, b: morphology.spread(f, b),
        "spread hi": lambda f, b: morphology.spread(f, b, lo=False),
        "spread lo": lambda f, b: morphology.spread(f, b, hi=False),
    }

    def ratio_reference(f, b):
        asplund._require_mult(f, b, strict_image=False)
        return asplund._ratio_bounds(f, b)

    def run(call, arrays=lambda out: out):
        """``(call(), bytes of each array in arrays(call()))``, or ``None`` and the exception."""
        try:
            out = call()
            return out, tuple(None if a is None else a.tobytes() for a in arrays(out))
        except Exception as exc:  # compared by class and message
            return None, (type(exc).__name__, str(exc))

    path = os.path.join(tmp, "out.fmap")
    reads = {
        "read_map": lambda probe: raster_io.read_map(path),
        "read_map probe": lambda probe: raster_io.read_map(path, probe),
        "read_image": lambda probe: raster_io.read_image(path),
    }

    def fields(r):
        return r.values, getattr(r, "full_mask", None), np.float64(r.m)

    def written(write, obj, path=path):
        write(obj, path)
        return (np.fromfile(path, dtype=np.uint8),)

    def round_trip(at, write, obj, probe):
        """Write ``obj`` and read the file back every way, one result each."""
        done, results[f"io {at} write"] = run(lambda: written(write, obj))
        if done is None:
            return
        for name, read in reads.items():
            _, results[f"io {at} {name}"] = run(lambda: read(probe), fields)

    probe_path = os.path.join(tmp, "out.probe")

    def probe_round_trip(at, b):
        """Write probe ``b`` and read it back: the file's bytes, then the probe's fields."""
        done, results[f"io {at} write_probe"] = run(lambda: written(raster_io.write_probe, b, probe_path))
        if done is not None:
            _, results[f"io {at} read_probe"] = run(
                lambda: raster_io.read_probe(probe_path),
                lambda r: (r.values, r.mask, np.array(r.anchor), np.float64(r.m)),
            )

    def files():
        return {name: Path(name).read_bytes() for name in sorted(os.listdir("."))}

    def cli_run(argv):
        """``lipmaps argv`` as ``(exit code, stdout, stderr, files written)``; an escaping exception is the code."""
        before, out, err = files(), io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # compared by class and message
            code = f"{type(exc).__name__}: {exc}"
        written = tuple((n, b) for n, b in files().items() if before.get(n) != b)
        return code, out.getvalue(), err.getvalue(), written

    def cli_battery(at, image, b):
        """Every command of ``cli_commands`` on ``image`` and ``b`` written to fresh input files."""
        for name in os.listdir("."):
            os.remove(name)
        raster_io.write_image(image, "f.fmap")
        raster_io.write_probe(b, "b.probe")
        commands = cli_commands(image.m)
        for name, argv in commands:
            results[f"cli {at} {name}"] = cli_run(argv)
        for name, argv in commands:  # each file written again: over itself, then over longer junk
            out = argv[argv.index("--out") + 1] if "--out" in argv else ""
            if not os.path.isfile(out):
                continue
            results[f"cli {at} {name} again"] = cli_run(argv)
            Path(out).write_bytes(bytes(range(256)) * (os.path.getsize(out) // 256 + 17))
            results[f"cli {at} {name} over junk"] = cli_run(argv)

    def check_battery(m):
        """Each map, and the ``fmap`` readers, on a raster whose only bad cell is its last."""
        b = lipmaps.Probe(np.full((3, 3), 0.5 * m), np.ones((3, 3), dtype=bool), (1, 1), m)
        for name, last in CHECK_LAST.items():
            f = check_rng.uniform(0.001, 0.999, size=CHECK_SHAPE) * m
            f[-1, -1] = last * m
            _, results[f"check m={m:g} {name}"] = run(
                lambda: maps[name](lipmaps.GreyImage(f, m), b), lambda r: (r.values, r.full_mask)
            )
        h, w = CHECK_SHAPE
        values = check_rng.uniform(-2.0, 0.999, size=CHECK_SHAPE) * m
        values[-1, -1] = np.nan
        path = os.path.join(tmp, "nan.fmap")
        with open(path, "wb") as fh:
            fh.write(f"fmap {w} {h} {m!r} f8le\n".encode("ascii") + values.astype("<f8").tobytes())
        for name, read in (("read_map", raster_io.read_map), ("read_image", raster_io.read_image)):
            _, results[f"check m={m:g} NaN fmap {name}"] = run(lambda: read(path), fields)

    def check_pgm():
        """A ``P5`` file whose last byte exceeds its maxval, read as a PGM and as an image."""
        h, w = CHECK_SHAPE
        pixels = check_rng.integers(0, 201, size=h * w, dtype=np.uint8)
        pixels[-1] = 201
        path = os.path.join(tmp, "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n%d %d\n200\n" % (w, h) + pixels.tobytes())
        for name, read in (("read_pgm", raster_io.read_pgm), ("read_image", raster_io.read_image)):
            _, results[f"check P5 above maxval {name}"] = run(lambda: read(path), fields)

    def check_lip(m):
        """``lip_add``, array and scalar operands, and ``FmMap``, on rasters whose only bad cell is their last."""
        k = 0.3 * m
        for bad, last in CHECK_LAST_LIP.items():
            f, g = (check_rng.uniform(-2.0, 0.999, size=CHECK_SHAPE) * m for _ in "fg")
            worse = f.copy()
            worse[-1, -1] = last * m
            at = f"check m={m:g} last {bad}"
            for name, (a, b) in {"f": (worse, g), "f k": (worse, k), "g": (f, worse), "k g": (k, worse)}.items():
                _, results[f"{at} lip_add {name}"] = run(lambda: (lipmaps.lip_add(a, b, m),))
            _, results[f"{at} FmMap"] = run(lambda: lipmaps.FmMap(worse, None, m), lambda r: (r.values, r.full_mask))
        # two bad inputs at once: which one a check names first
        f, g = (check_rng.uniform(-2.0, 0.999, size=CHECK_SHAPE) * m for _ in "fg")
        f[-1, -1], g[-1, -1] = 2.0 * m, np.nan
        _, results[f"check m={m:g} lip_add f above m, g NaN"] = run(lambda: (lipmaps.lip_add(f, g, m),))
        narrow = check_rng.uniform(-2.0, 0.999, size=(CHECK_SHAPE[0], CHECK_SHAPE[1] - 1)) * m
        _, results[f"check m={m:g} lip_add f above m, g narrower"] = run(lambda: (lipmaps.lip_add(f, narrow, m),))
        for name, v in (("NaN", g), ("above m", f)):
            _, results[f"check m={m:g} FmMap {name}, rectangle too large"] = run(
                lambda: lipmaps.FmMap(v, (0, 301, 0, 300), m), lambda r: (r.values, r.full_mask)
            )

    def lip_operand(shape, m, layout):
        """An FMm operand of ``shape`` in the given memory layout, with edge values at the block seams."""
        n = int(np.prod(shape))
        flat = lip_rng.uniform(-2.0, 0.999, size=n) * m
        seams = (0, 2**15 - 1, 2**15, 2**15 + 1, n - 1)
        for i, x in zip(seams, (m, 0.0, -0.0, 5e-324, -1e300 * min(m, 1.0))):
            flat[min(i, n - 1)] = x
        values = flat.reshape(shape)
        if layout == "transposed":
            return np.ascontiguousarray(values.T).T
        if layout == "strided":
            base = np.zeros(shape[:-1] + (2 * shape[-1],))
            base[..., ::2] = values
            return base[..., ::2]
        return values

    def lip_battery(m):
        """``lip_add`` across block seams: 1-D and 2-D, every layout, array and scalar operands, overflow raising or not."""
        k = 0.3 * m
        for size, shape2 in LIP_SIZES.items():
            for shape, layout in (((size,), "contiguous"), ((size,), "strided"), (shape2, "contiguous"),
                                  (shape2, "transposed"), (shape2, "strided")):
                f, g = lip_operand(shape, m, layout), lip_operand(shape, m, "contiguous")
                for pair, (a, b) in {"f g": (f, g), "g f": (g, f), "f k": (f, k), "k f": (k, f)}.items():
                    for over in ("raise", "ignore"):
                        with np.errstate(over=over):
                            _, r = run(lambda: (lipmaps.lip_add(a, b, m),))
                        if not isinstance(r[0], str):  # a digest for each array: they are up to 786 KB
                            r = tuple(hashlib.sha256(x).digest() for x in r)
                        results[f"lip m={m:g} size={size} shape={shape} {layout} {pair} over={over}"] = r

    def cli_big(m):
        """``lighting --add`` on an image larger than one ``lip_add`` block."""
        for name in os.listdir("."):
            os.remove(name)
        values = lip_rng.uniform(-1.0, 0.999, size=LIP_BIG) * m
        values.flat[[0, 2**15 - 1, 2**15]] = (m, 0.0, -1e300 * min(m, 1.0))
        raster_io.write_image(lipmaps.GreyImage(values, m), "big.fmap")
        argv = ["lighting", "--image", "big.fmap", "--out", "lit-big.fmap", "--add", repr(0.3 * m)]
        results[f"cli m={m:g} shape={LIP_BIG} lighting add"] = cli_run(argv)

    os.makedirs(os.path.join(tmp, "cli"))
    os.chdir(os.path.join(tmp, "cli"))
    results = {}
    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng((seed, 1))  # its own stream, so the cases above stay as they were
    lip_rng = np.random.default_rng((seed, 2))
    check_pgm()
    for m in SCALES:
        check_battery(m)
        check_lip(m)
        lip_battery(m)
        cli_big(m)
        for i in range(cases):
            shape = (heights[i % len(heights)], int(rng.integers(1, 14)))
            random = ["verify-link", "--random", str(shape[1]), str(shape[0]), "--seed", str(seed + i)]
            results[f"cli m={m:g} case={i} shape={shape} verify-link random"] = cli_run(random)
            for pname, values, mask, anchor in probes(rng, shape, m):
                b = lipmaps.Probe(values, mask, anchor, m)
                probe_round_trip(f"m={m:g} case={i} shape={shape} probe={pname}", b)
                for iname, f in images(rng, shape, m):
                    image = lipmaps.GreyImage(f, m)
                    at = f"m={m:g} case={i} shape={shape} image={iname} probe={pname}"
                    for name, fn in maps.items():
                        r, results[f"{at} {name}"] = run(lambda: fn(image, b), lambda r: (r.values, r.full_mask))
                        if r is not None:
                            round_trip(f"{at} {name}", raster_io.write_map, r, b)
                    for name, fn in kernel.items():
                        _, results[f"{at} {name}"] = run(lambda: fn(f, b))
                    _, results[f"{at} ratio reference"] = run(lambda: ratio_reference(image, b))
                    round_trip(f"{at} image", raster_io.write_image, image, b)
                    if i == 0 and iname in CLI_IMAGES:
                        cli_battery(at, image, b)
    return results


def emit(src, seed, cases, heights):
    sys.path.insert(0, src)
    warnings.simplefilter("error")
    import lipmaps

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.buffer.write(pickle.dumps(battery(lipmaps, seed, cases, heights, tmp)))


def collect(src, args):
    cmd = [sys.executable, __file__, "--emit", src, "--seed", str(args.seed), "--cases", str(args.cases)]
    cmd += ["--heights", args.heights]
    proc = subprocess.run(cmd, capture_output=True, check=False)
    if proc.returncode:
        sys.exit(f"battery failed on {src}:\n{proc.stderr.decode()}")
    return pickle.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--cases", type=int, default=5, help="cases per scale, each with every probe and image kind")
    parser.add_argument("--heights", default="1,64,65,129,130", help="raster heights, cycled over the cases")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    heights = [int(h) for h in args.heights.split(",")]
    if args.emit:
        return emit(args.emit, args.seed, args.cases, heights)
    if not (args.old and args.new):
        parser.error("OLD_SRC and NEW_SRC are required")
    old, new = collect(args.old, args), collect(args.new, args)
    mismatches = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    calls = [r for k, r in new.items() if not k.startswith(("io ", "cli ", "check ", "lip "))]
    checks = [r for k, r in new.items() if k.startswith("check ")]
    lips = [r for k, r in new.items() if k.startswith("lip ")]
    raised = sum(1 for r in calls if r and isinstance(r[0], str))
    runs = [r for k, r in new.items() if k.startswith("cli ")]
    ok = sum(1 for r in runs if r[0] == 0)
    probe_io = sum(1 for k in new if k.endswith(("write_probe", "read_probe")))
    print(
        f"{len(calls)} results ({len(calls) - raised} arrays, {raised} exceptions), "
        f"{len(new) - len(calls) - len(runs) - len(checks) - len(lips)} I/O results ({probe_io} probe), "
        f"{len(runs)} CLI results ({ok} exit 0), "
        f"{len(checks)} check results ({sum(1 for r in checks if isinstance(r[0], str))} exceptions), "
        f"{len(lips)} lip results ({sum(1 for r in lips if isinstance(r[0], str))} exceptions), "
        f"{len(mismatches)} mismatches"
    )
    for key in mismatches[:10]:
        print(f"  {key}: {describe(key, old.get(key))} vs {describe(key, new.get(key))}")
    return 1 if mismatches else 0


def describe(key, result):
    if result is None:
        return "missing"
    if key.startswith("cli "):
        code, out, err, written = result
        return f"exit {code}, {len(out)} B stdout, stderr {err[:80]!r}, wrote {[n for n, _ in written]}"
    if result and isinstance(result[0], str):
        return f"{result[0]}: {result[1]}"
    return f"{len(result)} arrays"


if __name__ == "__main__":
    sys.exit(main())
