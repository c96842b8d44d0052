"""The three benchmark workloads: inputs built from a seed, one timed iteration each.

Every workload is a closed loop run by ``run.py``: one iteration, then the
next, in one process and one thread, calling lipmaps in-process.  Inputs are
generated here with numpy from the seed alone, before timing starts, so the
program only ever sees finished rasters and files.  Only the program calls
are timed; the output checks run between them, untimed, and never call into
lipmaps, so a trace holds program work only.

Program entry points are looked up as module attributes at every call
(``asplund.map_mult``, ``cli.main``), which is what lets the tracer's patches
see them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

M = 256.0

#: Link tolerance of ``lipmaps.asplund.LINK_TOL``, fixed here so that a
#: change to the program cannot loosen the benchmark's check.
LINK_TOL = 1e-9

#: Ring probes (outer radius, inner radius); 137/749/2933 cells and
#: 27/61/123 horizontal runs.
RINGS = ((6, 3), (15, 7), (30, 15))
RING_VALUE, DISK_VALUE = 161.0, 4.0


@dataclass
class Outcome:
    """One iteration: program seconds, operations attempted, failure messages."""

    seconds: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)

    def call(self, fn, *args):
        """Time one program call; an exception is returned, never raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        self.seconds += perf_counter() - t0
        return result

    def fail(self, what):
        self.failures.append(what)


def ring_probe(outer, inner):
    """Values and mask of the bright-ring/dark-disk probe, anchored at its centre."""
    side = 2 * outer + 1
    yy, xx = np.mgrid[:side, :side] - outer
    dist = np.round(np.hypot(yy, xx))
    return np.where(dist <= inner, DISK_VALUE, RING_VALUE), dist <= outer


def noisy_canvas(rng, size):
    return 128.0 + rng.uniform(-10.0, 10.0, size=(size, size))


def plant(canvas, values, mask, anchor):
    r = values.shape[0] // 2
    (row, col), out = anchor, canvas.copy()
    window = out[row - r : row + r + 1, col - r : col + r + 1]
    window[mask] = values[mask]
    return out


def random_anchor(rng, size, r):
    return tuple(int(x) for x in rng.integers(r, size - r, size=2))


def argmin_on_full_mask(values, r):
    """Argmin over the cells whose centred (2r+1)-square window lies inside."""
    inner = values[r : values.shape[0] - r, r : values.shape[1] - r]
    row, col = np.unravel_index(int(np.argmin(inner)), inner.shape)
    return int(row) + r, int(col) + r


def max_dev(a, b, scale):
    """Deviation as ``lipmaps verify-link`` computes it; equal infinities count 0."""
    both_inf = ~np.isfinite(a) & ~np.isfinite(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)
    return float(np.max(np.where(both_inf, 0.0, diff) / scale))


def failed(result):
    return isinstance(result, Exception)


class PipelineWorkload:
    """The README worked example through ``lipmaps.cli.main`` on a 1024² P5 scene."""

    name = "pipeline-1024"
    size = 1024
    map_mpx = size * size / 1e6  # one map-add per iteration

    def __init__(self, lipmaps, seed, workdir: Path):
        self.cli = lipmaps.cli
        rng = np.random.default_rng(seed)
        outer, inner = RINGS[0]
        values, mask = ring_probe(outer, inner)
        self.anchor = random_anchor(rng, self.size, outer)
        scene = plant(noisy_canvas(rng, self.size), values, mask, self.anchor)
        pixels = np.clip(np.rint(scene), 0, 255).astype(np.uint8)
        workdir.mkdir(parents=True, exist_ok=True)
        f = {k: str(workdir / k) for k in ("scene.pgm", "ring.probe", "dark.fmap", "map.fmap")}
        with open(f["scene.pgm"], "wb") as fh:
            fh.write(b"P5\n%d %d\n255\n" % (self.size, self.size) + pixels.tobytes())
        rows = [
            " ".join(format(v, ".17g") if inside else "_" for v, inside in zip(vr, mr))
            for vr, mr in zip(values, mask)
        ]
        with open(f["ring.probe"], "w", encoding="ascii") as fh:
            fh.write(f"probe {2 * outer + 1} {2 * outer + 1} {outer} {outer} 256\n")
            fh.write("\n".join(rows) + "\n")
        self.steps = (
            ["lighting", "--image", f["scene.pgm"], "--out", f["dark.fmap"], "--add", "200"],
            ["map-add", "--image", f["dark.fmap"], "--probe", f["ring.probe"], "--out", f["map.fmap"]],
            ["detect", "--map", f["map.fmap"], "--threshold", "0.256", "--probe", f["ring.probe"]],
        )

    def iterate(self) -> Outcome:
        out = Outcome()
        for argv in self.steps:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = out.call(self.cli.main, argv)
            if code != 0:
                out.fail(f"{argv[0]}: exit {code!r}")
                return out  # later steps would read stale files
        first = stdout.getvalue().split("\n", 1)[0].split()
        row, col = self.anchor
        if first[:2] != [str(col), str(row)]:
            out.fail(f"detect: first hit {first[:2]}, planted anchor col {col} row {row}")
        return out


class KernelRingsWorkload:
    """map_mult and map_add for ring probes r=6/15/30 on 512² darkened scenes, no I/O."""

    name = "kernel-rings"
    size = 512
    map_mpx = 2 * len(RINGS) * size * size / 1e6

    def __init__(self, lipmaps, seed, workdir: Path):
        self.asplund = lipmaps.asplund
        GreyImage, Probe = lipmaps.GreyImage, lipmaps.Probe
        rng = np.random.default_rng(seed)
        self.cases = []
        for outer, inner in RINGS:
            values, mask = ring_probe(outer, inner)
            anchor = random_anchor(rng, self.size, outer)
            scene = plant(noisy_canvas(rng, self.size), values, mask, anchor)
            # Each map gets the lighting change it is invariant to: a
            # thickness change (LIP multiplication) for map_mult, an exposure
            # change (LIP addition) for map_add.
            a, k = rng.uniform(1.5, 3.0), rng.uniform(100.0, 220.0)
            thicker = M - M * (1.0 - scene / M) ** a
            exposed = scene + k - scene * k / M
            probe = Probe(values, mask, (outer, outer), M)
            self.cases.append((outer, anchor, probe, GreyImage(thicker, M), GreyImage(exposed, M)))

    def iterate(self) -> Outcome:
        out = Outcome()
        for r, anchor, probe, thicker, exposed in self.cases:
            for fn, scene in ((self.asplund.map_mult, thicker), (self.asplund.map_add, exposed)):
                result = out.call(fn, scene, probe)
                if failed(result):
                    out.fail(f"{fn.__name__} r={r}: {result!r}")
                elif argmin_on_full_mask(result.values, r) != anchor:
                    out.fail(f"{fn.__name__} r={r}: argmin {argmin_on_full_mask(result.values, r)}, anchor {anchor}")
        return out


class BatchRandomWorkload:
    """64 random 256² images, each with its own random full 5x5 probe, all four maps."""

    name = "batch-random"
    count, size, probe_side = 64, 256, 5
    map_mpx = 4 * count * size * size / 1e6

    def __init__(self, lipmaps, seed, workdir: Path):
        self.asplund = lipmaps.asplund
        GreyImage, Probe = lipmaps.GreyImage, lipmaps.Probe
        rng = np.random.default_rng(seed)
        side, centre = self.probe_side, self.probe_side // 2
        full = np.ones((side, side), dtype=bool)
        self.cases = [
            (
                GreyImage(rng.uniform(10.0, 240.0, size=(self.size, self.size)), M),
                Probe(rng.uniform(10.0, 240.0, size=(side, side)), full, (centre, centre), M),
            )
            for _ in range(self.count)
        ]

    def iterate(self) -> Outcome:
        out = Outcome()
        a = self.asplund
        for i, (f, b) in enumerate(self.cases):
            mult = out.call(a.map_mult, f, b)
            add = out.call(a.map_add, f, b)
            mult_via = out.call(a.map_mult_via_add, f, b)
            add_via = out.call(a.map_add_via_mult, f, b)
            for name, result in (("map_mult", mult), ("map_add", add)):
                if failed(result):
                    out.fail(f"image {i} {name}: {result!r}")
            pairs = (
                ("map_mult_via_add", mult_via, mult, lambda d: 1.0 + np.abs(d)),
                ("map_add_via_mult", add_via, add, lambda d: M),
            )
            for name, via, direct, scale in pairs:
                if failed(via):
                    out.fail(f"image {i} {name}: {via!r}")
                elif failed(direct):
                    out.fail(f"image {i} {name}: direct path failed, deviation unknown")
                else:
                    dev = max_dev(via.values, direct.values, scale(direct.values))
                    if not dev <= LINK_TOL:
                        out.fail(f"image {i} {name}: deviation {dev:.3e} > {LINK_TOL:g}")
        return out


WORKLOADS = {w.name: w for w in (PipelineWorkload, KernelRingsWorkload, BatchRandomWorkload)}
