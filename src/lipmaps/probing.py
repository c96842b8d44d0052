"""Experiment support: lighting simulation, ring probes, and minima detection.

Workflow mirrored by the demos and the CLI: build a synthetic scene, plant
a (possibly lighting-transformed) copy of the probe in it, compute a
distance map, and read detections off the map's minima.  Because the
Asplund distances are invariant under the corresponding lighting change,
the planted anchor stays the global minimum after darkening the whole
scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lip import DEFAULT_M, lip_add
from .rasters import GreyImage, Probe, _ints

__all__ = [
    "Detection",
    "darken",
    "make_ring_probe",
    "make_canvas",
    "plant_target",
    "detect_minima",
    "random_image",
    "random_probe",
]


@dataclass(frozen=True)
class Detection:
    """One map cell at or below the detection threshold."""

    row: int
    col: int
    value: float
    threshold: float


def darken(f: GreyImage, k: float) -> GreyImage:
    """LIP-add the constant ``k`` to the whole image.

    Simulates a reduced camera exposure time (remember the scale is
    inverted: larger values are darker).  ``k`` must lie in ``[0, m[``.
    """
    k = float(k)
    if not 0 <= k < f.m:
        raise DomainError(f"darkening constant must lie in [0, m={f.m}[, got {k}")
    return GreyImage._adopt(lip_add(f.values, k, f.m), f.m)


def make_ring_probe(
    outer_radius: int,
    inner_radius: int,
    ring_value: float = 161.0,
    disk_value: float = 4.0,
    m: float = DEFAULT_M,
) -> Probe:
    """Bright ring around a dark disk, the classic eye-detection probe.

    Square grid of side ``2*outer_radius + 1`` anchored at the centre.
    Cells at integer-rounded Euclidean distance ``<= inner_radius`` take
    ``disk_value``, cells out to ``outer_radius`` take ``ring_value``, and
    cells beyond are outside the probe domain.  Default values 161 (ring)
    and 4 (disk) on the 8-bit scale.
    """
    outer_radius, inner_radius = _ints((outer_radius, inner_radius), "ring radii")
    if not 0 < inner_radius < outer_radius:
        raise DomainError(
            f"need 0 < inner_radius < outer_radius, got {inner_radius}, {outer_radius}"
        )
    for name, v in (("ring_value", ring_value), ("disk_value", disk_value)):
        if not 0 < v < m:
            raise DomainError(f"{name} must lie in ]0, m={m}[, got {v}")
    side = 2 * outer_radius + 1
    yy, xx = np.mgrid[:side, :side] - outer_radius
    dist = np.round(np.hypot(yy, xx))
    mask = dist <= outer_radius
    values = np.where(dist <= inner_radius, disk_value, ring_value)
    return Probe(values, mask, (outer_radius, outer_radius), m)


def _size(height, width):
    """``(height, width)`` as two non-negative integers; a size of 0 is left to the container's check."""
    shape = _ints((height, width), "raster size")
    if min(shape) < 0:
        raise DomainError(f"raster size must be non-negative, got {(height, width)!r}")
    return shape


def make_canvas(
    height: int,
    width: int,
    background: float = 128.0,
    noise: float = 10.0,
    seed: int = 0,
    m: float = DEFAULT_M,
) -> GreyImage:
    """Uniform mid-grey canvas with seeded uniform noise in ``+-noise`` grey levels."""
    values = np.full(_size(height, width), float(background))
    rng = np.random.default_rng(seed)
    if noise:
        values = values + rng.uniform(-noise, noise, size=values.shape)
    return GreyImage(values, m)


def plant_target(canvas: GreyImage, probe: Probe, at: tuple[int, int], transform=None) -> GreyImage:
    """Write the probe's values into the canvas with its anchor at ``at`` (row, col).

    ``transform``, when given, is applied to the probe values first (e.g. a
    lighting change ``lambda v: lip_add(v, 50, m)``), so the planted target
    is an exact match up to that change.  The whole probe footprint must
    fall inside the canvas.
    """
    r0, c0 = _ints(at, "target position")
    dys, dxs, vals = probe.offsets()
    rows, cols = r0 + dys, c0 + dxs
    if (
        rows.min() < 0
        or cols.min() < 0
        or rows.max() >= canvas.height
        or cols.max() >= canvas.width
    ):
        raise DomainError(
            f"probe footprint anchored at ({r0}, {c0}) leaves the canvas {canvas.shape}"
        )
    if transform is not None:
        vals = np.asarray(transform(vals), dtype=np.float64)
    out = np.array(canvas.values)
    out[rows, cols] = vals
    return canvas.with_values(out)


def detect_minima(dist_map, threshold: float) -> list[Detection]:
    """All full-overlap cells with map value ``<= threshold``.

    Sorted by ascending value, ties broken in row-major cell order.  An
    empty list is a valid result.  Only the cells of the map's
    ``full_rect`` are compared, so cells outside it are never reported; a
    map read from a file has the rectangle its header stores, or the whole
    raster when it stores none and no probe is given.  A NaN threshold,
    which no value lies at or below, raises :class:`DomainError`; ``+inf``
    lists every full-overlap cell.  The hits come from ``np.flatnonzero``
    on the rectangle's comparison, in row-major order, and their row and
    column from ``divmod`` by the rectangle's width.
    """
    threshold = float(threshold)
    if np.isnan(threshold):
        raise DomainError("detection threshold must not be NaN")
    r0, r1, c0, c1 = dist_map.full_rect
    vals = dist_map.values[r0:r1, c0:c1]
    rows, cols = np.divmod(np.flatnonzero(vals <= threshold), c1 - c0)
    order = np.lexsort((cols, rows, vals[rows, cols]))
    return [
        Detection(int(rows[i]) + r0, int(cols[i]) + c0, float(vals[rows[i], cols[i]]), threshold)
        for i in order
    ]


def random_image(
    height: int,
    width: int,
    rng: np.random.Generator,
    low: float = 10.0,
    high: float = 240.0,
    m: float = DEFAULT_M,
) -> GreyImage:
    """Seeded uniform random image in ``[low, high]`` (PCG64 generator)."""
    return GreyImage(rng.uniform(low, high, size=_size(height, width)), m)


def random_probe(
    height: int,
    width: int,
    rng: np.random.Generator,
    low: float = 10.0,
    high: float = 240.0,
    m: float = DEFAULT_M,
) -> Probe:
    """Seeded full-mask random probe anchored at its centre cell."""
    height, width = _size(height, width)
    values = rng.uniform(low, high, size=(height, width))
    mask = np.ones((height, width), dtype=bool)
    return Probe(values, mask, (height // 2, width // 2), m)
