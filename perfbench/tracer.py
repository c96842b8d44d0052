"""Per-layer tracing of lipmaps from outside the package.

The tracer replaces the public functions of each lipmaps module with timing
wrappers, in every module namespace that holds a reference to them, so that
both the benchmark and the package's own modules (which call each other
through names bound at import time, such as ``lipmaps.asplund.hat`` or
``lipmaps.cli.raster_io.read_map``) go through the wrappers.  Container
construction is traced by wrapping the ``__init__`` of the raster classes.
:meth:`Tracer.uninstall` puts every original back.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it caused; self times are summed per layer metric, so
the metrics of all layers add up to the time spent under top-level spans.
Functions left unwrapped are charged to the nearest wrapped caller.

Counts are taken at the same boundaries and are exact: probe cells and
horizontal runs at the asplund entry points, per-offset passes made by the
offset loops of asplund and morphology (their calls of ``offset_slices``),
the bytes those passes move (computed from the overlap sizes), and the sizes
of the files raster_io reads and writes.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer -> {public function name: metric that receives its self time}
SPANS = {
    "cli": {"main": "self_s"},
    "raster_io": {
        "read_pgm": "read_s",
        "read_image": "read_s",
        "read_map": "read_s",
        "read_probe": "read_s",
        "write_map": "write_s",
        "write_image": "write_s",
        "write_probe": "write_s",
    },
    "asplund": {
        "map_mult": "map_mult_s",
        "map_add": "map_add_s",
        "map_mult_via_add": "link_s",
        "map_add_via_mult": "link_s",
        "dist_metric_link": "link_s",
        "mult_bounds": "other_s",
        "add_bounds": "other_s",
        "dist_mult": "other_s",
        "dist_add": "other_s",
        "mlub_mult": "other_s",
        "mglb_mult": "other_s",
        "mlub_add": "other_s",
        "mglb_add": "other_s",
    },
    "morphology": {
        "dilate": "dilate_s",
        "erode": "erode_s",
        "full_overlap_mask": "mask_s",
        "covered_mask": "mask_s",
    },
    "lip": {
        name: "transform_s"
        for name in (
            "hat", "hat_inv", "tilde", "xi", "xi_inv", "complement",
            "lip_sub", "lip_add", "lip_mult", "lip_neg", "transmittance",
        )
    },
    "rasters": {"require_regime": "regime_s", "check_same_scale": "regime_s"},
    "probing": {"detect_minima": "detect_s"},
}

# raster classes whose construction is charged to rasters.container_s
CONTAINERS = ("GreyImage", "Probe", "DistanceMap")

_ASPLUND_ENTRIES = ("map_mult", "map_add", "map_mult_via_add", "map_add_via_mult")

# Bytes one pass moves per overlap cell: float64 read of the source and of
# the accumulator plus the accumulator write; covered_mask stores one bool.
_KERNEL_BYTES_PER_CELL = 8 * 3
_MASK_BYTES_PER_CELL = 1


def probe_runs(mask, values) -> int:
    """Maximal horizontal runs of equal value among the probe's domain cells."""
    mask = np.asarray(mask, dtype=bool)
    values = np.asarray(values)
    starts = mask.copy()
    starts[:, 1:] &= ~(mask[:, :-1] & (values[:, 1:] == values[:, :-1]))
    return int(starts.sum())


class Tracer:
    """Span and count recorder; install around the calls to be traced."""

    def __init__(self):
        self.self_s = defaultdict(float)  # "layer.metric" -> seconds
        self.counts = defaultdict(int)  # "layer.metric" -> exact count
        self.top_s = 0.0  # summed duration of spans without a traced parent
        self._stack = []  # open spans: [layer, name, child seconds]
        self._patches = []  # (owner, attribute, original)
        self.missing = set()  # functions named in SPANS the package no longer has

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [importlib.import_module("lipmaps")]
        wrappers = {}  # id(original function) -> wrapper
        for layer, names in SPANS.items():
            mod = importlib.import_module(f"lipmaps.{layer}")
            modules.append(mod)
            for name, metric in names.items():
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.add(f"{layer}.{name}")
                else:
                    wrappers[id(fn)] = self._wrap(fn, layer, name, metric)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        rasters = importlib.import_module("lipmaps.rasters")
        for cls_name in CONTAINERS:
            cls = getattr(rasters, cls_name)
            init = cls.__dict__["__init__"]
            self._patch(cls, "__init__", self._wrap(init, "rasters", cls_name, "container_s"))
        for layer in ("asplund", "morphology"):
            mod = importlib.import_module(f"lipmaps.{layer}")
            if hasattr(mod, "offset_slices"):
                self._patch(mod, "offset_slices", self._count_passes(mod.offset_slices, layer))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer, name, metric):
        key = f"{layer}.{metric}"
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outer = not any(s[0] == layer for s in stack)
            frame = [layer, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.self_s[key] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top_s += dur
            self._count(layer, name, outer, args, kwargs, result)
            return result

        return span

    def _count(self, layer, name, outer, args, kwargs, result):
        if layer == "lip":
            self.counts["lip.calls"] += 1
        elif layer == "probing" and name == "detect_minima":
            self.counts["probing.hits"] += len(result)
        elif layer == "asplund" and outer and name in _ASPLUND_ENTRIES:
            probe = args[1] if len(args) > 1 else kwargs.get("b", kwargs.get("b1"))
            self.counts["asplund.probe_cells"] += int(np.count_nonzero(probe.mask))
            self.counts["asplund.probe_runs"] += probe_runs(probe.mask, probe.values)
        elif layer == "raster_io" and outer:
            if name.startswith("read"):
                path = args[0] if args else kwargs["path"]
                self.counts["raster_io.read_bytes"] += os.path.getsize(path)
            else:
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.counts["raster_io.write_bytes"] += os.path.getsize(path)

    def _count_passes(self, fn, layer):
        stack = self._stack

        @functools.wraps(fn)
        def counted(shape, dy, dx):
            sl = fn(shape, dy, dx)
            if sl is not None:
                self.counts[f"{layer}.offset_passes"] += 1
                if layer == "morphology" and stack:
                    dst = sl[0]
                    cells = (dst[0].stop - dst[0].start) * (dst[1].stop - dst[1].start)
                    per_cell = _MASK_BYTES_PER_CELL if stack[-1][1] == "covered_mask" else _KERNEL_BYTES_PER_CELL
                    self.counts["morphology.bytes_moved"] += cells * per_cell
            return sl

        return counted

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict:
        """Self time per layer, summed over that layer's metrics."""
        out = defaultdict(float)
        for key, secs in self.self_s.items():
            out[key.split(".")[0]] += secs
        return dict(out)
