"""Raster value types: grey images, probes, and distance maps.

All rasters are immutable wrappers around read-only 2-D float64 arrays and
carry the grey-scale upper bound ``m`` of the computation they belong to.
Mixing rasters with different ``m`` is an error everywhere, which is why
binary operations go through :func:`check_same_scale`.

Grey-value regimes
------------------
The value sets the algebra is defined on (``I``, ``I*``, ``Ibar``, ``FM``
and their closures) are named in :mod:`lipmaps.lip`, and
:func:`require_regime` checks them.  Operations check the regime they need
at their entry points.  A container checks only its own invariant, with
the same function: a :class:`GreyImage` holds ``FMbar`` (``[-inf, m]``: no
NaN, nothing above ``m``), so one container serves every regime; a
:class:`Probe` holds finite values on its domain, a :class:`DistanceMap`
no NaN and an :class:`FmMap` ``FMbar``.  Every violation names its first
offending cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .lip import DEFAULT_M, _asvalues, _check_m, _first_bad, require_regime

__all__ = [
    "GreyImage",
    "Probe",
    "DistanceMap",
    "RealMap",
    "FmMap",
    "check_same_scale",
    "require_regime",
    "clamp_strict",
]


def _frozen_array(a, dtype=np.float64):
    a = np.array(a, dtype=dtype, copy=True)
    a.setflags(write=False)
    return a


def _raster(values, what):
    """``values`` as a float64 array, checked to be a non-empty 2-D raster."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.size == 0:
        raise DimensionError(f"{what} must be a non-empty 2-D raster, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class GreyImage:
    """Rectangular raster of grey values with its scale bound ``m``.

    ``values`` is a 2-D float64 array (height x width), NaN-free, with no
    value above ``m``.  ``-inf`` is representable so the container can hold
    transformed functions; regime checks reject it where it is not allowed.
    """

    values: np.ndarray
    m: float = DEFAULT_M

    def __post_init__(self):
        v = _raster(self.values, "image")
        m = _check_m(self.m)
        require_regime(v, m, "FMbar")
        object.__setattr__(self, "values", _frozen_array(v))
        object.__setattr__(self, "m", m)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def with_values(self, values) -> "GreyImage":
        """Same scale bound, new values."""
        return GreyImage(values, self.m)


@dataclass(frozen=True, eq=False)
class Probe:
    """Structuring function: values on a masked grid with an anchor cell.

    ``mask`` marks the cells belonging to the probe domain; ``anchor`` is
    the (row, col) origin, so a masked cell ``(r, c)`` probes the image at
    offset ``(r - anchor[0], c - anchor[1])``.  Values outside the mask are
    normalised to 0 and never read.
    """

    values: np.ndarray
    mask: np.ndarray
    anchor: tuple[int, int]
    m: float = DEFAULT_M

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        mk = np.asarray(self.mask, dtype=bool)
        if mk.shape != v.shape:
            raise DimensionError(f"mask shape {mk.shape} != values shape {v.shape}")
        v = _raster(np.where(mk, v, 0.0), "probe")
        if not mk.any():
            raise DomainError("probe mask is empty: at least one cell must belong to the domain")
        ar, ac = (int(x) for x in self.anchor)
        if not (0 <= ar < v.shape[0] and 0 <= ac < v.shape[1]):
            raise DomainError(f"anchor ({ar}, {ac}) outside probe bounds {v.shape}")
        m = _check_m(self.m)
        require_regime(v, np.inf, "FM", "probe")  # finite: ]-inf, inf[
        object.__setattr__(self, "values", _frozen_array(v))
        object.__setattr__(self, "mask", _frozen_array(mk, dtype=bool))
        object.__setattr__(self, "anchor", (ar, ac))
        object.__setattr__(self, "m", m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def offsets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masked cells as parallel arrays ``(dy, dx, value)`` relative to the anchor."""
        rr, cc = np.nonzero(self.mask)
        return rr - self.anchor[0], cc - self.anchor[1], self.values[rr, cc]

    def masked_values(self) -> np.ndarray:
        """Probe values on the domain cells, row-major order."""
        return self.values[self.mask]

    def with_values(self, values) -> "Probe":
        """Same geometry (mask, anchor, m), new values on the grid."""
        return Probe(values, self.mask, self.anchor, self.m)


@dataclass(frozen=True, eq=False)
class DistanceMap:
    """Raster of per-cell comparison results plus a full-overlap mask.

    ``full_mask`` marks cells whose probe window lies entirely inside the
    image; lighting-invariance guarantees only apply there.  Border cells
    still hold values, computed over the clipped window.  Without a mask,
    every cell counts as full overlap; :func:`lipmaps.raster_io.read_map`
    passes the rectangle a map file stores, or a probe's mask.
    """

    values: np.ndarray
    full_mask: np.ndarray | None = None
    m: float = DEFAULT_M

    def __post_init__(self):
        v = _raster(self.values, "map")
        _asvalues(v, "map")
        fm = self.full_mask
        fm = np.ones(v.shape, dtype=bool) if fm is None else np.asarray(fm, dtype=bool)
        if fm.shape != v.shape:
            raise DimensionError(f"full_mask shape {fm.shape} != values shape {v.shape}")
        m = _check_m(self.m)
        self._check_range(v, m)
        object.__setattr__(self, "values", _frozen_array(v))
        object.__setattr__(self, "full_mask", _frozen_array(fm, dtype=bool))
        object.__setattr__(self, "m", m)

    def _check_range(self, v, m):
        pass

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


class RealMap(DistanceMap):
    """Map with values in ``[0, +inf]``: multiplicative bounds and distances.

    ``-inf`` is tolerated only as the documented marker of cells whose
    clipped probe window is empty.
    """

    def _check_range(self, v, m):
        bad = (v < 0) & (v != -np.inf)
        if bad.any():
            idx, where = _first_bad(bad)
            raise DomainError(f"negative value {v[idx]}{where} in a non-negative map")


class FmMap(DistanceMap):
    """Map with values in ``[-inf, m]``: additive bounds and distances."""

    def _check_range(self, v, m):
        require_regime(v, m, "FMbar", "map")


def check_same_scale(a, b):
    """Raise :class:`DimensionError` unless the two rasters share the same ``m``."""
    if a.m != b.m:
        raise DimensionError(f"grey-scale bounds differ: {a.m} vs {b.m}")


def clamp_strict(image: GreyImage, eps: float = 0.5) -> GreyImage:
    """Clamp values into ``[eps, m - eps]`` so 8-bit edge cases enter ``I*``.

    Preprocessing for multiplicative entry points, which reject 0 and ``m``
    outright; default ``eps`` is half a grey level.
    """
    eps = float(eps)
    if not 0 < eps < image.m / 2:
        raise DomainError(f"clamp eps must lie in ]0, m/2[, got {eps}")
    return image.with_values(np.clip(image.values, eps, image.m - eps))
