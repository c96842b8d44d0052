"""Raster value types: grey images, probes, and distance maps.

All rasters are immutable wrappers around read-only 2-D float64 arrays and
carry the grey-scale upper bound ``m`` of the computation they belong to.
Mixing rasters with different ``m`` is an error everywhere, which is why
binary operations go through :func:`check_same_scale`.

Grey-value regimes
------------------
The algebra is defined on nested value sets, checked at operation entry
points rather than at construction time:

* ``I``     : ``[0, m[``  ordinary images
* ``I*``    : ``]0, m[``  strictly positive images (multiplicative metric)
* ``Ibar``  : ``[0, m]``  closure, edge values allowed
* ``F_M``   : ``]-inf, m[`` functions (additive metric; may be negative)

A :class:`GreyImage` itself only guarantees ``values <= m`` and no NaN, so
one container serves every regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, RegimeError
from .lip import DEFAULT_M, _check_m

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


def _first_bad_cell(bad):
    r, c = np.argwhere(bad)[0]
    return int(r), int(c)


def _raster(values, what):
    """``values`` as a float64 array, checked to be a non-empty 2-D raster without NaN."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.size == 0:
        raise DimensionError(f"{what} must be a non-empty 2-D raster, got shape {v.shape}")
    nan = np.isnan(v)
    if nan.any():
        raise DomainError(f"NaN at cell {_first_bad_cell(nan)}")
    return v


def _check_at_most_m(v, m):
    above = v > m
    if above.any():
        r, c = _first_bad_cell(above)
        raise DomainError(f"value {v[r, c]} > m={m} at cell ({r}, {c})")


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
        _check_at_most_m(v, m)  # m is finite, so this rejects +inf too
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
        inf = np.isinf(v)
        if inf.any():
            raise DomainError(f"infinite probe value at cell {_first_bad_cell(inf)}")
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
            r, c = _first_bad_cell(bad)
            raise DomainError(f"negative value {v[r, c]} at cell ({r}, {c}) in a non-negative map")


class FmMap(DistanceMap):
    """Map with values in ``[-inf, m]``: additive bounds and distances."""

    _check_range = staticmethod(_check_at_most_m)


def check_same_scale(a, b):
    """Raise :class:`DimensionError` unless the two rasters share the same ``m``."""
    if a.m != b.m:
        raise DimensionError(f"grey-scale bounds differ: {a.m} vs {b.m}")


_REGIMES = {
    # name: (low, low_open, high_open); the high end is always m
    "I": (0.0, False, True),
    "I*": (0.0, True, True),
    "Ibar": (0.0, False, False),
    "FM": (-np.inf, True, True),
}


def require_regime(values, m, regime, what="image", mask=None):
    """Check every value against a named regime, reporting the first offender.

    ``regime`` is one of ``"I"`` ([0,m[), ``"I*"`` (]0,m[), ``"Ibar"``
    ([0,m]) or ``"FM"`` (]-inf,m[).  With ``mask`` given, only masked
    cells are checked (probe domains).  The first offending cell's
    coordinates appear in the error message.
    """
    lo, lo_open, hi_open = _REGIMES[regime]
    v = np.asarray(values, dtype=np.float64)
    bad = (v <= lo) if lo_open else (v < lo)
    bad |= (v >= m) if hi_open else (v > m)
    if mask is not None:
        bad &= np.asarray(mask, dtype=bool)
    if bad.any():
        if v.ndim == 2:
            r, c = _first_bad_cell(bad)
            where = f"at cell ({r}, {c})"
            offending = v[r, c]
        else:
            i = int(np.argwhere(bad)[0][0])
            where = f"at index {i}"
            offending = v[i]
        lo_b = "]" if lo_open else "["
        hi_b = "[" if hi_open else "]"
        lo_s = "0" if lo == 0 else "-inf"
        raise RegimeError(
            f"{what} value {offending} {where} outside regime {lo_b}{lo_s}, {m}{hi_b}"
        )


def clamp_strict(image: GreyImage, eps: float = 0.5) -> GreyImage:
    """Clamp values into ``[eps, m - eps]`` so 8-bit edge cases enter ``I*``.

    Preprocessing for multiplicative entry points, which reject 0 and ``m``
    outright; default ``eps`` is half a grey level.
    """
    eps = float(eps)
    if not 0 < eps < image.m / 2:
        raise DomainError(f"clamp eps must lie in ]0, m/2[, got {eps}")
    return image.with_values(np.clip(image.values, eps, image.m - eps))
