import tracemalloc

import numpy as np
import pytest

from lipmaps import GreyImage, Probe, RealMap, map_mult, mglb_mult, mlub_mult, morphology
from lipmaps.asplund import _ratio_bounds, _require_mult
from lipmaps.morphology import full_overlap_rect

M = 256.0


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def grey(values, m=M):
    return GreyImage(np.atleast_2d(np.asarray(values, dtype=np.float64)), m)


def binary_fmap(values, m, rect=None):
    """The documented binary ``fmap`` bytes, built by hand from the format description."""
    head = f"fmap {values.shape[1]} {values.shape[0]} {format(m, '.17g')} f8le"
    if rect is not None:
        head += " %d %d %d %d" % rect
    return (head + "\n").encode("ascii") + np.asarray(values, dtype="<f8").tobytes()


def full_probe(values, anchor=None, m=M):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if anchor is None:
        anchor = (values.shape[0] // 2, values.shape[1] // 2)
    return Probe(values, np.ones(values.shape, dtype=bool), anchor, m)


@pytest.fixture
def instance_1x2():
    """The documented two-cell instance: f=(100,200) probed by (150,150)."""
    f = grey([[100.0, 200.0]])
    g = grey([[150.0, 150.0]])
    b = full_probe([[150.0, 150.0]], anchor=(0, 0))
    return f, g, b


def traced_peak(call):
    """Peak bytes ``tracemalloc`` sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cold_peak(call):
    """:func:`traced_peak` of ``call()`` from an empty kernel scratch buffer, as on a thread's first call.

    The kernel keeps its scratch in one buffer per thread between calls, so a
    call that fits in it allocates none; the buffer is dropped first, so the
    measured peak holds the call's whole scratch.
    """
    morphology._scratch.buf = None
    return traced_peak(call)


def reference(fn):
    """The ratio closed form of the multiplicative map ``fn``, as a callable ``(f, b) -> RealMap``.

    ``fn`` is ``mlub_mult``, ``mglb_mult`` or ``map_mult``.  The reference
    runs ``fn``'s entry check, ``_require_mult`` with the map's image
    regime, then ``asplund._ratio_bounds``; the distance map takes
    ``ln lam - ln mu`` in place, since ``lam / mu`` can overflow where the
    difference is finite, and an empty window gives ``ln 0 - ln inf = -inf``.
    """
    assert fn in (mlub_mult, mglb_mult, map_mult)

    def ratio(f, b):
        _require_mult(f, b, strict_image=fn is map_mult)
        lam, mu = _ratio_bounds(f, b)
        if fn is mlub_mult:
            values = lam
        elif fn is mglb_mult:
            values = mu
        else:
            with np.errstate(divide="ignore"):
                values = np.subtract(np.log(lam, out=lam), np.log(mu, out=mu), out=mu)
        return RealMap._adopt(values, full_overlap_rect(f.shape, b), f.m)

    ratio.__name__ = f"{fn.__name__} reference"
    return ratio
