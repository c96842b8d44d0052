import numpy as np
import pytest

from lipmaps import GreyImage, Probe

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
