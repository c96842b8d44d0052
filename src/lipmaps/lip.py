"""Logarithmic image processing (LIP) algebra on grey values.

Grey values live in ``[0, m[`` where ``m`` is the grey-scale upper bound
(256 for 8-bit data).  The scale is inverted with respect to the usual
convention: 0 is white (fully transparent), ``m`` is black (opaque).  The
model derives from the transmittance law ``T(f (+) g) = T(f) * T(g)`` with
``T(f) = 1 - f/m``, which yields

    f (+) g   = f + g - f*g/m              (LIP addition)
    lam (x) f = m - m*(1 - f/m)**lam       (LIP scalar multiplication)
    (-) f     = -f / (1 - f/m)             (LIP negation)
    f (-) g   = (f - g) / (1 - g/m)        (LIP subtraction)

Every function here accepts a scalar or a numpy array (any shape) and
returns the same kind.  Extended reals are plain float64 with ``+-inf``;
``tilde``/``hat``/``xi`` map edge grey values to infinities instead of
raising, so pointwise pipelines stay total.  They evaluate ``ln(1 - f/m)``
as ``log1p(-f/m)`` and ``1 - exp(y)`` as ``-expm1(y)``, which keeps full
relative precision for grey values near 0.  All functions are pure: none
writes into its input.  Each transform (``tilde``, ``hat``, ``hat_inv``,
``xi``, ``xi_inv``) allocates one output of its input's shape and finishes
in it with ``out=`` ufuncs; ``lip_add`` allocates its output and fills
it in blocks of 2**15 cells through one block of scratch.  The bodies of
``tilde``, ``hat``, ``xi`` and ``xi_inv`` are the private ``_tilde``,
``_hat``, ``_xi`` and ``_xi_inv``, which write
into a given ``out`` and check nothing; ``_hat`` and ``_xi`` finish
``_tilde``'s result in place, and the distance maps call them on each
row strip.  The in-place steps are the literal formulas reordered by
exact IEEE identities (``-f/m == f/(-m)``, ``(-m)*x == x*(-m)``), so the
results are bit for bit those of the formulas above.

Grey-value regimes
------------------
The algebra and the metrics are defined on nested value sets, named in
one table and checked by :func:`require_regime`, which names the first
offending cell:

* ``I``     : ``[0, m[``      ordinary images
* ``I*``    : ``]0, m[``      strictly positive images (multiplicative metric)
* ``Ibar``  : ``[0, m]``      closure, edge values allowed
* ``FM``    : ``]-inf, m[``   functions (additive metric; may be negative)
* ``FMm``   : ``]-inf, m]``   ``FM`` with its absorbing element ``m`` (``lip_add``)
* ``FMbar`` : ``[-inf, m]``   closure of ``FM`` (``xi``, images, additive maps)

NaN lies outside every regime.  With ``m = inf`` the table also names the
checks that have no grey-scale bound: ``FMbar`` admits every value but
NaN, ``FM`` every finite value and ``I*`` every positive finite value.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, RegimeError, SingularityError

#: Default grey-scale upper bound (8-bit data).
DEFAULT_M = 256.0

__all__ = [
    "DEFAULT_M",
    "lip_add",
    "lip_mult",
    "lip_neg",
    "lip_sub",
    "transmittance",
    "tilde",
    "hat",
    "hat_inv",
    "xi",
    "xi_inv",
    "complement",
    "complement_difference_identity",
    "require_regime",
]


_REGIMES = {
    # name: (low, low_open, high_open); the high end is always m
    "I": (0.0, False, True),
    "I*": (0.0, True, True),
    "Ibar": (0.0, False, False),
    "FM": (-np.inf, True, True),
    "FMm": (-np.inf, True, False),
    "FMbar": (-np.inf, False, False),
}


def _first_bad(bad):
    """Row-major index of the first true cell of ``bad``, and where it is as text."""
    idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), np.shape(bad)))
    if not idx:
        return idx, ""
    return idx, f" at index {idx[0]}" if len(idx) == 1 else f" at cell {idx}"


def _within(v, hi=None, lo=None, hi_open=False, lo_open=False):
    """Whether every value of ``v`` passes the bounds given, by one reduction each and no bool raster.

    ``hi`` bounds ``v.max()`` and ``lo`` bounds ``v.min()``, strictly where
    open; ``None`` skips that reduction.  A NaN carries through either
    reduction and fails it; an empty array passes.  The reductions are
    compared as Python floats with invalid-value warnings off, so a NaN
    warns on no numpy version.  The full-raster checks call this first and
    build their bool mask only when it fails, to name the first bad cell.
    """
    if v.size == 0:
        return True
    with np.errstate(invalid="ignore"):
        if hi is not None:
            top = float(v.max())
            if not (top < hi if hi_open else top <= hi):
                return False
        if lo is not None:
            bottom = float(v.min())
            if not (bottom > lo if lo_open else bottom >= lo):
                return False
    return True


def require_regime(values, m, regime, what="image", mask=None):
    """Check every value against a named regime and return the values as float64.

    ``regime`` is a name from the table in the module docstring; NaN lies
    outside every regime.  With ``mask`` given, only masked cells are
    checked (probe domains).  The first offending cell (row-major) and its
    value appear in the :class:`RegimeError` message.  A passing array
    costs one or two reductions (``max`` against ``m``, and ``min`` against
    the lower bound where the regime has one) and no bool raster; the
    cell-by-cell test runs only when a reduction fails.
    """
    lo, lo_open, hi_open = _REGIMES[regime]
    v = np.asarray(values, dtype=np.float64)
    has_lo = lo_open or lo > -np.inf  # a closed -inf bound holds for every other value
    if _within(v, m, lo if has_lo else None, hi_open, lo_open):
        return v
    ok = (v < m) if hi_open else (v <= m)  # NaN fails every comparison
    if has_lo:
        ok &= (v > lo) if lo_open else (v >= lo)
    if mask is not None:
        ok |= ~np.asarray(mask, dtype=bool)
    if not ok.all():
        idx, where = _first_bad(~ok)
        value = "NaN" if np.isnan(v[idx]) else v[idx]
        lo_b, hi_b = "]" if lo_open else "[", "[" if hi_open else "]"
        raise RegimeError(f"{what} value {value}{where} outside regime {lo_b}{lo:g}, {m}{hi_b}")
    return v


def _require_not_m(values, m, what, mask=None):
    """Raise :class:`SingularityError` naming the first cell equal to ``m``, the pole of ``f (-) g`` in ``g``."""
    if _within(values, m, hi_open=True):  # no cell reaches m
        return
    at_m = values == m
    if mask is not None:
        at_m &= mask
    if at_m.any():
        raise SingularityError(f"{what} value equals m={m}{_first_bad(at_m)[1]}: LIP difference is singular there")


def _check_m(m):
    return float(require_regime(m, np.inf, "I*", "grey-scale bound m"))


def _asvalues(x, name):
    """``x`` as float64, checked to hold no NaN (``FMbar`` at ``m = inf``)."""
    return require_regime(x, np.inf, "FMbar", name)


def _check_shapes(fa, ga):
    if fa.ndim and ga.ndim and fa.shape != ga.shape:
        raise DimensionError(f"shape mismatch: {fa.shape} vs {ga.shape}")


def _out(*arrays):
    """One fresh float64 output of the operands' broadcast shape, 0-d for scalars, for ``out=`` ufuncs."""
    return np.empty(np.broadcast_shapes(*(a.shape for a in arrays)))


def _tilde(fa, m, out):
    """``log1p(-fa/m)`` written into ``out``, which may be ``fa``; ``fa`` is not checked."""
    np.divide(fa, -m, out=out)
    with np.errstate(divide="ignore"):
        return np.log1p(out, out=out)


def _hat(fa, m, out):
    """``log(-log1p(-fa/m))`` written into ``out``, which may be ``fa``; ``fa`` is not checked."""
    np.negative(_tilde(fa, m, out), out=out)
    with np.errstate(divide="ignore"):
        return np.log(out, out=out)


def _xi(fa, m, out):
    """``-m * log1p(-fa/m)`` written into ``out``, which may be ``fa``; ``fa`` is not checked."""
    return np.multiply(_tilde(fa, m, out), -m, out=out)


def _xi_inv(fa, m, out):
    """``-m * expm1(-fa/m)`` written into ``out``, which may be ``fa``."""
    with np.errstate(over="ignore"):
        np.divide(fa, -m, out=out)
        np.expm1(out, out=out)
        return np.multiply(out, -m, out=out)


def _ret(out, *inputs):
    # scalar in -> scalar out
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


#: Output elements per ``lip_add`` block: 256 KiB of float64, so that a block
#: of each operand, of the output and of the scratch stay in a 2 MiB L2 cache.
_BLOCK = 2**15


def lip_add(f, g, m=DEFAULT_M):
    """LIP addition ``f (+) g = f + g - f*g/m``.

    Models the superimposition of two semi-transparent layers.  Commutative
    and associative; 0 is neutral, ``m`` is absorbing.  Both operands must
    lie in ``]-inf, m]`` (the closure value ``m`` is allowed; ``-inf`` is
    not, since ``-inf (+) g`` has no value).

    The output is filled in row-major blocks of ``_BLOCK`` cells, each by
    the formula's four ufuncs in its order (``f + g`` into the output,
    ``f * g`` into one block of scratch, ``/ m``, then the difference), so
    every cell is bit for bit the formula's.  A scalar operand is broadcast
    per block, and an operand not in row-major order is gathered one block
    at a time, never copied whole.
    """
    m = _check_m(m)
    fa = np.asarray(f, dtype=np.float64)
    ga = np.asarray(g, dtype=np.float64) if _within(fa, m, -np.inf, lo_open=True) else None
    if ga is None or not _within(ga, m, -np.inf, lo_open=True):
        # a NaN, -inf or value above m: these checks name the first bad cell, in their usual order
        fa, ga = _asvalues(f, "f"), _asvalues(g, "g")
        _check_shapes(fa, ga)
        require_regime(fa, m, "FMm", "f")
        require_regime(ga, m, "FMm", "g")
    else:
        _check_shapes(fa, ga)
    out = _out(fa, ga)
    p = np.empty(min(out.size, _BLOCK))
    flags = ["external_loop", "buffered", "zerosize_ok"]
    ops = [["readonly"], ["readonly"], ["writeonly"]]
    with np.nditer([fa, ga, out], flags, ops, order="C", buffersize=_BLOCK) as blocks:
        for a, b, o in blocks:
            q = p[: o.size]
            np.add(a, b, out=o)
            np.multiply(a, b, out=q)
            np.divide(q, m, out=q)
            np.subtract(o, q, out=o)
    return _ret(out, f, g)


def lip_mult(lam, f, m=DEFAULT_M):
    """LIP multiplication by a real scalar: ``lam (x) f = m - m*(1 - f/m)**lam``.

    Defined for ``f`` in ``[0, m]`` and any real ``lam`` (metric code
    restricts itself to ``lam > 0``).  ``1 (x) f = f`` and
    ``lam (x) (mu (x) f) = (lam*mu) (x) f``.
    """
    m = _check_m(m)
    fa = require_regime(f, m, "Ibar", "f")
    lam = float(_asvalues(lam, "lam"))
    out = np.divide(fa, m, out=_out(fa))
    np.subtract(1.0, out, out=out)
    with np.errstate(divide="ignore"):
        out **= lam  # not np.power: in place keeps the scalar-power fast paths that ``**`` takes
    np.multiply(m, out, out=out)
    return _ret(np.subtract(m, out, out=out), f)


def lip_neg(f, m=DEFAULT_M):
    """LIP negation ``(-) f = -f / (1 - f/m)``, the inverse for ``lip_add``.

    Defined on ``]-inf, m[`` and singular at ``f = m``.  The result may be
    negative (it is a "function", not an image); it satisfies
    ``f (+) (-)f = 0`` and is an involution.
    """
    m = _check_m(m)
    fa = np.asarray(f, dtype=np.float64)
    _require_not_m(fa, m, "f")
    require_regime(fa, m, "FM", "f")
    return _ret((-fa) / (1.0 - fa / m), f)


def lip_sub(f, g, m=DEFAULT_M):
    """LIP subtraction ``f (-) g = (f - g) / (1 - g/m)``.

    ``g`` must lie in ``]-inf, m[``; the difference is singular at
    ``g = m``.  ``f (-) g`` is an image iff ``f >= g``;
    negative values are propagated, never clamped.
    """
    m = _check_m(m)
    fa, ga = _asvalues(f, "f"), _asvalues(g, "g")
    _check_shapes(fa, ga)
    _require_not_m(ga, m, "g")
    require_regime(ga, m, "FM", "g")
    return _ret(_lip_sub(fa, ga, m), f, g)


def _lip_sub(fa, ga, m):
    """``(fa - ga) / (1 - ga/m)``; ``ga`` is not checked."""
    return (fa - ga) / (1.0 - ga / m)


def transmittance(f, m=DEFAULT_M):
    """Transmittance ``T(f) = 1 - f/m`` of the layer generating ``f``.

    Satisfies the product law ``transmittance(lip_add(f, g)) ==
    transmittance(f) * transmittance(g)``.
    """
    m = _check_m(m)
    fa = require_regime(f, m, "I", "f")
    return _ret(1.0 - fa / m, f)


def tilde(f, m=DEFAULT_M):
    """Log-transmittance ``ln(1 - f/m)`` for ``f`` in ``[0, m]``.

    Non-positive; ``tilde(0) = 0`` and ``tilde(m) = -inf``.
    """
    m = _check_m(m)
    fa = require_regime(f, m, "Ibar", "f")
    return _ret(_tilde(fa, m, _out(fa)), f)


def hat(f, m=DEFAULT_M):
    """Double-log transform ``ln(-ln(1 - f/m))`` for ``f`` in ``[0, m]``.

    Finite exactly on ``]0, m[``; ``hat(0) = -inf`` and ``hat(m) = +inf``.
    Turns LIP multiplication into an ordinary shift, which is what lets the
    bound maps be written as a grey-level dilation and erosion.
    """
    m = _check_m(m)
    fa = require_regime(f, m, "Ibar", "f")
    return _ret(_hat(fa, m, _out(fa)), f)


def hat_inv(y, m=DEFAULT_M):
    """Inverse of :func:`hat`: ``m * (1 - exp(-exp(y)))``, total on the extended reals."""
    m = _check_m(m)
    ya = _asvalues(y, "y")
    with np.errstate(over="ignore"):
        t = np.exp(ya, out=_out(ya))
        np.negative(t, out=t)
        np.expm1(t, out=t)
        return _ret(np.multiply(t, -m, out=t), y)


def xi(f, m=DEFAULT_M):
    """Isomorphism ``xi(f) = -m * ln(1 - f/m)`` from ``[-inf, m]`` onto ``[-inf, +inf]``.

    Order preserving, and turns the LIP laws into ordinary arithmetic:
    ``xi(f (+) g) = xi(f) + xi(g)`` and ``xi(lam (x) f) = lam * xi(f)``.
    Equals ``-m * tilde(f)`` on ``[0, m]`` but also accepts negative values.
    """
    m = _check_m(m)
    fa = require_regime(f, m, "FMbar", "f")
    return _ret(_xi(fa, m, _out(fa)), f)


def xi_inv(f, m=DEFAULT_M):
    """Inverse isomorphism ``xi_inv(f) = m * (1 - exp(-f/m))``; ``xi_inv(xi(f)) = f``."""
    m = _check_m(m)
    fa = _asvalues(f, "f")
    return _ret(_xi_inv(fa, m, _out(fa)), f)


def complement(f, m=DEFAULT_M):
    """Grey-scale complement ``m - f``, an involution on the extended reals.

    Maps ``[-inf, m]`` onto ``[0, +inf]`` and back; the link between the
    two Asplund metrics applies it to ``xi``-transformed values, so no
    upper bound is imposed on the input.
    """
    m = _check_m(m)
    fa = _asvalues(f, "f")
    return _ret(m - fa, f)


def complement_difference_identity(f, b, m=DEFAULT_M, tol=1e-9):
    """Evaluate ``(m - f) (-) (m - b)`` and check it equals ``m * (1 - f/b)``.

    Test utility for the identity that underpins the link between the two
    Asplund metrics.  Requires ``f`` in ``[0, m]`` and ``b`` in ``]0, m]``;
    raises :class:`VerificationError` if the two sides differ by more than
    ``tol * m``, otherwise returns the left-hand side.
    """
    from .errors import VerificationError

    m = _check_m(m)
    fa, ba = _asvalues(f, "f"), _asvalues(b, "b")
    _check_shapes(fa, ba)
    if np.any(ba == 0):
        raise SingularityError("identity undefined at b = 0")
    require_regime(ba, m, "Ibar", "b")
    require_regime(fa, m, "Ibar", "f")
    lhs = lip_sub(complement(fa, m), complement(ba, m), m)
    rhs = m * (1.0 - fa / ba)
    err = float(np.max(np.abs(np.asarray(lhs) - rhs)))
    if err > tol * m:
        raise VerificationError(
            f"complement-difference identity violated: max abs error {err:g} > {tol * m:g}"
        )
    return _ret(lhs, f, b)
