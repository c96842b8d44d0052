"""Asplund metrics, their sliding-window distance maps, and the link between them.

Two double-sided probing metrics are implemented.  The multiplicative one
brackets ``f`` between LIP-scaled copies of ``g``:

    lam = inf {a : f <= a (x) g},   mu = sup {a : a (x) g <= f},
    dist_mult(f, g) = ln(lam / mu)

which is invariant when either image is LIP-multiplied by a positive
scalar (an opacity/thickness change).  The additive one brackets with
LIP-shifted copies:

    c1 = inf {c : f <= c (+) g},    c2 = sup {c : c (+) g <= f},
    dist_add(f, g) = c1 (-) c2

which is invariant under LIP-addition of a constant (an exposure-time
change).  Both bracket pairs have closed forms: pointwise extrema of
``tilde(f)/tilde(g)`` and of ``f (-) g``.

Sliding a probe ``b`` over ``f`` gives the bound maps (``mlub_*`` /
``mglb_*``) and the distance maps (``map_mult`` / ``map_add``).  The
multiplicative maps are computed as grey-level dilations/erosions of the
double-log transform ``hat(f)``.  The private ``_ratio_bounds`` keeps the
ratio closed form, per offset, as the reference the tests check them
against; the two agree to rounding error.

The isomorphism ``xi`` links the two families: each distance map can be
obtained from the other applied to complemented, ``xi``-transformed data
(``map_mult_via_add`` / ``map_add_via_mult`` / ``dist_metric_link``).

``oracle_scan_*`` are deliberately naive grid scans of the defining
inf/sup conditions, kept independent of the closed forms so they can
serve as verification oracles.

Window geometry: probe windows are clipped at raster borders.  Border
cells get values computed over the clipped window; every map carries the
rectangle ``full_rect`` of the cells with full probe overlap, where the
invariance guarantees hold: four integers from
:func:`lipmaps.morphology.full_overlap_rect`, no raster.  A cell whose
clipped window is empty (only possible when the probe does not cover its
own anchor) takes the lattice neutral values: ``mlub_mult`` 0,
``mglb_mult`` +inf, ``mlub_add`` -inf, ``mglb_add`` m, and both distance
maps -inf.

One transform per family, through the strip loop of
:mod:`lipmaps.morphology`: each kernel map makes one entry check and one
call of ``_streamed``, which hands the kernel the private ``_hat`` or
``_xi`` as ``T``, the probe's transformed values and the map's finish;
per strip, the finish turns the window max ``hi`` and min ``lo`` of
``T f(x+h) - T b(h)`` into the map's rows.  ``T = hat``: ``exp(hi)``,
``exp(lo)``, ``hi - lo``.  ``T = xi``, which turns LIP subtraction into
subtraction: ``xi_inv(hi)``, ``xi_inv(lo)``, ``xi_inv(hi - lo)``.  The
finish also owns the sign of a zero: a difference, and an additive bound
before ``xi_inv``, gets ``+ 0.0``, so no map returns a ``-0.0`` that the
order of the kernel's folds made.  The kernel sets a cell whose window is
empty to ``hi = -inf`` and ``lo = +inf`` (it is NaN in every difference,
and only a probe off its anchor has one), which the arithmetic carries to
the neutrals: ``xi_inv(-inf) = -inf``, ``xi_inv(+inf) = m``
and ``-inf - (+inf) = -inf``; an ``m`` cell has ``xi = +inf`` and gives
``m`` back exactly.  ``xi_inv(hi - lo)`` is capped at the largest float
below ``m``, which rounding reaches once ``hi - lo`` passes about
``37 m``.  The kernel writes the finished rows into the one output
raster, which the map adopts without a copy, so a map call holds its
output and the kernel's strip scratch, nothing more.  The transform
checks nothing: every image it sees has passed a check at
least as strict, ``I*`` (``map_mult``), ``Ibar`` (the bound maps' own
``hat`` regime) or ``FM`` (``map_add``) at the entry point, or the
``GreyImage`` invariant ``FMbar`` (``mlub_add``/``mglb_add``, ``xi``'s own
regime), and every probe the entry point's masked check plus the zeros
the probe holds off its mask.  The ratio reference ``_ratio_bounds``
keeps its own per-offset clipped loop, so it stays independent of the
kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, RegimeError, SingularityError, VerificationError
from .lip import _first_bad, _hat, _require_not_m, _within, _xi, _xi_inv, lip_sub, require_regime, tilde, xi
from .morphology import _stream, _unsigned_zeros, full_overlap_rect
from .rasters import FmMap, GreyImage, Probe, RealMap, check_same_scale

__all__ = [
    "mult_bounds",
    "add_bounds",
    "dist_mult",
    "dist_add",
    "mlub_mult",
    "mglb_mult",
    "map_mult",
    "mlub_add",
    "mglb_add",
    "map_add",
    "map_mult_via_add",
    "map_add_via_mult",
    "dist_metric_link",
    "oracle_scan_mult",
    "oracle_scan_add",
]

#: Relative tolerance for the identities asserted inside this module.
LINK_TOL = 1e-9


def _check_pair(f: GreyImage, g: GreyImage, regime, g_regime):
    """Same scale and shape, then ``f`` in ``regime``, then the probe image ``g`` in ``g_regime``."""
    check_same_scale(f, g)
    if f.shape != g.shape:
        raise DimensionError(f"image shapes differ: {f.shape} vs {g.shape}")
    require_regime(f.values, f.m, regime)
    require_regime(g.values, g.m, g_regime, what="probe image")


def _lip_distance(d, m):
    """``c1 (-) c2`` from ``d = xi(c1) - xi(c2)``: ``xi_inv(d)``, below ``m``, computed in place in ``d``."""
    _xi_inv(d, m, d)
    # m - xi_inv(d) = m exp(-d/m) > 0, but once d/m passes about 37 it falls
    # under half an ulp of m and the result rounds to m
    return np.minimum(d, np.nextafter(m, -np.inf), out=d)


# ---------------------------------------------------------------------------
# whole-domain metrics
# ---------------------------------------------------------------------------


def _mult_bounds(f, g, regime):
    """``(lam, mu)`` of ``f`` against ``g``, with ``f`` checked against ``regime``."""
    _check_pair(f, g, regime, "I*")
    ratios = tilde(f.values, f.m) / tilde(g.values, g.m)
    return float(ratios.max()), float(ratios.min())


def mult_bounds(f: GreyImage, g: GreyImage) -> tuple[float, float]:
    """Closed-form bracket scalars ``(lam, mu)`` of ``f`` against probe image ``g``.

    ``lam``/``mu`` are the max/min over cells of ``tilde(f)/tilde(g)``.
    ``f`` may take edge values (``[0, m]``); ``g`` must be strictly inside
    ``]0, m[``.
    """
    return _mult_bounds(f, g, "Ibar")


def dist_mult(f: GreyImage, g: GreyImage) -> float:
    """LIP-multiplicative Asplund distance ``ln(lam / mu)``.

    Both images must be in the strict regime ``]0, m[``.  Zero iff ``f``
    is a LIP-multiple of ``g``.
    """
    lam, mu = _mult_bounds(f, g, "I*")
    # lam / mu can overflow where ln(lam) - ln(mu) is finite
    return float(np.log(lam) - np.log(mu))


def add_bounds(f: GreyImage, g: GreyImage) -> tuple[float, float]:
    """Closed-form bracket scalars ``(c1, c2)``: extrema of ``f (-) g``."""
    _check_pair(f, g, "FM", "FM")
    cs = lip_sub(f.values, g.values, f.m)
    return float(cs.max()), float(cs.min())


def dist_add(f: GreyImage, g: GreyImage) -> float:
    """LIP-additive Asplund distance ``c1 (-) c2``, in ``[0, m[``.

    Defined for functions with values in ``]-inf, m[``.  Zero iff ``f``
    equals ``g`` LIP-shifted by a constant.  A distance that rounding
    carries to ``m`` is returned one ulp below ``m``.
    """
    _check_pair(f, g, "FM", "FM")
    # the FM check above is stricter than xi's own FMbar, so xi's check is not repeated
    d = _xi(f.values, f.m, np.empty(f.shape))
    d -= _xi(g.values, f.m, np.empty(g.shape))
    return float(_lip_distance(np.array(d.max() - d.min()), f.m))


# ---------------------------------------------------------------------------
# sliding-window bound maps
# ---------------------------------------------------------------------------


# Smallest |tilde(b)| of a probe cell.  An image cell f < m has f/m <= 1 - 2**-53
# once rounded, so |tilde(f)| <= 53 ln 2 ~ 36.74 at every scale m; above this
# bound the quotient tilde(f) / tilde(b) stays below 36.74/37 of the largest
# float, far enough that rounding cannot carry it past.  Since 37/max is about
# 9.2 tiny, the bound also rejects every subnormal |tilde(b)|.
_PROBE_TILDE_MIN = 37.0 / np.finfo(np.float64).max


def _require_mult(f: GreyImage, b: Probe, strict_image: bool):
    check_same_scale(f, b)
    require_regime(f.values, f.m, "I*" if strict_image else "Ibar")
    require_regime(b.values, b.m, "I*", what="probe", mask=b.mask)
    # the ratio tilde(f) / tilde(b) has a pole where ln(1 - b/m) is 0 (where
    # hat(b) is -inf) and overflows where it is too small
    tb = tilde(b.values, b.m)
    small = b.mask & (np.abs(tb) < _PROBE_TILDE_MIN)
    if small.any():
        idx, where = _first_bad(small)
        raise SingularityError(
            f"probe value {b.values[idx]}{where} too close to 0: |ln(1 - value/m)| = {abs(tb[idx])} "
            f"is below {_PROBE_TILDE_MIN}, where tilde(f)/tilde(b) can overflow"
        )


def _require_add(f: GreyImage, b: Probe, strict_image: bool):
    check_same_scale(f, b)
    _require_not_m(b.values, b.m, "probe", b.mask)
    require_regime(b.values, b.m, "FM", what="probe", mask=b.mask)
    if strict_image:
        require_regime(f.values, f.m, "FM")


def _streamed(f, b, t, finish, hi=True, lo=True):
    """``(values, full_rect)`` of a map computed by the kernel with ``T = t``.

    ``t`` is ``_hat`` (multiplicative: the dilation of ``hat(f)`` by
    ``-hat(reflect(b))`` and its erosion by ``hat(b)``) or ``_xi``
    (additive: ``xi`` of ``f(x+h) (-) b(h)``); the caller has already
    checked image and probe.  ``finish`` goes to the kernel: per strip it
    gets the padded block of each side asked for, the window max and min of
    ``t(f)(x+h) - t(b)(h)``, turns them in place into the map's values and
    returns the block that holds them.
    """
    m = f.m
    out = np.empty(f.shape)
    tb = b.with_values(t(b.values, m, np.empty(b.shape)))
    _stream(f.values, tb, [out], hi, lo, lambda level0: t(level0, m, level0), finish)
    return out, full_overlap_rect(f.shape, b)


def _exp(side):
    """The bound maps' finish, in place: a bound past the largest float is +inf."""
    with np.errstate(over="ignore"):
        return np.exp(side, out=side)


def mlub_mult(f: GreyImage, b: Probe) -> RealMap:
    """Map of least upper bounds: per cell, the max of ``tilde(f)(x+h)/tilde(b)(h)``.

    Computed as the dilation ``exp(hat(f) dilate -hat(reflect(b)))``,
    through the kernel.  ``f`` may contain the edge values 0 and ``m``
    (which produce 0 and +inf entries); the probe must be strictly inside
    ``]0, m[``.
    """
    _require_mult(f, b, strict_image=False)
    return RealMap._adopt(*_streamed(f, b, _hat, _exp, lo=False), f.m)


def mglb_mult(f: GreyImage, b: Probe) -> RealMap:
    """Map of greatest lower bounds, the min dual of :func:`mlub_mult`.

    Computed as the erosion ``exp(hat(f) erode hat(b))``, through the kernel.
    """
    _require_mult(f, b, strict_image=False)
    return RealMap._adopt(*_streamed(f, b, _hat, _exp, hi=False), f.m)


def map_mult(f: GreyImage, b: Probe) -> RealMap:
    """Map of LIP-multiplicative Asplund distances ``ln(mlub / mglb)``.

    Per cell, the multiplicative distance between the probe and the image
    restricted to the probe window, evaluated as ``[hat(f) dilate
    -hat(reflect(b))] - [hat(f) erode hat(b)]``.  Strict regime: every
    image and probe value must lie in ``]0, m[``.
    """
    _require_mult(f, b, strict_image=True)
    return RealMap._adopt(*_streamed(f, b, _hat, lambda hi, lo: _unsigned_zeros(np.subtract(hi, lo, out=lo))), f.m)


def mlub_add(f: GreyImage, b: Probe) -> FmMap:
    """Additive map of least upper bounds: per cell, max of ``f(x+h) (-) b(h)``.

    Accepts any function raster with values up to ``m`` (closure); the
    probe must have values strictly below ``m``.
    """
    _require_add(f, b, strict_image=False)
    return FmMap._adopt(*_streamed(f, b, _xi, lambda hi: _xi_inv(_unsigned_zeros(hi), f.m, hi), lo=False), f.m)


def mglb_add(f: GreyImage, b: Probe) -> FmMap:
    """Additive map of greatest lower bounds, the min dual of :func:`mlub_add`."""
    _require_add(f, b, strict_image=False)
    return FmMap._adopt(*_streamed(f, b, _xi, lambda lo: _xi_inv(_unsigned_zeros(lo), f.m, lo), hi=False), f.m)


def map_add(f: GreyImage, b: Probe) -> FmMap:
    """Map of LIP-additive Asplund distances ``mlub_add (-) mglb_add``, in ``[0, m[``.

    Strict additive regime: image and probe values in ``]-inf, m[``.  A
    value that rounding carries to ``m`` is returned one ulp below ``m``.
    """
    _require_add(f, b, strict_image=True)

    def finish(hi, lo):
        return _unsigned_zeros(_lip_distance(np.subtract(hi, lo, out=lo), f.m))

    return FmMap._adopt(*_streamed(f, b, _xi, finish), f.m)


# ---------------------------------------------------------------------------
# the isomorphism link
# ---------------------------------------------------------------------------


def _rounds_to_m(out, m, values, mask, what, why):
    """``out``, the link transform of ``values``, unless a masked cell of it rounded to ``m``.

    That cell raises, named as the caller gave it.
    """
    if _within(out, m, hi_open=True):  # no cell reaches m
        return out
    bad = (out == m) & mask
    if bad.any():
        idx, where = _first_bad(bad)
        raise RegimeError(f"{what} value {values[idx]}{where} {why}")
    return out


def _complemented(values, m, what, mask=True):
    """``complement(xi(values))``, in one fresh array, for values in ``]0, m[``."""
    out = _xi(values, m, np.empty(values.shape))
    # m - xi(value) rounds to m once xi(value) is at most half an ulp of m
    why = "is too close to 0: m - xi(value) rounds to m"
    return _rounds_to_m(np.subtract(m, out, out=out), m, values, mask, what, why)


def _to_strict(values, m, what, mask=True):
    """``xi_inv(complement(values))``, in one fresh array, for values in ``]-inf, m[``."""
    out = np.subtract(m, values)
    why = f"is too far below -m={m}: xi_inv(m - value) rounds to m"
    return _rounds_to_m(_xi_inv(out, m, out), m, values, mask, what, why)


def map_mult_via_add(f: GreyImage, b: Probe) -> RealMap:
    """Multiplicative distance map computed through the additive one.

    Evaluates ``(1/m) * xi( map_add(complement(xi(f)), complement(xi(b)) ))``,
    which must equal :func:`map_mult` to rounding error.  Same strict
    regime as :func:`map_mult`; a cell so close to 0 that its transform
    rounds to ``m`` is rejected.
    """
    _require_mult(f, b, strict_image=True)
    m = f.m
    # the intermediate image is passed on, not bound, so it is freed once map_add
    # returns; it is made first, so a bad image cell is named before a probe cell
    inner = map_add(
        GreyImage._adopt(_complemented(f.values, m, "image"), m),
        b.with_values(_complemented(b.values, m, "probe", b.mask)),
    )
    # the map container has checked its values against xi's regime, FMbar
    vals = _xi(inner.values, m, np.empty(inner.shape))
    return RealMap._adopt(np.divide(vals, m, out=vals), inner.full_rect, m)


def map_add_via_mult(f1: GreyImage, b1: Probe) -> FmMap:
    """Additive distance map computed through the multiplicative one.

    Evaluates ``xi_inv( m * map_mult(xi_inv(complement(f1)), xi_inv(complement(b1))) )``,
    which must equal :func:`map_add` to rounding error.  Requires finite
    inputs below ``m``; a ``-inf`` cell has no strict-regime transform and
    is rejected, and so is a cell so far below ``-m`` that its transform
    rounds to ``m``.
    """
    _require_add(f1, b1, strict_image=True)
    m = f1.m
    # the intermediate image is passed on, not bound, so it is freed once map_mult
    # returns; it is made first, so a bad image cell is named before a probe cell
    inner = map_mult(
        GreyImage._adopt(_to_strict(f1.values, m, "image"), m),
        b1.with_values(_to_strict(b1.values, m, "probe", b1.mask)),
    )
    vals = np.multiply(m, inner.values)
    return FmMap._adopt(_xi_inv(vals, m, vals), inner.full_rect, m)


def dist_metric_link(f: GreyImage, g: GreyImage) -> tuple[float, float]:
    """Both evaluations of the multiplicative distance related by the isomorphism.

    Returns ``(dist_mult(f, g), (1/m) * xi(dist_add(complement(xi(f)),
    complement(xi(g)))))`` and raises :class:`VerificationError` if they
    differ by more than ``1e-9`` (scale-relative).  A cell so close to 0
    that its transform rounds to ``m`` is rejected.
    """
    direct = dist_mult(f, g)  # checks f and g
    m = f.m
    fc = GreyImage._adopt(_complemented(f.values, m, "image"), m)
    gc = GreyImage._adopt(_complemented(g.values, m, "probe image"), m)
    linked = float(xi(dist_add(fc, gc), m) / m)
    if abs(direct - linked) > LINK_TOL * (1.0 + abs(direct)):
        raise VerificationError(
            f"metric link identity violated: direct {direct!r} vs linked {linked!r}"
        )
    return direct, linked


# ---------------------------------------------------------------------------
# references: the ratio closed form and the definitional scan oracles
# ---------------------------------------------------------------------------

# Output rows per block of the ratio reference's per-offset loop.
_RATIO_ROWS = 64


def _ratio_bounds(f, b):
    """``(lam, mu)``: per cell, the max and min of ``tilde(f)(x+h) / tilde(b)(h)``.

    The closed form of the bound maps, kept as the independent reference
    the tests check the kernel against; the caller has checked image and
    probe (``_require_mult``).  The offsets ``h`` are those whose partner
    lies inside.  ``tilde(f)`` is computed once.  The output rows are taken
    in blocks of ``_RATIO_ROWS``; per block, each offset's quotient is
    divided into one reused buffer of that many rows and folded into both
    bounds.
    """
    tf = tilde(f.values, f.m)
    h, w = tf.shape
    lam, mu = np.full(tf.shape, 0.0), np.full(tf.shape, np.inf)
    quotient = np.empty((min(h, _RATIO_ROWS), w))
    dys, dxs, vals = b.offsets()
    offsets = list(zip(dys.tolist(), dxs.tolist(), tilde(vals, b.m).tolist()))
    with np.errstate(invalid="ignore"):
        for y0 in range(0, h, _RATIO_ROWS):
            y1 = min(h, y0 + _RATIO_ROWS)
            for dy, dx, tb in offsets:
                r0, r1 = max(y0, -dy), min(y1, h - dy)
                c0, c1 = max(0, -dx), min(w, w - dx)
                if r0 < r1 and c0 < c1:
                    part = np.divide(tf[r0 + dy : r1 + dy, c0 + dx : c1 + dx], tb, out=quotient[: r1 - r0, : c1 - c0])
                    for acc, out in ((np.maximum, lam), (np.minimum, mu)):
                        dst = out[r0:r1, c0:c1]
                        acc(dst, part, out=dst)
    return lam, mu


_CHUNK = 4_000_000  # grid-points x cells per predicate evaluation block


def _scan_first_last(grid_eval, n_points, n_cells):
    """Evaluate the two bracketing predicates over a grid, chunked.

    ``grid_eval(i0, i1)`` returns ``(P, Q)`` boolean arrays for grid slots
    ``i0:i1``.  Returns (first index with P, last index with Q), either of
    which may be None.
    """
    first_p = last_q = None
    step = max(1, _CHUNK // max(1, n_cells))
    for i0 in range(0, n_points, step):
        i1 = min(n_points, i0 + step)
        p, q = grid_eval(i0, i1)
        if first_p is None and p.any():
            first_p = i0 + int(np.argmax(p))
        if q.any():
            last_q = i0 + int(len(q) - 1 - np.argmax(q[::-1]))
    return first_p, last_q


def oracle_scan_mult(f: GreyImage, g: GreyImage, step_ratio: float = 1.0001) -> tuple[float, float]:
    """Bracket ``(lam, mu)`` by scanning the defining conditions on a geometric grid.

    Returns the smallest grid ``a`` with ``f <= a (x) g`` pointwise and the
    largest grid ``a`` with ``a (x) g <= f`` pointwise, evaluating the LIP
    scaling literally at every grid point (no closed form involved).  The
    grid extends itself by doubling/halving from 1 until it straddles both
    thresholds, so the true ``lam`` lies in ``[result/step_ratio, result]``
    and ``mu`` in ``[result, result*step_ratio]``.
    """
    _check_pair(f, g, "I*", "I*")
    step_ratio = float(step_ratio)
    if not step_ratio > 1.0:
        raise DomainError(f"step_ratio must exceed 1, got {step_ratio}")
    m = f.m
    fv = f.values.ravel()
    tg = 1.0 - g.values.ravel() / m

    def scaled(alpha):
        return m - m * tg ** alpha

    def p_holds(alpha):  # f <= alpha (x) g everywhere
        return bool(np.all(fv <= scaled(alpha)))

    def q_holds(alpha):  # alpha (x) g <= f everywhere
        return bool(np.all(scaled(alpha) <= fv))

    lo = 1.0
    for _ in range(4200):
        if q_holds(lo):
            break
        lo /= 2.0
    else:
        raise DomainError("alpha scan failed to find a lower bracket")
    hi = 1.0
    for _ in range(4200):
        if p_holds(hi):
            break
        hi *= 2.0
    else:
        raise DomainError("alpha scan failed to find an upper bracket")

    n = int(np.ceil(np.log(hi / lo) / np.log(step_ratio))) + 2
    alphas = lo * step_ratio ** np.arange(n)

    def grid_eval(i0, i1):
        vals = m - m * tg[None, :] ** alphas[i0:i1, None]
        return (
            np.all(fv[None, :] <= vals, axis=1),
            np.all(vals <= fv[None, :], axis=1),
        )

    first_p, last_q = _scan_first_last(grid_eval, n, fv.size)
    if first_p is None or last_q is None:
        raise DomainError("alpha scan grid failed to bracket the bounds")
    return float(alphas[first_p]), float(alphas[last_q])


def oracle_scan_add(f: GreyImage, g: GreyImage, step: float = 0.001, c_min: float | None = None) -> tuple[float, float]:
    """Bracket ``(c1, c2)`` by scanning constants on an arithmetic grid below ``m``.

    Returns the smallest grid ``c`` with ``f <= c (+) g`` pointwise and the
    largest grid ``c`` with ``c (+) g <= f`` pointwise.  The grid runs from
    ``c_min`` (default -1, doubled downward until it straddles the lower
    threshold) up to ``m`` in steps of ``step``, so ``c1`` lies in
    ``[result - step, result]`` and ``c2`` in ``[result, result + step]``.
    """
    _check_pair(f, g, "FM", "FM")
    step = float(step)
    if not step > 0:
        raise DomainError(f"step must be positive, got {step}")
    m = f.m
    fv = f.values.ravel()
    gv = g.values.ravel()

    def shifted(c):
        return c + gv - c * gv / m

    lo = -1.0 if c_min is None else float(c_min)
    for _ in range(4200):
        if np.all(shifted(lo) <= fv):
            break
        lo = lo * 2.0 if lo < 0 else -1.0
    else:
        raise DomainError("constant scan failed to find a lower bracket")

    n = int(np.ceil((m - lo) / step))
    cs = lo + step * np.arange(n)
    cs = cs[cs < m]
    n = cs.size

    def grid_eval(i0, i1):
        vals = cs[i0:i1, None] + gv[None, :] - cs[i0:i1, None] * gv[None, :] / m
        return (
            np.all(fv[None, :] <= vals, axis=1),
            np.all(vals <= fv[None, :], axis=1),
        )

    first_p, last_q = _scan_first_last(grid_eval, n, fv.size)
    if first_p is None or last_q is None:
        raise DomainError("constant scan grid failed to bracket the bounds")
    return float(cs[first_p]), float(cs[last_q])
