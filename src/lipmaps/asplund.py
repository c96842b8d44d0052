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
multiplicative maps can be computed either from the ratio closed form
or as grey-level dilations/erosions of the double-log transform
``hat(f)``; both paths are exposed and must agree to rounding error.

The isomorphism ``xi`` links the two families: each distance map can be
obtained from the other applied to complemented, ``xi``-transformed data
(``map_mult_via_add`` / ``map_add_via_mult`` / ``dist_metric_link``).

``oracle_scan_*`` are deliberately naive grid scans of the defining
inf/sup conditions, kept independent of the closed forms so they can
serve as verification oracles.

Window geometry: probe windows are clipped at raster borders.  Border
cells get values computed over the clipped window; every map carries a
``full_mask`` marking the cells with full probe overlap, where the
invariance guarantees hold.  A cell whose clipped window is empty (only
possible when the probe does not cover its own anchor) takes the lattice
neutral values: ``mlub_mult`` 0, ``mglb_mult`` +inf, ``mlub_add`` -inf,
``mglb_add`` m, and both distance maps -inf.

One transform per family: ``_extrema`` applies ``T`` to image and probe
and makes one call to :func:`lipmaps.morphology.spread`, whose window max
``hi`` and min ``lo`` of ``T f(x+h) - T b(h)`` give the maps.  ``T = hat``:
``exp(hi)``, ``exp(lo)``, ``hi - lo``.  ``T = xi``, which turns LIP
subtraction into subtraction: ``xi_inv(hi)``, ``xi_inv(lo)``,
``xi_inv(hi - lo)``.  An empty window keeps ``hi = -inf`` and
``lo = +inf``, which the arithmetic carries to the neutrals:
``xi_inv(-inf) = -inf``, ``xi_inv(+inf) = m`` and ``-inf - (+inf) = -inf``;
an ``m`` cell has ``xi = +inf`` and gives ``m`` back exactly.  ``xi_inv(hi - lo)`` is capped
at the largest float below ``m``, which rounding reaches once ``hi - lo``
passes about ``37 m``.  The ratio path keeps its own per-offset clipped
loop, so it stays an independent reference for the kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, RegimeError, SingularityError, VerificationError
from .lip import _first_bad, _require_not_m, complement, hat, lip_sub, require_regime, tilde, xi, xi_inv
from .morphology import full_overlap_mask, spread
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


def _lip_distance(hi, lo, m):
    """``c1 (-) c2`` from the extrema ``hi``, ``lo`` of ``xi(f) - xi(g)``: ``xi_inv(hi - lo)``, below ``m``."""
    # m - xi_inv(d) = m exp(-d/m) > 0, but once d/m passes about 37 it falls
    # under half an ulp of m and the result rounds to m
    d = np.asarray(xi_inv(hi - lo, m))
    np.minimum(d, np.nextafter(m, -np.inf), out=d)
    return d


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
    # as map_mult's ratio path: lam / mu can overflow where ln(lam) - ln(mu) is finite
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
    d = xi(f.values, f.m) - xi(g.values, f.m)
    return float(_lip_distance(d.max(), d.min(), f.m))


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


def _require_add(f: GreyImage, b: Probe):
    check_same_scale(f, b)
    _require_not_m(b.values, b.m, "probe", b.mask)
    require_regime(b.values, b.m, "FM", what="probe", mask=b.mask)


def _ratio_bound_mult(f, b, maximum):
    """Per cell, the max (or min) of ``tilde(f)(x+h) / tilde(b)(h)`` over the offsets ``h`` whose partner lies inside."""
    tf = tilde(f.values, f.m)
    h, w = tf.shape
    out = np.full(tf.shape, 0.0 if maximum else np.inf)
    acc = np.maximum if maximum else np.minimum
    dys, dxs, vals = b.offsets()
    with np.errstate(invalid="ignore"):
        for dy, dx, tb in zip(dys.tolist(), dxs.tolist(), tilde(vals, b.m).tolist()):
            r0, r1 = max(0, -dy), min(h, h - dy)
            c0, c1 = max(0, -dx), min(w, w - dx)
            if r0 < r1 and c0 < c1:
                dst = out[r0:r1, c0:c1]
                acc(dst, tf[r0 + dy : r1 + dy, c0 + dx : c1 + dx] / tb, out=dst)
    return out


def _extrema(f, b, t, hi=True, lo=True):
    """``(hi, lo, full_mask)``: window max/min of ``t(f)(x+h) - t(b)(h)`` and the full-overlap mask.

    ``t`` is ``hat`` (multiplicative: the dilation of ``hat(f)`` by
    ``-hat(reflect(b))`` and its erosion by ``hat(b)``) or ``xi``
    (additive: ``xi`` of ``f(x+h) (-) b(h)``).  A side not asked for is
    ``None``; an empty window leaves ``hi = -inf`` and ``lo = +inf``.
    """
    ext = spread(t(f.values, f.m), b.with_values(t(b.values, f.m)), hi, lo)
    return (*ext, full_overlap_mask(f.shape, b))


def _bound_mult(f, b, path, maximum):
    _require_mult(f, b, strict_image=False)
    if path == "ratio":
        return RealMap(_ratio_bound_mult(f, b, maximum), full_overlap_mask(f.shape, b), f.m)
    if path != "morpho":
        raise ValueError(f"unknown path {path!r}")
    hi, lo, full = _extrema(f, b, hat, hi=maximum, lo=not maximum)
    with np.errstate(over="ignore"):
        return RealMap(np.exp(hi if maximum else lo), full, f.m)


def mlub_mult(f: GreyImage, b: Probe, path: str = "ratio") -> RealMap:
    """Map of least upper bounds: per cell, the max of ``tilde(f)(x+h)/tilde(b)(h)``.

    ``path="morpho"`` computes the same map as
    ``exp(hat(f) dilate -hat(reflect(b)))``; the two agree to rounding
    error.  ``f`` may contain the edge values 0 and ``m`` (which produce 0
    and +inf entries); the probe must be strictly inside ``]0, m[``.
    """
    return _bound_mult(f, b, path, maximum=True)


def mglb_mult(f: GreyImage, b: Probe, path: str = "ratio") -> RealMap:
    """Map of greatest lower bounds, the min dual of :func:`mlub_mult`.

    Morphological form: ``exp(hat(f) erode hat(b))``.
    """
    return _bound_mult(f, b, path, maximum=False)


def map_mult(f: GreyImage, b: Probe, path: str = "morpho") -> RealMap:
    """Map of LIP-multiplicative Asplund distances ``ln(mlub / mglb)``.

    Per cell, the multiplicative distance between the probe and the image
    restricted to the probe window.  The default morphological path
    evaluates ``[hat(f) dilate -hat(reflect(b))] - [hat(f) erode hat(b)]``;
    ``path="ratio"`` goes through the bound maps.  Strict regime: every
    image and probe value must lie in ``]0, m[``.
    """
    _require_mult(f, b, strict_image=True)
    if path == "ratio":
        lam = _ratio_bound_mult(f, b, maximum=True)
        mu = _ratio_bound_mult(f, b, maximum=False)
        # log(lam) - log(mu), not log(lam / mu): the quotient can overflow where
        # the difference is finite; an empty window gives log 0 - log inf = -inf
        with np.errstate(divide="ignore"):
            vals = np.log(lam) - np.log(mu)
        full = full_overlap_mask(f.shape, b)
    elif path == "morpho":
        hi, lo, full = _extrema(f, b, hat)
        vals = hi - lo
    else:
        raise ValueError(f"unknown path {path!r}")
    return RealMap(vals, full, f.m)


def mlub_add(f: GreyImage, b: Probe) -> FmMap:
    """Additive map of least upper bounds: per cell, max of ``f(x+h) (-) b(h)``.

    Accepts any function raster with values up to ``m`` (closure); the
    probe must have values strictly below ``m``.
    """
    _require_add(f, b)
    hi, _, full = _extrema(f, b, xi, lo=False)
    return FmMap(xi_inv(hi, f.m), full, f.m)


def mglb_add(f: GreyImage, b: Probe) -> FmMap:
    """Additive map of greatest lower bounds, the min dual of :func:`mlub_add`."""
    _require_add(f, b)
    _, lo, full = _extrema(f, b, xi, hi=False)
    return FmMap(xi_inv(lo, f.m), full, f.m)


def map_add(f: GreyImage, b: Probe) -> FmMap:
    """Map of LIP-additive Asplund distances ``mlub_add (-) mglb_add``, in ``[0, m[``.

    Strict additive regime: image and probe values in ``]-inf, m[``.  A
    value that rounding carries to ``m`` is returned one ulp below ``m``.
    """
    _require_add(f, b)
    require_regime(f.values, f.m, "FM")
    hi, lo, full = _extrema(f, b, xi)
    return FmMap(_lip_distance(hi, lo, f.m), full, f.m)


# ---------------------------------------------------------------------------
# the isomorphism link
# ---------------------------------------------------------------------------


def map_mult_via_add(f: GreyImage, b: Probe) -> RealMap:
    """Multiplicative distance map computed through the additive one.

    Evaluates ``(1/m) * xi( map_add(complement(xi(f)), complement(xi(b)) ))``,
    which must equal :func:`map_mult` to rounding error.  Same strict
    regime as :func:`map_mult`.
    """
    _require_mult(f, b, strict_image=True)
    m = f.m
    f2 = GreyImage(complement(xi(f.values, m), m), m)
    b2 = b.with_values(complement(xi(b.values, m), m))
    inner = map_add(f2, b2)
    vals = xi(inner.values, m) / m
    return RealMap(vals, inner.full_mask, m)


def _to_strict(values, m, what, mask=True):
    """``xi_inv(complement(values))``; a cell whose transform rounds to ``m`` raises, named as the caller gave it."""
    out = xi_inv(complement(values, m), m)
    bad = (out == m) & mask
    if bad.any():
        idx, where = _first_bad(bad)
        raise RegimeError(f"{what} value {values[idx]}{where} is too far below -m={m}: xi_inv(m - value) rounds to m")
    return out


def map_add_via_mult(f1: GreyImage, b1: Probe) -> FmMap:
    """Additive distance map computed through the multiplicative one.

    Evaluates ``xi_inv( m * map_mult(xi_inv(complement(f1)), xi_inv(complement(b1))) )``,
    which must equal :func:`map_add` to rounding error.  Requires finite
    inputs below ``m``; a ``-inf`` cell has no strict-regime transform and
    is rejected, and so is a cell so far below ``-m`` that its transform
    rounds to ``m``.
    """
    _require_add(f1, b1)
    require_regime(f1.values, f1.m, "FM")
    m = f1.m
    f2 = GreyImage(_to_strict(f1.values, m, "image"), m)
    b2 = b1.with_values(_to_strict(b1.values, m, "probe", b1.mask))
    inner = map_mult(f2, b2)
    vals = xi_inv(m * inner.values, m)
    return FmMap(vals, inner.full_mask, m)


def dist_metric_link(f: GreyImage, g: GreyImage) -> tuple[float, float]:
    """Both evaluations of the multiplicative distance related by the isomorphism.

    Returns ``(dist_mult(f, g), (1/m) * xi(dist_add(complement(xi(f)),
    complement(xi(g)))))`` and raises :class:`VerificationError` if they
    differ by more than ``1e-9`` (scale-relative).
    """
    direct = dist_mult(f, g)  # checks f and g
    m = f.m
    fc = GreyImage(complement(xi(f.values, m), m), m)
    gc = GreyImage(complement(xi(g.values, m), m), m)
    linked = float(xi(dist_add(fc, gc), m) / m)
    if abs(direct - linked) > LINK_TOL * (1.0 + abs(direct)):
        raise VerificationError(
            f"metric link identity violated: direct {direct!r} vs linked {linked!r}"
        )
    return direct, linked


# ---------------------------------------------------------------------------
# definitional scan oracles
# ---------------------------------------------------------------------------

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
