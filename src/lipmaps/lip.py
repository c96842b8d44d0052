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
relative precision for grey values near 0.  All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, SingularityError

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
]


def _check_m(m):
    m = float(m)
    if not m > 0 or not np.isfinite(m):
        raise DomainError(f"grey-scale bound m must be positive and finite, got {m}")
    return m


def _asvalues(x, name):
    a = np.asarray(x, dtype=np.float64)
    if np.isnan(a).any():
        raise DomainError(f"{name} contains NaN")
    return a


def _check_shapes(fa, ga):
    if fa.ndim and ga.ndim and fa.shape != ga.shape:
        raise DimensionError(f"shape mismatch: {fa.shape} vs {ga.shape}")


def _ret(out, *inputs):
    # scalar in -> scalar out
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


def lip_add(f, g, m=DEFAULT_M):
    """LIP addition ``f (+) g = f + g - f*g/m``.

    Models the superimposition of two semi-transparent layers.  Commutative
    and associative; 0 is neutral, ``m`` is absorbing.  Both operands must
    be ``<= m`` (the closure value ``m`` is allowed).
    """
    m = _check_m(m)
    fa, ga = _asvalues(f, "f"), _asvalues(g, "g")
    _check_shapes(fa, ga)
    if np.any(fa > m) or np.any(ga > m):
        raise DomainError(f"lip_add operands must be <= m={m}")
    return _ret(fa + ga - fa * ga / m, f, g)


def lip_mult(lam, f, m=DEFAULT_M):
    """LIP multiplication by a real scalar: ``lam (x) f = m - m*(1 - f/m)**lam``.

    Defined for ``f`` in ``[0, m]`` and any real ``lam`` (metric code
    restricts itself to ``lam > 0``).  ``1 (x) f = f`` and
    ``lam (x) (mu (x) f) = (lam*mu) (x) f``.
    """
    m = _check_m(m)
    fa = _asvalues(f, "f")
    if np.any(fa < 0) or np.any(fa > m):
        raise DomainError(f"lip_mult requires f in [0, m={m}]")
    lam = float(lam)
    with np.errstate(divide="ignore"):
        out = m - m * (1.0 - fa / m) ** lam
    return _ret(out, f)


def lip_neg(f, m=DEFAULT_M):
    """LIP negation ``(-) f = -f / (1 - f/m)``, the inverse for ``lip_add``.

    Singular at ``f = m``.  The result may be negative (it is a "function",
    not an image); it satisfies ``f (+) (-)f = 0`` and is an involution.
    """
    m = _check_m(m)
    fa = _asvalues(f, "f")
    if np.any(fa == m):
        raise SingularityError(f"lip_neg undefined at f = m = {m}")
    if np.any(fa > m):
        raise DomainError(f"lip_neg requires f < m = {m}")
    return _ret((-fa) / (1.0 - fa / m), f)


def lip_sub(f, g, m=DEFAULT_M):
    """LIP subtraction ``f (-) g = (f - g) / (1 - g/m)``.

    Singular at ``g = m``.  ``f (-) g`` is an image iff ``f >= g``;
    negative values are propagated, never clamped.
    """
    m = _check_m(m)
    fa, ga = _asvalues(f, "f"), _asvalues(g, "g")
    _check_shapes(fa, ga)
    if np.any(ga == m):
        raise SingularityError(f"lip_sub undefined at g = m = {m}")
    if np.any(ga > m):
        raise DomainError(f"lip_sub requires g < m = {m}")
    return _ret((fa - ga) / (1.0 - ga / m), f, g)


def transmittance(f, m=DEFAULT_M):
    """Transmittance ``T(f) = 1 - f/m`` of the layer generating ``f``.

    Satisfies the product law ``transmittance(lip_add(f, g)) ==
    transmittance(f) * transmittance(g)``.
    """
    m = _check_m(m)
    fa = _asvalues(f, "f")
    if np.any(fa < 0) or np.any(fa >= m):
        raise DomainError(f"transmittance requires f in [0, m={m}[")
    return _ret(1.0 - fa / m, f)


def tilde(f, m=DEFAULT_M):
    """Log-transmittance ``ln(1 - f/m)`` for ``f`` in ``[0, m]``.

    Non-positive; ``tilde(0) = 0`` and ``tilde(m) = -inf``.
    """
    m = _check_m(m)
    fa = _asvalues(f, "f")
    if np.any(fa < 0) or np.any(fa > m):
        raise DomainError(f"tilde requires f in [0, m={m}]")
    with np.errstate(divide="ignore"):
        return _ret(np.log1p(-fa / m), f)


def hat(f, m=DEFAULT_M):
    """Double-log transform ``ln(-ln(1 - f/m))`` for ``f`` in ``[0, m]``.

    Finite exactly on ``]0, m[``; ``hat(0) = -inf`` and ``hat(m) = +inf``.
    Turns LIP multiplication into an ordinary shift, which is what lets the
    bound maps be written as a grey-level dilation and erosion.
    """
    m = _check_m(m)
    fa = _asvalues(f, "f")
    if np.any(fa < 0) or np.any(fa > m):
        raise DomainError(f"hat requires f in [0, m={m}]")
    with np.errstate(divide="ignore"):
        return _ret(np.log(-np.log1p(-fa / m)), f)


def hat_inv(y, m=DEFAULT_M):
    """Inverse of :func:`hat`: ``m * (1 - exp(-exp(y)))``, total on extended reals."""
    m = _check_m(m)
    ya = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):
        return _ret(-m * np.expm1(-np.exp(ya)), y)


def xi(f, m=DEFAULT_M):
    """Isomorphism ``xi(f) = -m * ln(1 - f/m)`` from ``[-inf, m]`` onto ``[-inf, +inf]``.

    Order preserving, and turns the LIP laws into ordinary arithmetic:
    ``xi(f (+) g) = xi(f) + xi(g)`` and ``xi(lam (x) f) = lam * xi(f)``.
    Equals ``-m * tilde(f)`` on ``[0, m]`` but also accepts negative values.
    """
    m = _check_m(m)
    fa = _asvalues(f, "f")
    if np.any(fa > m):
        raise DomainError(f"xi requires f <= m = {m}")
    with np.errstate(divide="ignore"):
        return _ret(-m * np.log1p(-fa / m), f)


def xi_inv(f, m=DEFAULT_M):
    """Inverse isomorphism ``xi_inv(f) = m * (1 - exp(-f/m))``; ``xi_inv(xi(f)) = f``."""
    m = _check_m(m)
    fa = _asvalues(f, "f")
    with np.errstate(over="ignore"):
        return _ret(-m * np.expm1(-fa / m), f)


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
    if np.any(ba < 0) or np.any(ba > m) or np.any(fa < 0) or np.any(fa > m):
        raise DomainError(f"identity requires f in [0, m], b in ]0, m], m={m}")
    lhs = lip_sub(complement(fa, m), complement(ba, m), m)
    rhs = m * (1.0 - fa / ba)
    err = float(np.max(np.abs(np.asarray(lhs) - rhs)))
    if err > tol * m:
        raise VerificationError(
            f"complement-difference identity violated: max abs error {err:g} > {tol * m:g}"
        )
    return _ret(lhs, f, b)
