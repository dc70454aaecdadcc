"""Linear algebra of Minkowski 4-space with signature (+, +, +, -).

Vectors are stored in the orthonormal basis {e1, e2, e3, e4} with
``e1^2 = e2^2 = e3^2 = 1`` and ``e4^2 = -1``.  A second, pseudo-orthonormal
basis {e1, e2, xi1, xi2} with two lightlike legs

    xi1 = (e3 + e4)/sqrt(2),    xi2 = (-e3 + e4)/sqrt(2),
    <xi1, xi1> = <xi2, xi2> = 0,    <xi1, xi2> = -1,

is used by the rotational constructions with lightlike axis.

Coordinates, and every scalar computed from them, are numpy values:
float64 arrays that broadcast together, one element per point.  A float
argument evaluates as a numpy value too.  :data:`OPS` is the table of
numpy functions the engine uses, except that ``exp``, ``log`` and every
real power map ``math`` over the elements, so each element has the bits
of one ``math`` call.

This module owns the one evaluation rule of the package: an overflow
or a division by zero gives inf or NaN without a numpy warning
(:func:`quiet`), which fails the check that meets it, as every bound is
tested by :func:`out_of_bound`; a guard names the first failing element
in row-major order (:func:`first_failure`); and an engine call that
raises runs again one element at a time, so its error is that of its
first failing point (:func:`first_error`).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial, reduce
from types import SimpleNamespace

import numpy as np

from .errors import Error

_SQRT_HALF = math.sqrt(0.5)


def _inf_on_overflow(fn, x):
    try:
        return fn(x)
    except OverflowError:
        return math.inf


def _like_math(fn, a):
    """``fn`` of each element of ``a``, as one float call rounds it; inf
    where that call overflows (an OverflowError for ``math``)."""
    flat = np.ravel(a).tolist()
    try:
        out = list(map(fn, flat))
    except OverflowError:
        out = [_inf_on_overflow(fn, x) for x in flat]
    return np.array(out, dtype=float).reshape(np.shape(a))


def _where(mask, a, b):
    """Element-wise pick between arrays or whole vectors; a 0-d result
    is its element, so that a one-point pick of objects is the object."""
    if isinstance(a, Vec4M):
        return Vec4M(*(np.where(mask, x, y)
                       for x, y in zip(a.coords(), b.coords())))
    return np.where(mask, a, b)[()]


# numpy's exp, log and ** round differently from math's, so those map the
# float functions over the elements; its sin, cos and sqrt agree bit for
# bit with math's.  ``pow`` is ``**`` with a real exponent.
OPS = SimpleNamespace(
    sin=np.sin, cos=np.cos, sqrt=np.sqrt,
    exp=partial(_like_math, math.exp), log=partial(_like_math, math.log),
    pow=lambda a, p: _like_math(float(p).__rpow__, a),
    copysign=np.copysign, frexp=np.frexp, ldexp=np.ldexp,
    hypot=lambda *xs: reduce(np.hypot, xs),
    max=lambda *xs: reduce(np.maximum, xs),
    where=_where)


def out_of_bound(x, lo=-math.inf, hi=np.finfo(float).max):
    """True where x (a float or an array) is not a number with
    lo < x <= hi: NaN and -inf fail every bound, and +inf fails unless
    ``hi`` is inf (by default, the largest float: x must be finite)."""
    return np.logical_not((lo < x) & (x <= hi))


def first_failure(failed, *values):
    """None when ``failed`` holds nowhere; else ``values`` at the first
    element where it holds, as Python scalars.

    ``failed`` and the values are broadcast together and searched in
    row-major order, so a (k, 1) u column and a (1, n) v row name the
    first failing point of the k x n block.
    """
    shape = np.broadcast_shapes(np.shape(failed), *map(np.shape, values))
    hits = np.flatnonzero(np.broadcast_to(failed, shape))
    if not hits.size:
        return None
    i = hits[0]
    return tuple(np.broadcast_to(x, shape).reshape(-1)[i].item()
                 for x in values)


def quiet() -> np.errstate:
    """An errstate under which overflow and division by zero give inf or
    NaN, with no numpy warning; fresh per use, as numpy 2.4 enters no
    errstate twice."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def first_error(evaluate, *axes, **batch):
    """``evaluate(*axes, **batch)`` under :func:`quiet`; if that raises an
    :class:`Error`, ``evaluate(*point)`` runs again on each element of the
    broadcast ``axes`` in row-major order, without ``batch``, so that the
    error raised is the one of the first failing element."""
    with quiet():
        try:
            return evaluate(*axes, **batch)
        except Error:
            flat = (np.ravel(a)[:, None] for a in np.broadcast_arrays(*axes))
            for point in zip(*flat):
                evaluate(*point)
            raise


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


class Vec4M:
    """A vector of R^4 carrying the indefinite inner product.

    Never modified after construction, so the basis constants below are
    shared.  Not frozen, because frozen construction dominated the
    one-point cost.  Equal to a vector of equal coordinates; unhashable.
    """

    __slots__ = ("x1", "x2", "x3", "x4")

    def __init__(self, x1: float, x2: float, x3: float, x4: float):
        self.x1 = x1
        self.x2 = x2
        self.x3 = x3
        self.x4 = x4
        # The first point with a non-finite coordinate, then its first
        # such coordinate: the order a loop over points would find.
        coords = self.coords()
        finite = reduce(np.logical_and, map(np.isfinite, coords))
        for name, x in zip(("x1", "x2", "x3", "x4"),
                           first_failure(~finite, *coords) or ()):
            if not math.isfinite(x):
                raise Error(f"non-finite coordinate {name}={x!r}")

    def __eq__(self, other):
        if other.__class__ is not Vec4M:
            return NotImplemented
        return self.coords() == other.coords()

    def __repr__(self) -> str:
        return "Vec4M(x1={!r}, x2={!r}, x3={!r}, x4={!r})".format(
            *self.coords())

    def __add__(self, other: "Vec4M") -> "Vec4M":
        return Vec4M(self.x1 + other.x1, self.x2 + other.x2,
                     self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "Vec4M") -> "Vec4M":
        return Vec4M(self.x1 - other.x1, self.x2 - other.x2,
                     self.x3 - other.x3, self.x4 - other.x4)

    def __neg__(self) -> "Vec4M":
        return Vec4M(-self.x1, -self.x2, -self.x3, -self.x4)

    def scale(self, s: float) -> "Vec4M":
        return Vec4M(s * self.x1, s * self.x2, s * self.x3, s * self.x4)

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    def euclidean_norm(self) -> float:
        return OPS.hypot(*self.coords())


E1 = Vec4M(1.0, 0.0, 0.0, 0.0)
E2 = Vec4M(0.0, 1.0, 0.0, 0.0)
E3 = Vec4M(0.0, 0.0, 1.0, 0.0)
E4 = Vec4M(0.0, 0.0, 0.0, 1.0)
XI1 = Vec4M(0.0, 0.0, _SQRT_HALF, _SQRT_HALF)
XI2 = Vec4M(0.0, 0.0, -_SQRT_HALF, _SQRT_HALF)

ZERO = Vec4M(0.0, 0.0, 0.0, 0.0)


def inner(a: Vec4M, b: Vec4M) -> float:
    """Indefinite inner product x1*y1 + x2*y2 + x3*y3 - x4*y4.

    Evaluated left to right, exactly as written.
    """
    return a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3 - a.x4 * b.x4


def causal_character(v: Vec4M, tol: float = 1e-12) -> CausalCharacter:
    """Classify a vector as spacelike / timelike / lightlike / zero.

    ZERO means exactly the zero vector.  Otherwise v is first rescaled by
    a power of two to unit order, and the lightlike test is relative to
    the squared Euclidean norm, so the classification is invariant under
    positive rescaling and <v, v> cannot underflow.  For array
    coordinates the result is an object array of characters.
    """
    if tol <= 0.0:
        raise Error(f"tolerance must be positive, got {tol!r}")
    big = OPS.max(*(abs(x) for x in v.coords()))
    shift = -OPS.frexp(big)[1]
    w = Vec4M(*(OPS.ldexp(x, shift) for x in v.coords()))
    n = w.euclidean_norm()
    q = inner(w, w)
    return OPS.where(
        big == 0.0, CausalCharacter.ZERO,
        OPS.where(abs(q) <= tol * n * n, CausalCharacter.LIGHTLIKE,
                  OPS.where(q > 0.0, CausalCharacter.SPACELIKE,
                            CausalCharacter.TIMELIKE)))


class NullFrameCoords:
    """Coordinates with respect to the pseudo-orthonormal basis {e1, e2, xi1, xi2}.

    Never modified after construction (see :class:`Vec4M`).
    """

    __slots__ = ("z1", "z2", "eta1", "eta2")

    def __init__(self, z1: float, z2: float, eta1: float, eta2: float):
        self.z1 = z1
        self.z2 = z2
        self.eta1 = eta1
        self.eta2 = eta2


def from_null_frame(c: NullFrameCoords) -> Vec4M:
    """z1*e1 + z2*e2 + eta1*xi1 + eta2*xi2 in orthonormal coordinates."""
    return Vec4M(c.z1, c.z2,
                 (c.eta1 - c.eta2) * _SQRT_HALF,
                 (c.eta1 + c.eta2) * _SQRT_HALF)


def to_null_frame(v: Vec4M) -> NullFrameCoords:
    """Inverse of :func:`from_null_frame`; public API on purpose, although
    the package itself does not call it."""
    return NullFrameCoords(v.x1, v.x2,
                           (v.x3 + v.x4) * _SQRT_HALF,
                           (v.x4 - v.x3) * _SQRT_HALF)
