"""Linear algebra of Minkowski 4-space with signature (+, +, +, -).

Vectors are stored in the orthonormal basis {e1, e2, e3, e4} with
``e1^2 = e2^2 = e3^2 = 1`` and ``e4^2 = -1``.  A second, pseudo-orthonormal
basis {e1, e2, xi1, xi2} with two lightlike legs

    xi1 = (e3 + e4)/sqrt(2),    xi2 = (-e3 + e4)/sqrt(2),
    <xi1, xi1> = <xi2, xi2> = 0,    <xi1, xi2> = -1,

is used by the rotational constructions with lightlike axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import Error

_SQRT_HALF = math.sqrt(0.5)


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


@dataclass(frozen=True, slots=True)
class Vec4M:
    """A vector of R^4 carrying the indefinite inner product."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "x4"):
            if not math.isfinite(getattr(self, name)):
                raise Error(f"non-finite coordinate {name}={getattr(self, name)!r}")

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
        return math.hypot(self.x1, self.x2, self.x3, self.x4)


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
    positive rescaling and <v, v> cannot underflow.
    """
    if tol <= 0.0:
        raise Error(f"tolerance must be positive, got {tol!r}")
    big = max(abs(x) for x in v.coords())
    if big == 0.0:
        return CausalCharacter.ZERO
    shift = -math.frexp(big)[1]
    v = Vec4M(*(math.ldexp(x, shift) for x in v.coords()))
    n = v.euclidean_norm()
    q = inner(v, v)
    if abs(q) <= tol * n * n:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.SPACELIKE if q > 0.0 else CausalCharacter.TIMELIKE


@dataclass(frozen=True, slots=True)
class NullFrameCoords:
    """Coordinates with respect to the pseudo-orthonormal basis {e1, e2, xi1, xi2}."""

    z1: float
    z2: float
    eta1: float
    eta2: float


def from_null_frame(c: NullFrameCoords) -> Vec4M:
    """z1*e1 + z2*e2 + eta1*xi1 + eta2*xi2 in orthonormal coordinates."""
    return Vec4M(c.z1, c.z2,
                 (c.eta1 - c.eta2) * _SQRT_HALF,
                 (c.eta1 + c.eta2) * _SQRT_HALF)


def to_null_frame(v: Vec4M) -> NullFrameCoords:
    """Inverse of :func:`from_null_frame`."""
    return NullFrameCoords(v.x1, v.x2,
                           (v.x3 + v.x4) * _SQRT_HALF,
                           (v.x4 - v.x3) * _SQRT_HALF)
