"""Forward-mode differentiation with second-order bivariate jets.

A :class:`Jet2` carries a value together with its first and second partial
derivatives with respect to two independent variables u and v.  Arithmetic
propagates the truncated Taylor algebra, so derivatives of any composite
expression are exact up to rounding -- no step-size error.  One-variable
profile functions are evaluated on jets seeded in u or v alone; the unused
variable's slots stay identically zero.

Mixed partials occupy a single ``duv`` slot; symmetry of second derivatives
is built into the representation rather than checked after the fact.

Slots are numpy values: float64 arrays that broadcast together, one
element per point (a float argument evaluates as a numpy value).  ``exp``,
``ln`` and every real power map ``math`` over the elements
(:data:`~minksurf.minkowski.OPS`), so each element has the bits of one
``math`` call.  A domain guard fails if any element fails and names the
first failing value.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import DomainError
from .minkowski import OPS, Vec4M, first_failure, quiet

Scalar = Union[int, float]


class Jet2:
    """Value and partial derivatives (du, dv, duu, duv, dvv) at a point.

    Never modified after construction, so one jet may be shared: the
    line jets of a parabolic patch feed both its immersion and its frame.
    Not frozen, because frozen construction dominated the one-point cost.
    """

    __slots__ = ("val", "du", "dv", "duu", "duv", "dvv")

    def __init__(self, val: float, du: float = 0.0, dv: float = 0.0,
                 duu: float = 0.0, duv: float = 0.0, dvv: float = 0.0):
        self.val = val
        self.du = du
        self.dv = dv
        self.duu = duu
        self.duv = duv
        self.dvv = dvv

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: Scalar) -> "Jet2":
        return Jet2(float(c))

    @staticmethod
    def seed_u(t: Scalar) -> "Jet2":
        # t * 1.0: an int becomes a float, an array stays an array.
        return Jet2(t * 1.0, du=1.0)

    @staticmethod
    def seed_v(t: Scalar) -> "Jet2":
        return Jet2(t * 1.0, dv=1.0)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(x: Union["Jet2", Scalar]) -> "Jet2":
        return x if isinstance(x, Jet2) else Jet2(float(x))

    def __add__(self, other: Union["Jet2", Scalar]) -> "Jet2":
        o = Jet2._coerce(other)
        return Jet2(self.val + o.val, self.du + o.du, self.dv + o.dv,
                    self.duu + o.duu, self.duv + o.duv, self.dvv + o.dvv)

    __radd__ = __add__

    def __sub__(self, other: Union["Jet2", Scalar]) -> "Jet2":
        o = Jet2._coerce(other)
        return Jet2(self.val - o.val, self.du - o.du, self.dv - o.dv,
                    self.duu - o.duu, self.duv - o.duv, self.dvv - o.dvv)

    def __rsub__(self, other: Union["Jet2", Scalar]) -> "Jet2":
        return Jet2._coerce(other).__sub__(self)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.val, -self.du, -self.dv, -self.duu, -self.duv, -self.dvv)

    def __mul__(self, other: Union["Jet2", Scalar]) -> "Jet2":
        o = Jet2._coerce(other)
        a, b = self, o
        return Jet2(
            a.val * b.val,
            a.du * b.val + a.val * b.du,
            a.dv * b.val + a.val * b.dv,
            a.duu * b.val + 2.0 * a.du * b.du + a.val * b.duu,
            a.duv * b.val + a.du * b.dv + a.dv * b.du + a.val * b.duv,
            a.dvv * b.val + 2.0 * a.dv * b.dv + a.val * b.dvv,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Jet2", Scalar]) -> "Jet2":
        return self * reciprocal(Jet2._coerce(other))

    def __rtruediv__(self, other: Union["Jet2", Scalar]) -> "Jet2":
        return Jet2._coerce(other) * reciprocal(self)

    def __pow__(self, p: Scalar) -> "Jet2":
        return powr(self, float(p))


def _chain(x: Jet2, f0: float, f1: float, f2: float) -> Jet2:
    """Compose an outer scalar function given f(x), f'(x), f''(x)."""
    return Jet2(
        f0,
        f1 * x.du,
        f1 * x.dv,
        f2 * x.du * x.du + f1 * x.duu,
        f2 * x.du * x.dv + f1 * x.duv,
        f2 * x.dv * x.dv + f1 * x.dvv,
    )


def _require(func: str, failed, x: Jet2, requirement: str) -> None:
    bad = first_failure(failed, x.val)
    if bad:
        raise DomainError(func, *bad, requirement)


def sin(x: Jet2) -> Jet2:
    s, c = OPS.sin(x.val), OPS.cos(x.val)
    return _chain(x, s, c, -s)


def cos(x: Jet2) -> Jet2:
    s, c = OPS.sin(x.val), OPS.cos(x.val)
    return _chain(x, c, -s, -c)


def sqrt(x: Jet2) -> Jet2:
    _require("sqrt", x.val <= 0.0, x, "argument > 0")
    r = OPS.sqrt(x.val)
    inv = 0.5 / r
    return _chain(x, r, inv, -0.5 * inv / x.val)


def ln(x: Jet2) -> Jet2:
    _require("ln", x.val <= 0.0, x, "argument > 0")
    inv = 1.0 / x.val
    return _chain(x, OPS.log(x.val), inv, -inv * inv)


def _in_float_range(func: str, x: Jet2, requirement: str, compute) -> tuple:
    """``compute()``, or DomainError at the first finite argument with an
    infinite result (an overflow gives inf)."""
    with quiet():
        results = compute()
    overflow = np.any(np.isinf(results), axis=0)
    _require(func, overflow & (abs(x.val) < math.inf), x, requirement)
    return results


def exp(x: Jet2) -> Jet2:
    e, = _in_float_range("exp", x, "exp(x) within float range",
                         lambda: (OPS.exp(x.val),))
    return _chain(x, e, e, e)


def reciprocal(x: Jet2) -> Jet2:
    _require("reciprocal", x.val == 0.0, x, "argument != 0")
    inv = 1.0 / x.val
    return _chain(x, inv, -inv * inv, 2.0 * inv * inv * inv)


def powr(x: Jet2, p: float) -> Jet2:
    """x**p for a real exponent; requires x > 0."""
    _require("pow-by-real", x.val <= 0.0, x, "argument > 0")
    f0, f1, f2 = _in_float_range(
        "pow-by-real", x,
        f"x**{p!r} and its derivatives within float range",
        lambda: (OPS.pow(x.val, p), p * OPS.pow(x.val, p - 1.0),
                 p * (p - 1.0) * OPS.pow(x.val, p - 2.0)))
    return _chain(x, f0, f1, f2)


def powi(x: Jet2, n: int) -> Jet2:
    """x**n for an integer exponent; any base (nonzero when n < 0)."""
    if n < 0:
        return reciprocal(powi(x, -n))
    result = Jet2.constant(1.0)
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def log_abs(x: Jet2) -> Jet2:
    """ln |x| for x != 0; d/dx ln|x| = 1/x on either side of zero."""
    _require("log-abs", x.val == 0.0, x, "argument != 0")
    inv = 1.0 / x.val
    return _chain(x, OPS.log(abs(x.val)), inv, -inv * inv)


class Jet2Vec4:
    """Four jet components in the orthonormal basis of R^4_1.

    Never modified after construction (see :class:`Jet2`).
    """

    __slots__ = ("x1", "x2", "x3", "x4")

    def __init__(self, x1: Jet2, x2: Jet2, x3: Jet2, x4: Jet2):
        self.x1 = x1
        self.x2 = x2
        self.x3 = x3
        self.x4 = x4

    def value(self) -> Vec4M:
        return Vec4M(self.x1.val, self.x2.val, self.x3.val, self.x4.val)

    def d_u(self) -> Vec4M:
        return Vec4M(self.x1.du, self.x2.du, self.x3.du, self.x4.du)

    def d_v(self) -> Vec4M:
        return Vec4M(self.x1.dv, self.x2.dv, self.x3.dv, self.x4.dv)

    def d_uu(self) -> Vec4M:
        return Vec4M(self.x1.duu, self.x2.duu, self.x3.duu, self.x4.duu)

    def d_uv(self) -> Vec4M:
        return Vec4M(self.x1.duv, self.x2.duv, self.x3.duv, self.x4.duv)

    def d_vv(self) -> Vec4M:
        return Vec4M(self.x1.dvv, self.x2.dvv, self.x3.dvv, self.x4.dvv)


def vec_from_null_jets(z1: Jet2, z2: Jet2, eta1: Jet2, eta2: Jet2) -> Jet2Vec4:
    """Assemble a Jet2Vec4 from pseudo-orthonormal components.

    The basis change is linear, so it commutes with differentiation and
    is applied slot-wise.
    """
    s = math.sqrt(0.5)
    return Jet2Vec4(z1, z2, (eta1 - eta2) * s, (eta1 + eta2) * s)
