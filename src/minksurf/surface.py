"""Pointwise geometry of spacelike immersions in Minkowski 4-space.

Given an immersion z(u, v) evaluable in jet arithmetic, this module
computes, per point: the induced metric E, F, G; an orthonormal normal
frame {n1, n2} with <n1,n1> = 1 and <n2,n2> = -1; the normal coefficients
c_ij^k of the second partial derivatives; the form functions L, M, N
and the derived invariants k (asymptotic-tangent discriminant) and
kappa_normal (curvature of the normal connection); the Gauss curvature K;
and the mean curvature vector H with its frame components.

Conventions.  The normal frame satisfies <n1,n1> = 1, <n2,n2> = -1,
<n1,n2> = 0, the quadruple {z_u, z_v, n1, n2} is positively oriented, and
n2 is future-pointing (<n2, e4> < 0).  These two sign choices make the
frame-dependent quantities reproducible; k, K, H and |kappa_normal| do not
depend on them.  :func:`point_data` uses the patch's own frame
(:attr:`SurfacePatch.frame`, the family-adapted frame of a parabolic
patch) and else the canonical one, which projects e4 (always timelike in
the normal space of a spacelike tangent plane) for n2 and takes n1 from
the Minkowski cross product of z_u, z_v and n2.

Everything here takes (u, v) as float64 arrays that broadcast together,
a (k, 1) column of u and a (1, n) row of v giving a k x n block, and
computes every point at once on numpy values (see
:mod:`minksurf.minkowski`); a float argument evaluates as a numpy value.
Each point's numbers do not depend on the block it is evaluated in.  A
check fails if it fails at any point, naming the first point in
row-major order where it fails.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import DegenerateFrame, DomainError, NotSpacelike, ParamError
from .jets import Jet2, Jet2Vec4
from .minkowski import (E4, OPS, ZERO, CausalCharacter, Vec4M,
                        causal_character, first_failure, inner)

if TYPE_CHECKING:
    from .meridian import LineJets, ProfileCurvePhi, ProfilePair


def _read_only(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of a value class whose
    constructor checks its arguments, so that the check keeps holding."""
    raise AttributeError(f"cannot assign to field {name!r}")


class Interval:
    """[lo, hi] with lo < hi; read-only."""

    __slots__ = ("lo", "hi")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, lo: float, hi: float):
        if not (lo < hi):
            raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        """Whether one float x lies in the interval."""
        return not self.outside(x)

    def outside(self, x: float) -> bool:
        """True where x (a float or an array) is not in the interval;
        NaN is never in it."""
        return (x < self.lo) | (x > self.hi) | (x != x)

    def linspace(self, n: int, inset: float = 0.0) -> list[float]:
        """n evenly spaced samples, optionally inset from both ends.

        ``inset`` is a fraction of the width removed at each end.  The
        endpoint values are exact so samples never leave the interval.
        """
        if n < 2:
            raise ValueError("need at least 2 samples")
        a = self.lo + inset * self.width
        b = self.hi - inset * self.width
        step = (b - a) / (n - 1)
        return [a + i * step for i in range(n - 1)] + [b]


class Rect:
    __slots__ = ("u", "v")

    def __init__(self, u: Interval, v: Interval):
        self.u = u
        self.v = v


class GridSpec:
    """Sample counts and ranges for a rectangular sample grid; read-only."""

    __slots__ = ("u_samples", "v_samples", "u_range", "v_range")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, u_samples: int, v_samples: int, u_range: Interval,
                 v_range: Interval):
        if u_samples < 2 or v_samples < 2:
            raise ParamError("grids need at least 2 samples per axis")
        object.__setattr__(self, "u_samples", u_samples)
        object.__setattr__(self, "v_samples", v_samples)
        object.__setattr__(self, "u_range", u_range)
        object.__setattr__(self, "v_range", v_range)

    def lines(self) -> tuple[np.ndarray, np.ndarray]:
        """The u samples as a (nu, 1) column and the v samples as a
        (1, nv) row.  Broadcast together they are the grid's points, in
        row-major order (u outer, v inner)."""
        return (np.array(self.u_range.linspace(self.u_samples))[:, None],
                np.array(self.v_range.linspace(self.v_samples))[None, :])

    @staticmethod
    def for_patch(patch: "SurfacePatch", nu: int, nv: int) -> "GridSpec":
        """An nu x nv grid on the patch's domain inset by 2 % per side."""
        return GridSpec(nu, nv,
                        Interval(*patch.domain.u.linspace(2, inset=0.02)),
                        Interval(*patch.domain.v.linspace(2, inset=0.02)))


class SurfacePatch:
    """An immersion over a rectangle, evaluable in jet arithmetic.

    ``immersion`` receives jets seeded in u and v and returns the four
    coordinate jets.  A parabolic meridian patch
    (:func:`~minksurf.meridian.build_parabolic`) also has ``lines``, the
    checked profile jets of the lines through (u, v)
    (:func:`~minksurf.meridian.line_jets`), from which the engine builds
    its immersion jets; ``frame``, its adapted normal frame as a function
    of those jets, which :func:`point_data` uses instead of the canonical
    one; and ``profiles``, the (ProfilePair, ProfileCurvePhi) it was built
    from, which the certificates of :mod:`minksurf.verify` that compare
    with the closed forms read.  A generic patch has none of the three.
    """

    __slots__ = ("immersion", "domain", "frame", "profiles", "lines")

    def __init__(
            self, immersion: Callable[[Jet2, Jet2], Jet2Vec4], domain: Rect,
            frame: Optional[Callable[[LineJets], tuple[Vec4M, Vec4M]]] = None,
            profiles: Optional[tuple[ProfilePair, ProfileCurvePhi]] = None,
            lines: Optional[Callable[[float, float], LineJets]] = None):
        self.immersion = immersion
        self.domain = domain
        self.frame = frame
        self.profiles = profiles
        self.lines = lines


def _check_domain(patch: SurfacePatch, u, v) -> None:
    dom = patch.domain
    bad = first_failure(dom.u.outside(u) | dom.v.outside(v), u, v)
    if bad:
        name, x, iv = (("u", bad[0], dom.u) if dom.u.outside(bad[0])
                       else ("v", bad[1], dom.v))
        raise DomainError("surface-eval", x, f"{name} in [{iv.lo}, {iv.hi}]")


def checked_lines(patch: SurfacePatch, u, v) -> Optional[LineJets]:
    """The patch's line jets at (u, v), evaluated after (u, v) is checked
    to lie in its domain; None for a generic patch, after the check."""
    _check_domain(patch, u, v)
    return None if patch.lines is None else patch.lines(u, v)


def jet_eval_surface(patch: SurfacePatch, u: float, v: float,
                     lines: Optional[LineJets] = None) -> Jet2Vec4:
    """Evaluate the immersion with (u, v) seeded as jet variables, from
    the patch's line jets if it has them.  ``lines`` passes the
    :func:`checked_lines` of a parabolic patch that the caller has
    already evaluated at (u, v); then (u, v) is not checked again."""
    if lines is None:
        lines = checked_lines(patch, u, v)
        if lines is None:
            return patch.immersion(Jet2.seed_u(u), Jet2.seed_v(v))
    return lines.immersion()


def _project_normal(w: Vec4M, z_u: Vec4M, z_v: Vec4M,
                    e: float, f: float, g: float, det2: float) -> Vec4M:
    """w minus its projection onto span{z_u, z_v}, of Gram determinant det2."""
    wu = inner(w, z_u)
    wv = inner(w, z_v)
    alpha = (g * wu - f * wv) / det2
    beta = (e * wv - f * wu) / det2
    return w - z_u.scale(alpha) - z_v.scale(beta)


def _cross(a: Vec4M, b: Vec4M, c: Vec4M) -> Vec4M:
    """x with <x, w> = det[a | b | c | w] for every w, from 3x3 minors."""
    p12 = a.x1 * b.x2 - a.x2 * b.x1
    p13 = a.x1 * b.x3 - a.x3 * b.x1
    p14 = a.x1 * b.x4 - a.x4 * b.x1
    p23 = a.x2 * b.x3 - a.x3 * b.x2
    p24 = a.x2 * b.x4 - a.x4 * b.x2
    p34 = a.x3 * b.x4 - a.x4 * b.x3
    return Vec4M(c.x3 * p24 - c.x2 * p34 - c.x4 * p23,
                 c.x1 * p34 - c.x3 * p14 + c.x4 * p13,
                 c.x2 * p14 - c.x1 * p24 - c.x4 * p12,
                 c.x2 * p13 - c.x1 * p23 - c.x3 * p12)


def _metric(z_u: Vec4M, z_v: Vec4M) -> tuple:
    """E, F, G and EG - F^2; an overflow gives inf or NaN without a numpy
    warning, and the spacelike guard names it."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = inner(z_u, z_u)
        f = inner(z_u, z_v)
        g = inner(z_v, z_v)
        return e, f, g, e * g - f * f


def _not_spacelike(e, det2):
    """Where E or EG - F^2 is not a finite number > 0 (NaN and inf fail)."""
    return ((e <= 0.0) | (det2 <= 0.0) | (e != e) | (det2 != det2)
            | (e == math.inf) | (det2 == math.inf))


def normal_frame(z_u: Vec4M, z_v: Vec4M) -> tuple[Vec4M, Vec4M]:
    """Orthonormal normal frame of a spacelike tangent plane.

    n2 is the normalized normal projection of e4; for a spacelike tangent
    plane that projection is always timelike and automatically
    future-pointing.  n1 = -x / sqrt(<x,x>) for the cross product x of
    z_u, z_v and n2: <x,x> = EG - F^2 > 0 in exact arithmetic, and the
    sign makes det[z_u | z_v | n1 | n2] = sqrt(<x,x>) > 0.
    """
    e, f, g, det2 = _metric(z_u, z_v)
    bad = first_failure(_not_spacelike(e, det2), e, det2)
    if bad:
        raise NotSpacelike(None, None, *bad)

    nu = _project_normal(E4, z_u, z_v, e, f, g, det2)
    q = inner(nu, nu)
    bad = first_failure(q >= -NORMAL_TOL, q)
    if bad:
        raise DegenerateFrame(
            "normal space contains no timelike direction (<nu,nu>={!r})"
            .format(*bad), *bad)
    n2 = nu.scale(1.0 / OPS.sqrt(-q))

    x = _cross(z_u, z_v, n2)
    # inf - inf is NaN, which fails, without a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = inner(x, x)
    bad = first_failure((sq <= 0.0) | (sq != sq), sq)
    if bad:
        raise DegenerateFrame("no spacelike normal direction found", *bad)
    return x.scale(-1.0 / OPS.sqrt(sq)), n2


class PointData:
    """All pointwise geometry of an immersion at each point of (u, v)
    arrays that broadcast together.

    Never modified after construction (see
    :class:`~minksurf.minkowski.Vec4M`).
    """

    __slots__ = ("u", "v", "z", "z_u", "z_v", "z_uu", "z_uv", "z_vv",
                 "E", "F", "G", "W", "n1", "n2",
                 "c11_1", "c12_1", "c22_1", "c11_2", "c12_2", "c22_2",
                 "L", "M", "N", "k", "kappa_normal", "K", "H", "H1", "H2")

    def __init__(self, u: float, v: float, z: Vec4M, z_u: Vec4M, z_v: Vec4M,
                 z_uu: Vec4M, z_uv: Vec4M, z_vv: Vec4M, E: float, F: float,
                 G: float, W: float, n1: Vec4M, n2: Vec4M, c11_1: float,
                 c12_1: float, c22_1: float, c11_2: float, c12_2: float,
                 c22_2: float, L: float, M: float, N: float, k: float,
                 kappa_normal: float, K: float, H: Vec4M, H1: float,
                 H2: float):
        self.u, self.v = u, v
        self.z, self.z_u, self.z_v = z, z_u, z_v
        self.z_uu, self.z_uv, self.z_vv = z_uu, z_uv, z_vv
        self.E, self.F, self.G, self.W = E, F, G, W
        self.n1, self.n2 = n1, n2
        self.c11_1, self.c12_1, self.c22_1 = c11_1, c12_1, c22_1
        self.c11_2, self.c12_2, self.c22_2 = c11_2, c12_2, c22_2
        self.L, self.M, self.N = L, M, N
        self.k, self.kappa_normal, self.K = k, kappa_normal, K
        self.H, self.H1, self.H2 = H, H1, H2

    def h_dot_h(self) -> float:
        """<H, H> from the frame components; exact for H in span{n1, n2}."""
        return self.H1 * self.H1 - self.H2 * self.H2


# Largest orthonormality or normality residual accepted in a supplied frame.
FRAME_TOL = 1e-8
# Smallest -<nu, nu> accepted for the projected e4 of the canonical frame.
NORMAL_TOL = 1e-12
# H is set to exactly ZERO when |H| <= H_FLOOR * |trace| (Euclidean norms):
# below that it is rounding noise of the normal projection, and the ratio
# does not change when the immersion is rescaled.
H_FLOOR = 1e-12


def point_data(patch: SurfacePatch, u: float, v: float,
               lines: Optional[LineJets] = None) -> PointData:
    """Compute all pointwise geometry at an interior point, in the patch's
    own frame if it has one (see :func:`point_data_from_derivatives` for
    how it is checked), else in the canonical frame.  ``lines`` are as
    for :func:`jet_eval_surface`; (u, v) is checked once either way."""
    if lines is None and patch.lines is not None:
        lines = checked_lines(patch, u, v)
    jets = jet_eval_surface(patch, u, v, lines)
    return point_data_from_derivatives(
        u, v, jets.value(), jets.d_u(), jets.d_v(),
        jets.d_uu(), jets.d_uv(), jets.d_vv(),
        frame=None if patch.frame is None else patch.frame(lines))


def point_data_from_derivatives(u: float, v: float, z: Vec4M,
                                z_u: Vec4M, z_v: Vec4M, z_uu: Vec4M,
                                z_uv: Vec4M, z_vv: Vec4M,
                                frame: Optional[tuple[Vec4M, Vec4M]] = None
                                ) -> PointData:
    """Pointwise geometry from already-computed derivative vectors.

    Lets a caller feed derivatives obtained by any means (for instance a
    finite-difference scheme) through the exact same formula path as
    :func:`point_data`.  ``frame`` is a supplied (n1, n2) at the points;
    it is checked for orthonormality and normality to FRAME_TOL but not
    for orientation, so sign-flipped frames can be probed deliberately.
    Without one the canonical :func:`normal_frame` is used.
    """
    e, f, g, det2 = _metric(z_u, z_v)
    bad = first_failure(_not_spacelike(e, det2), u, v, e, det2)
    if bad:
        raise NotSpacelike(*bad)
    w = OPS.sqrt(det2)

    if frame is None:
        n1, n2 = normal_frame(z_u, z_v)
    else:
        n1, n2 = frame
        su = OPS.sqrt(e)
        sv = OPS.sqrt(g)
        worst = OPS.max(
            abs(inner(n1, n1) - 1.0), abs(inner(n2, n2) + 1.0),
            abs(inner(n1, n2)),
            abs(inner(n1, z_u)) / su, abs(inner(n1, z_v)) / sv,
            abs(inner(n2, z_u)) / su, abs(inner(n2, z_v)) / sv,
        )
        bad = first_failure(worst > FRAME_TOL, worst)
        if bad:
            raise DegenerateFrame(
                "supplied frame is not orthonormal-normal (residual {:.3e})"
                .format(*bad), *bad)

    c11_1 = inner(z_uu, n1)
    c12_1 = inner(z_uv, n1)
    c22_1 = inner(z_vv, n1)
    c11_2 = inner(z_uu, n2)
    c12_2 = inner(z_uv, n2)
    c22_2 = inner(z_vv, n2)

    big_l = (2.0 / w) * (c11_1 * c12_2 - c12_1 * c11_2)
    big_m = (1.0 / w) * (c11_1 * c22_2 - c22_1 * c11_2)
    big_n = (2.0 / w) * (c12_1 * c22_2 - c22_1 * c12_2)

    k = (big_l * big_n - big_m * big_m) / det2
    kappa_normal = (e * big_n + g * big_l - 2.0 * f * big_m) / (2.0 * det2)

    # Gauss equation in a flat ambient space, on the normal components of
    # the second derivatives: <s11, s22> - <s12, s12> over EG - F^2, with
    # s_ij = c_ij^1 n1 - c_ij^2 n2 and <n2, n2> = -1.
    gauss_k = (c11_1 * c22_1 - c11_2 * c22_2
               - c12_1 * c12_1 + c12_2 * c12_2) / det2

    # Mean curvature vector: normal projection of the metric trace of the
    # second derivatives.
    trace = (z_uu.scale(g) - z_uv.scale(2.0 * f) + z_vv.scale(e)).scale(
        1.0 / (2.0 * det2))
    h_vec = _project_normal(trace, z_u, z_v, e, f, g, det2)
    h_vec = OPS.where(
        h_vec.euclidean_norm() <= H_FLOOR * trace.euclidean_norm(),
        ZERO, h_vec)
    h1 = inner(h_vec, n1)
    h2 = -inner(h_vec, n2)

    return PointData(u=u, v=v, z=z, z_u=z_u, z_v=z_v,
                     z_uu=z_uu, z_uv=z_uv, z_vv=z_vv,
                     E=e, F=f, G=g, W=w, n1=n1, n2=n2,
                     c11_1=c11_1, c12_1=c12_1, c22_1=c22_1,
                     c11_2=c11_2, c12_2=c12_2, c22_2=c22_2,
                     L=big_l, M=big_m, N=big_n,
                     k=k, kappa_normal=kappa_normal, K=gauss_k,
                     H=h_vec, H1=h1, H2=h2)


def is_marginally_trapped(p: PointData, tol: float = 1e-9) -> bool:
    """True iff the mean curvature vector is lightlike and nonzero.

    ``tol`` is the relative lightlike tolerance of :func:`causal_character`;
    H below the noise floor is exactly ZERO and never counts as trapped.
    A bool array for array point data.
    """
    return causal_character(p.H, tol) == CausalCharacter.LIGHTLIKE
