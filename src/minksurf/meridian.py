"""Constructors for meridian surfaces and their generating curves.

A rotational hypersurface in Minkowski 4-space with lightlike axis,
restricted along a curve of its two rotation parameters, gives a
two-dimensional surface swept by a one-parameter system of meridians: a
meridian surface of parabolic type.  The family

    z(u, v) = f*phi*cos(v) e1 + f*phi*sin(v) e2
              + (f*phi^2/2 + g) xi1 + f xi2,

with profile pair (f, g) satisfying f > 0, -f'*g' > 0 and generating
profile phi(v) with phi'^2 + phi^2 > 0, is built here together with the
two closed-form subfamilies whose mean curvature vector is lightlike
everywhere (a cone family with straight meridians, and a general family
whose meridian profile solves an explicit ODE), the lightlike-axis
paraboloid that carries every generating curve, and its
constant-curvature plane sections.

Profile functions are callables on :class:`~minksurf.jets.Jet2` values, so
every geometric quantity below is differentiated exactly.  The adapted
frame, kappa_m, kappa_bar and the closed forms take u and v as floats or
as arrays that broadcast together, like the surface engine.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Hashable, Optional

import numpy as np

from . import jets
from .errors import AdmissibilityError, CurvatureMismatch, Error, ParamError
from .jets import Jet2, Jet2Vec4, vec_from_null_jets
from .minkowski import (XI1, NullFrameCoords, Vec4M, elementary,
                        first_failure, from_null_frame)
from .surface import Interval, Rect, SurfacePatch

ProfileFn = Callable[[Jet2], Jet2]


@dataclass(frozen=True)
class ProfilePair:
    """Meridian profile (f, g) on an interval; f > 0 and -f'*g' > 0 there."""

    f: ProfileFn
    g: ProfileFn
    domain: Interval


@dataclass(frozen=True)
class ProfileCurvePhi:
    """Generating profile phi(v) on an interval; phi'^2 + phi^2 > 0 there."""

    phi: ProfileFn
    domain: Interval


class SignBranch(Enum):
    PLUS = 1.0
    MINUS = -1.0


# The root choice of a plane section is the same plus/minus choice.
RootBranch = SignBranch


def profile_u(fn: ProfileFn, u: float) -> Jet2:
    """Evaluate a one-variable profile with u seeded as the first variable."""
    return fn(Jet2.seed_u(u))


def profile_v(fn: ProfileFn, v: float) -> Jet2:
    """Evaluate a one-variable profile with v seeded as the second variable."""
    return fn(Jet2.seed_v(v))


# ---------------------------------------------------------------------------
# curvature of the parametric lines
# ---------------------------------------------------------------------------

def _positive(inequality: str, x, variable: str, at):
    """x, checked finite and > 0 (NaN and inf fail, so an overflow is named
    by its inequality); an error names the first failing ``at``."""
    bad = first_failure((x <= 0.0) | (x != x) | (x == math.inf), at)
    if bad:
        raise AdmissibilityError(inequality, variable, *bad)
    return x


def _meridian_e(fj: Jet2, gj: Jet2, u: float) -> float:
    """E = -2 f'g', checked for -f'*g' > 0."""
    return _positive("-f'*g' > 0", -2.0 * fj.du * gj.du, "u", u)


def _phi_q(pj: Jet2, v: float) -> float:
    """phi'^2 + phi^2, checked to be > 0."""
    return _positive("phi'^2 + phi^2 > 0", pj.dv * pj.dv + pj.val * pj.val,
                     "v", v)


def kappa_m(fp: ProfilePair, u: float) -> float:
    """Curvature of the meridian line: (f'g'' - g'f'') / (-2f'g')^(3/2)."""
    fj, gj = profile_u(fp.f, u), profile_u(fp.g, u)
    return _kappa_m(fj, gj, _meridian_e(fj, gj, u))


def _kappa_m(fj: Jet2, gj: Jet2, e: float) -> float:
    return (fj.du * gj.duu - gj.du * fj.duu) / e ** 1.5


def kappa_bar(phi: ProfileCurvePhi, v: float) -> float:
    """Curvature of the generating curve:
    (phi*phi'' - 2 phi'^2 - phi^2) / (phi'^2 + phi^2)^(3/2)."""
    return kappa_bar_of_jet(profile_v(phi.phi, v), v)


def kappa_bar_of_jet(pj: Jet2, v: float) -> float:
    """:func:`kappa_bar` from phi's jet ``pj``, already evaluated at v."""
    return _kappa_bar(pj, _phi_q(pj, v))


def _kappa_bar(pj: Jet2, q: float) -> float:
    return (pj.val * pj.dvv - 2.0 * pj.dv * pj.dv - pj.val * pj.val) / q ** 1.5


# ---------------------------------------------------------------------------
# the parabolic meridian surface
# ---------------------------------------------------------------------------

_SLOTS = struct.Struct("6d")
_FLOAT = struct.Struct("d")
_CHECK_SAMPLES = 41


def _slot_key(s) -> Optional[Hashable]:
    if type(s) is float:
        return _FLOAT.pack(s)
    if type(s) is np.ndarray and s.dtype == np.float64:
        return s.shape, s.tobytes()
    return None


def _line_key(j: Jet2) -> Optional[Hashable]:
    """The exact bits of a jet's six slots, with the shape of each array
    slot; None unless the jet is of one point or of a block of lines.

    A block of lines is a (k, 1) column of u or a (1, n) row of v, as the
    exporters pass them.  A flat array of points is not keyed: its entry
    would hold the jets of a whole grid.  Bits rather than values, so
    +0.0 and -0.0 stay apart; only exact floats and float64 arrays,
    because an int or a numpy scalar with the same value can round
    differently inside a profile.
    """
    val = j.val
    slots = (val, j.du, j.dv, j.duu, j.duv, j.dvv)
    if type(val) is float:      # the common case of one point
        for s in slots:
            if type(s) is not float:
                return None
        return _SLOTS.pack(*slots)
    if type(val) is np.ndarray and not (val.ndim == 2 and 1 in val.shape):
        return None
    keys = tuple(map(_slot_key, slots))
    return None if None in keys else keys


def _line_memo(evaluate: Callable[[Jet2], tuple]) -> Callable[[Jet2], tuple]:
    """``evaluate`` with its results kept per jet.

    A jet is looked up by its exact bits, so the memo holds one entry per
    distinct jet asked for: per grid line for one-point jets, and per
    block of lines for array jets.
    """
    hits: dict = {}

    def line(j: Jet2) -> tuple:
        key = _line_key(j)
        hit = hits.get(key)
        if hit is None:
            hit = evaluate(j)
            if key is not None:
                hits[key] = hit
        return hit

    return line


def _admissible_u(line, u) -> None:
    """f > 0, then -f'*g' > 0, at u: a float or a (k, 1) column."""
    fj, gj = line(Jet2.seed_u(u))
    _positive("f > 0", fj.val, "u", u)
    _meridian_e(fj, gj, u)


def _admissible_v(line, v) -> None:
    """phi'^2 + phi^2 > 0 at v: a float or a (1, n) row."""
    _phi_q(line(Jet2.seed_v(v))[0], v)


def _check_lines(u_line, v_line, columns: list, row: np.ndarray) -> None:
    """The profile inequalities at the u samples of each (k, 1) column, in
    order, then at the v samples of the (1, n) row, through the profile
    memos ``u_line`` and ``v_line``: one array pass per column and one for
    the row, whose jets the patch's immersion then reuses.

    An error names the first failing sample, f > 0 before -f'*g' at each
    u: an array pass that fails is checked again one float at a time.
    Overflow gives inf or NaN, which fail.
    """
    for check, line, x in ([(_admissible_u, u_line, c) for c in columns]
                           + [(_admissible_v, v_line, row)]):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                check(line, x)
        except Error:
            for s in x.ravel().tolist():
                check(line, s)
            raise


def _profile_lines(fp: ProfilePair, phi: ProfileCurvePhi):
    """Memos of (f, g) per u jet and of (phi, cos v, sin v) per v jet.

    f and g depend on u alone and phi on v alone, so the profile jets of
    a grid point are those of its u line and of its v line.
    """
    return (_line_memo(lambda ju: (fp.f(ju), fp.g(ju))),
            _line_memo(lambda jv: (phi.phi(jv), jets.cos(jv), jets.sin(jv))))


def parabolic_normal_frame(fp: ProfilePair, phi: ProfileCurvePhi,
                           _lines=None):
    """The family-adapted orthonormal normal frame of the parabolic surface.

    In this frame the second fundamental form degenerates (L = N = 0) and
    the closed-form invariants take their reduced shape.  It satisfies the
    same orientation conventions as the canonical frame: positively
    oriented with the tangents, n2 future-pointing.

    :func:`build_parabolic` passes the patch's profile memos as ``_lines``,
    so the frame reuses the jets its immersion evaluated at the point.
    """
    u_line, v_line = _lines or _profile_lines(fp, phi)

    def frame(u: float, v: float) -> tuple[Vec4M, Vec4M]:
        fj, gj = u_line(Jet2.seed_u(u))
        pj, cvj, svj = v_line(Jet2.seed_v(v))
        _meridian_e(fj, gj, u)
        q = _phi_q(pj, v)
        ops = elementary(u, v)
        sv, cv = svj.val, cvj.val
        # Flipping n1 with the sign of f' keeps {z_u, z_v, n1, n2}
        # positively oriented on both admissibility branches.
        r = ops.copysign(1.0, fj.du) / ops.sqrt(q)
        n1 = from_null_frame(NullFrameCoords(
            (pj.dv * sv + pj.val * cv) * r,
            (-pj.dv * cv + pj.val * sv) * r,
            pj.val * pj.val * r,
            0.0))
        d = ops.sqrt(-fj.du / (2.0 * gj.du))
        n2 = from_null_frame(NullFrameCoords(
            pj.val * cv * d,
            pj.val * sv * d,
            (fj.du * pj.val * pj.val - 2.0 * gj.du) / (2.0 * fj.du) * d,
            d))
        return n1, n2

    return frame


def build_parabolic(fp: ProfilePair, phi: ProfileCurvePhi) -> SurfacePatch:
    """Meridian surface of a rotational hypersurface with lightlike axis.

    The profile inequalities are checked on a sample grid up front;
    violations raise :class:`AdmissibilityError` naming the inequality and
    the offending parameter value.  The resulting patch carries the
    family-adapted normal frame, its profiles ``(fp, phi)`` and a
    ``check`` of the inequalities on the lines of a grid.  The immersion,
    the frame and the check share one memo of profile jets per u jet and
    per v jet, so an nu x nv grid evaluates f and g on nu values and phi
    on nv values, whether point by point or in blocks of whole u lines.
    """
    for u in fp.domain.linspace(_CHECK_SAMPLES):
        fj, gj = profile_u(fp.f, u), profile_u(fp.g, u)
        _positive("f > 0", fj.val, "u", u)     # f > 0 first at each sample
        _meridian_e(fj, gj, u)
    for v in phi.domain.linspace(_CHECK_SAMPLES):
        _phi_q(profile_v(phi.phi, v), v)
    u_line, v_line = _profile_lines(fp, phi)

    def immersion(ju: Jet2, jv: Jet2) -> Jet2Vec4:
        fj, gj = u_line(ju)
        pj, cv, sv = v_line(jv)
        fphi = fj * pj
        return vec_from_null_jets(
            fphi * cv,
            fphi * sv,
            fj * (pj * pj) * 0.5 + gj,
            fj,
        )

    return SurfacePatch(
        immersion=immersion,
        domain=Rect(fp.domain, phi.domain),
        frame=parabolic_normal_frame(fp, phi, _lines=(u_line, v_line)),
        profiles=(fp, phi),
        check=partial(_check_lines, u_line, v_line),
    )


@dataclass(frozen=True, slots=True)
class ClosedForms:
    """Reduced expressions for the parabolic family at one point, or at
    each point of equal-length (u, v) arrays."""

    E: float
    F: float
    G: float
    L: float
    M: float
    N: float
    k: float
    kappa_normal: float
    K: float
    H1: float
    H2: float


def parabolic_closed_forms(fp: ProfilePair, phi: ProfileCurvePhi,
                           u: float, v: float) -> ClosedForms:
    """Evaluate the reduced invariant formulas of the parabolic family.

    These are the independent counterparts of the numbers produced by
    :func:`minksurf.surface.point_data` with the family-adapted frame:

        E = -2 f' g',  F = 0,  G = f^2 (phi'^2 + phi^2),
        L = N = 0,     M = kappa_m kappa_bar W / f,
        k = -kappa_m^2 kappa_bar^2 / f^2,     kappa_normal = 0,
        K = -f' kappa_m / (f sqrt(-2 f' g')),
        H1 = sign(f') kappa_bar / (2 f),
        H2 = (sign(f') kappa_m + |f'| / (f sqrt(-2 f' g'))) / 2.
    """
    fj, gj = profile_u(fp.f, u), profile_u(fp.g, u)
    pj = profile_v(phi.phi, v)
    e = _meridian_e(fj, gj, u)
    q = _phi_q(pj, v)
    km = _kappa_m(fj, gj, e)
    kb = _kappa_bar(pj, q)
    f = fj.val
    g = f * f * q
    ops = elementary(u, v)
    w = ops.sqrt(e * g)
    sgn = ops.copysign(1.0, fj.du)
    root_e = ops.sqrt(e)
    return ClosedForms(
        E=e, F=0.0, G=g,
        L=0.0,
        M=km * kb * w / f,
        N=0.0,
        k=-(km * km) * (kb * kb) / (f * f),
        kappa_normal=0.0,
        K=-fj.du * km / (f * root_e),
        H1=sgn * kb / (2.0 * f),
        H2=0.5 * (sgn * km + abs(fj.du) / (f * root_e)),
    )


# ---------------------------------------------------------------------------
# the lightlike-H families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneSection:
    """Coefficients of a plane cutting the lightlike-axis paraboloid.

    The plane w1^2/2 + (A cos w2 + B sin w2) w1 + C = 0 meets the
    paraboloid in a constant-curvature curve whenever A^2 + B^2 - 2C > 0.
    """

    A: float
    B: float
    C: float
    root_branch: RootBranch = RootBranch.PLUS


@dataclass(frozen=True)
class MTFamilyParams:
    """Parameters selecting a lightlike-H meridian surface.

    ``a`` is the (constant) curvature of the generating curve, ``b`` a
    translation constant, ``c`` the integration constant of the profile
    ODE, ``sign_branch`` the sign choice inside that ODE.  ``section``,
    when given, must generate a curve whose curvature equals ``a``.
    """

    a: float
    b: float
    c: float
    sign_branch: SignBranch = SignBranch.PLUS
    section: Optional[PlaneSection] = None

    def __post_init__(self):
        if self.a == 0.0:
            raise ParamError("a must be nonzero (a != 0)")
        if self.c == 0.0:
            raise ParamError("c must be nonzero (c != 0)")
        if self.section is not None:
            target = plane_section_curvature(
                self.section.A, self.section.B, self.section.C,
                self.section.root_branch)
            if abs(target - self.a) > 1e-12 * max(1.0, abs(self.a)):
                raise ParamError(
                    f"section curvature {target!r} does not match a={self.a!r}")


def mt_general_profile(params: MTFamilyParams,
                       u_max: float = 10.0) -> ProfilePair:
    """Profile pair (f = u, g) of the general lightlike-H family.

    g' equals -u^2 / (2 (c -+ a u)^2), the closed-form solution of the
    profile ODE.  The returned domain is the largest interval of u > 0 on
    which c -+ a u stays positive (there the signed ODE holds branch-wise),
    shrunk away from u = 0 and from the pole u* where c -+ a u = 0 by
    max(1e-6, 1e-3 |u*|).  When no such interval exists the profile is
    still perfectly smooth on all of u > 0 (the linear factor is negative
    throughout); that full range is returned instead.
    """
    a, b, c = params.a, params.b, params.c
    s = params.sign_branch.value
    u_star = c / (s * a)
    slope = -s * a
    floor = 1e-6
    if u_star > 0.0:
        delta = max(1e-6, 1e-3 * abs(u_star))
        if slope > 0.0:
            lo = u_star + delta
            hi = max(u_max, 2.0 * lo)
        else:
            lo = floor
            hi = u_star - delta
    else:
        lo = floor
        hi = u_max
    if not lo < hi:
        raise ParamError(
            f"empty admissible u-interval for a={a!r}, c={c!r}, branch={params.sign_branch}")

    scale = s / (2.0 * a ** 3)

    def g(ju: Jet2) -> Jet2:
        q = c - (s * a) * ju
        n = (a * a) * (ju * ju) - (2.0 * s * a * c) * ju
        return scale * (n / q - (2.0 * c) * jets.log_abs(q) + b)

    return ProfilePair(f=lambda ju: ju, g=g, domain=Interval(lo, hi))


def mt_general_gprime(params: MTFamilyParams, u: float) -> float:
    """Closed form of the general family's g': -u^2 / (2 (c -+ a u)^2)."""
    q = params.c - params.sign_branch.value * params.a * u
    bad = first_failure(q == 0.0, u)
    if bad:
        raise ParamError("u = {!r} is the profile pole".format(*bad))
    return -u * u / (2.0 * q * q)


def mt_cone_patch(a: float, b: float, phi: ProfileCurvePhi,
                  u_range: Interval = Interval(0.05, 5.0)) -> SurfacePatch:
    """Straight-meridian (cone) family: f = u, g = a u + b with a < 0.

    Requires the generating curve's squared curvature to equal -1/(2a)
    everywhere, which is exactly the condition for the mean curvature
    vector to be lightlike on the whole cone; it is checked to 1e-9 at
    201 samples of phi.
    """
    if a >= 0.0:
        raise ParamError(f"a must be negative, got {a!r}")
    target = -1.0 / (2.0 * a)
    worst = 0.0
    for v in phi.domain.linspace(201):
        kb = kappa_bar(phi, v)
        worst = max(worst, abs(kb * kb - target))
    if worst > 1e-9:
        raise CurvatureMismatch(worst)
    fp = ProfilePair(f=lambda ju: ju,
                     g=lambda ju: a * ju + b,
                     domain=u_range)
    return build_parabolic(fp, phi)


# ---------------------------------------------------------------------------
# the paraboloid and its plane sections
# ---------------------------------------------------------------------------

def paraboloid_point(w1: float, w2: float) -> Vec4M:
    """Point of the lightlike-axis paraboloid; self inner product is 0."""
    return from_null_frame(NullFrameCoords(
        w1 * math.cos(w2), w1 * math.sin(w2), w1 * w1 / 2.0, 1.0))


def _theta_jet(a: float, b: float, jv: Jet2) -> Jet2:
    return a * jets.cos(jv) + b * jets.sin(jv)


def _section_span(A: float, B: float, C: float) -> float:
    span = A * A + B * B - 2.0 * C
    if span <= 0.0:
        raise ParamError(f"A^2 + B^2 - 2C = {span!r} must be > 0")
    return span


def plane_section_phi(A: float, B: float, C: float,
                      root_branch: RootBranch = RootBranch.PLUS
                      ) -> ProfileCurvePhi:
    """Generating profile cut out of the paraboloid by a plane.

    Solves w1^2/2 + theta(v) w1 + C = 0 for w1 = phi(v), where
    theta(v) = A cos v + B sin v; requires A^2 + B^2 - 2C > 0.

    Branch and domain conventions:

    * C > 0: the section splits into two arcs over the v-intervals where
      theta^2 >= 2C.  The returned domain is the arc around the maximum
      of theta (theta > 0), shrunk so theta^2 - 2C >= 1e-12; the two roots
      give the two arcs' profiles there.
    * C < 0: both roots are admissible for every v; one period is
      returned.
    * C = 0: the quadratic degenerates into phi = 0 (a single point of
      the paraboloid, inadmissible) and phi = -2 theta; the latter is
      returned for either branch, valid on a full period.
    """
    s_branch = root_branch.value
    _section_span(A, B, C)
    radius = math.hypot(A, B)
    v0 = math.atan2(B, A)

    if C == 0.0:
        def phi_fn(jv: Jet2) -> Jet2:
            return -2.0 * _theta_jet(A, B, jv)
    else:
        def phi_fn(jv: Jet2) -> Jet2:
            th = _theta_jet(A, B, jv)
            return -th + s_branch * jets.sqrt(th * th - 2.0 * C)
    domain = Interval(v0, v0 + 2.0 * math.pi)
    if C > 0.0:
        # theta = radius * cos(v - v0); keep theta^2 - 2C >= 1e-12.
        ratio = math.sqrt(2.0 * C + 1e-12) / radius
        if ratio >= 1.0:
            raise ParamError(
                f"admissible arc is empty for A={A!r}, B={B!r}, C={C!r}")
        half_width = math.acos(ratio)
        domain = Interval(v0 - half_width, v0 + half_width)

    return ProfileCurvePhi(phi=phi_fn, domain=domain)


def plane_section_curvature(A: float, B: float, C: float,
                            root_branch: RootBranch = RootBranch.PLUS) -> float:
    """Constant curvature of the plane-section profile of
    :func:`plane_section_phi`, with matching branch and domain conventions.

    The magnitude is 1 / sqrt(A^2 + B^2 - 2C).  On the returned domains
    the sign works out to -1 for C <= 0 (either branch) and to the branch
    sign for C > 0; the pairing is asserted against :func:`kappa_bar` by
    the test suite.
    """
    root = 1.0 / math.sqrt(_section_span(A, B, C))
    if C > 0.0:
        return root_branch.value * root
    return -root


def meridian_plane(phi: ProfileCurvePhi, v0: float) -> tuple[Vec4M, Vec4M]:
    """Spanning pair (xi1, zbar(v0)) of the lightlike 2-plane containing
    the meridian at v = v0."""
    p = profile_v(phi.phi, v0).val
    return XI1, paraboloid_point(p, v0)
