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
every geometric quantity below is differentiated exactly.  A profile must
accept jets whose slots are arrays: the line jets, kappa_m, kappa_bar and
the closed forms take u and v as arrays that broadcast together, like the
surface engine, and a float argument evaluates as a numpy value.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import AdmissibilityError, CurvatureMismatch, Error, ParamError
from .jets import Jet2, Jet2Vec4, vec_from_null_jets
from .minkowski import (OPS, XI1, NullFrameCoords, Vec4M, first_failure,
                        from_null_frame)
from .surface import Interval, Rect, SurfacePatch, _read_only

ProfileFn = Callable[[Jet2], Jet2]


class ProfilePair:
    """Meridian profile (f, g) on an interval; f > 0 and -f'*g' > 0 there."""

    __slots__ = ("f", "g", "domain")

    def __init__(self, f: ProfileFn, g: ProfileFn, domain: Interval):
        self.f = f
        self.g = g
        self.domain = domain


class ProfileCurvePhi:
    """Generating profile phi(v) on an interval; phi'^2 + phi^2 > 0 there."""

    __slots__ = ("phi", "domain")

    def __init__(self, phi: ProfileFn, domain: Interval):
        self.phi = phi
        self.domain = domain


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
    return (fj.du * gj.duu - gj.du * fj.duu) / OPS.pow(e, 1.5)


def kappa_bar(phi: ProfileCurvePhi, v: float) -> float:
    """Curvature of the generating curve:
    (phi*phi'' - 2 phi'^2 - phi^2) / (phi'^2 + phi^2)^(3/2)."""
    return kappa_bar_of_jet(profile_v(phi.phi, v), v)


def kappa_bar_of_jet(pj: Jet2, v: float) -> float:
    """:func:`kappa_bar` from phi's jet ``pj``, already evaluated at v."""
    return _kappa_bar(pj, _phi_q(pj, v))


def _kappa_bar(pj: Jet2, q: float) -> float:
    return ((pj.val * pj.dvv - 2.0 * pj.dv * pj.dv - pj.val * pj.val)
            / OPS.pow(q, 1.5))


# ---------------------------------------------------------------------------
# the parabolic meridian surface
# ---------------------------------------------------------------------------

_CHECK_SAMPLES = 41


class LineJets:
    """The profile jets of a parabolic patch on the lines through its
    points: f and g at u, and phi, cos v and sin v at v.  f and g depend on
    u alone and phi on v alone, so on a grid, with u a (k, 1) column and v
    a (1, n) row, each is evaluated once per line.
    """

    __slots__ = ("f", "g", "phi", "cos", "sin")

    def __init__(self, f: Jet2, g: Jet2, phi: Jet2, cos: Jet2, sin: Jet2):
        self.f = f
        self.g = g
        self.phi = phi
        self.cos = cos
        self.sin = sin

    def immersion(self) -> Jet2Vec4:
        """The jets of z(u, v) (see the module docstring)."""
        f, phi = self.f, self.phi
        fphi = f * phi
        return vec_from_null_jets(fphi * self.cos, fphi * self.sin,
                                  f * (phi * phi) * 0.5 + self.g, f)

    def u_rows(self, rows: slice) -> "LineJets":
        """The jets of the u samples ``rows`` of a column.  A profile may
        return float slots (:meth:`Jet2.constant`), so only array slots
        are sliced."""
        f, g = (Jet2(*(s[rows] if isinstance(s, np.ndarray) else s
                       for s in (j.val, j.du, j.dv, j.duu, j.duv, j.dvv)))
                for j in (self.f, self.g))
        return LineJets(f, g, self.phi, self.cos, self.sin)


def _u_jets(fp: ProfilePair, u) -> tuple[Jet2, Jet2]:
    """f and g at u, checked for f > 0, then for -f'*g' > 0."""
    fj, gj = profile_u(fp.f, u), profile_u(fp.g, u)
    _positive("f > 0", fj.val, "u", u)
    _meridian_e(fj, gj, u)
    return fj, gj


def _v_jets(phi: ProfileCurvePhi, v) -> tuple[Jet2, Jet2, Jet2]:
    """phi, cos v and sin v at v, checked for phi'^2 + phi^2 > 0."""
    jv = Jet2.seed_v(v)
    pj = phi.phi(jv)
    _phi_q(pj, v)
    return pj, jets.cos(jv), jets.sin(jv)


def _first_failing_sample(evaluate, profile, x):
    """``evaluate(profile, x)`` in one pass.  A pass that fails is run
    again one sample at a time, so the error names the first failing
    sample.  Overflow gives inf or NaN, which fail."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return evaluate(profile, x)
        except Error:
            for s in np.ravel(x)[:, None]:
                evaluate(profile, s)
            raise


def line_jets(fp: ProfilePair, phi: ProfileCurvePhi, u, v) -> LineJets:
    """The profile jets of the u lines and v lines through (u, v), with
    the profile inequalities checked on them: at every u sample (f > 0
    before -f'*g' > 0 at each), then at every v sample."""
    return LineJets(*_first_failing_sample(_u_jets, fp, u),
                    *_first_failing_sample(_v_jets, phi, v))


def parabolic_normal_frame():
    """The family-adapted orthonormal normal frame of the parabolic
    surface, as a function of its checked :class:`LineJets`.

    In this frame the second fundamental form degenerates (L = N = 0) and
    the closed-form invariants take their reduced shape.  It satisfies the
    same orientation conventions as the canonical frame: positively
    oriented with the tangents, n2 future-pointing.  A factory, so that
    ``perfbench/spans.py`` can time the frame of every patch it builds.
    """

    def frame(lines: LineJets) -> tuple[Vec4M, Vec4M]:
        fj, gj, pj = lines.f, lines.g, lines.phi
        sv, cv = lines.sin.val, lines.cos.val
        q = pj.dv * pj.dv + pj.val * pj.val
        # Flipping n1 with the sign of f' keeps {z_u, z_v, n1, n2}
        # positively oriented on both admissibility branches.
        r = OPS.copysign(1.0, fj.du) / OPS.sqrt(q)
        n1 = from_null_frame(NullFrameCoords(
            (pj.dv * sv + pj.val * cv) * r,
            (-pj.dv * cv + pj.val * sv) * r,
            pj.val * pj.val * r,
            0.0))
        d = OPS.sqrt(-fj.du / (2.0 * gj.du))
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
    the offending parameter value.  The resulting patch carries its
    profiles ``(fp, phi)``, its :func:`line_jets`, from which the surface
    engine builds the immersion jets, and the family-adapted normal frame
    of those jets; ``immersion`` takes jets of any parametrisation.
    """
    line_jets(fp, phi, np.array(fp.domain.linspace(_CHECK_SAMPLES)),
              np.array(phi.domain.linspace(_CHECK_SAMPLES)))

    def immersion(ju: Jet2, jv: Jet2) -> Jet2Vec4:
        return LineJets(fp.f(ju), fp.g(ju), phi.phi(jv), jets.cos(jv),
                        jets.sin(jv)).immersion()

    return SurfacePatch(
        immersion=immersion,
        domain=Rect(fp.domain, phi.domain),
        frame=parabolic_normal_frame(),
        profiles=(fp, phi),
        lines=partial(line_jets, fp, phi),
    )


class ClosedForms:
    """Reduced expressions for the parabolic family at each point of
    (u, v) arrays that broadcast together."""

    __slots__ = ("E", "F", "G", "L", "M", "N", "k", "kappa_normal", "K",
                 "H1", "H2")

    def __init__(self, E: float, F: float, G: float, L: float, M: float,
                 N: float, k: float, kappa_normal: float, K: float,
                 H1: float, H2: float):
        self.E, self.F, self.G = E, F, G
        self.L, self.M, self.N = L, M, N
        self.k, self.kappa_normal, self.K = k, kappa_normal, K
        self.H1, self.H2 = H1, H2


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
    w = OPS.sqrt(e * g)
    sgn = OPS.copysign(1.0, fj.du)
    root_e = OPS.sqrt(e)
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

class PlaneSection:
    """Coefficients of a plane cutting the lightlike-axis paraboloid.

    The plane w1^2/2 + (A cos w2 + B sin w2) w1 + C = 0 meets the
    paraboloid in a constant-curvature curve whenever A^2 + B^2 - 2C > 0.
    Read-only, as :class:`MTFamilyParams` checks its curvature.
    """

    __slots__ = ("A", "B", "C", "root_branch")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, A: float, B: float, C: float,
                 root_branch: RootBranch = RootBranch.PLUS):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "root_branch", root_branch)


class MTFamilyParams:
    """Parameters selecting a lightlike-H meridian surface.

    ``a`` is the (constant) curvature of the generating curve, ``b`` a
    translation constant, ``c`` the integration constant of the profile
    ODE, ``sign_branch`` the sign choice inside that ODE.  ``section``,
    when given, must generate a curve whose curvature equals ``a``.
    Read-only.
    """

    __slots__ = ("a", "b", "c", "sign_branch", "section")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, a: float, b: float, c: float,
                 sign_branch: SignBranch = SignBranch.PLUS,
                 section: Optional[PlaneSection] = None):
        if a == 0.0:
            raise ParamError("a must be nonzero (a != 0)")
        if c == 0.0:
            raise ParamError("c must be nonzero (c != 0)")
        if section is not None:
            target = plane_section_curvature(section.A, section.B, section.C,
                                             section.root_branch)
            if abs(target - a) > 1e-12 * max(1.0, abs(a)):
                raise ParamError(
                    f"section curvature {target!r} does not match a={a!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sign_branch", sign_branch)
        object.__setattr__(self, "section", section)


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
    kb = _first_failing_sample(kappa_bar, phi,
                               np.array(phi.domain.linspace(201)))
    worst = max([0.0, *np.ravel(abs(kb * kb - target)).tolist()])
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
        w1 * OPS.cos(w2), w1 * OPS.sin(w2), w1 * w1 / 2.0, 1.0))


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
