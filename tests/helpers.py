"""Shared test utilities: ulp comparison, random admissible families and
the ``%`` row format that exported tables are checked against."""

import math
import random
from contextlib import contextmanager

import numpy as np

from minksurf import jets
from minksurf.expr import compile_profile
from minksurf.jets import Jet2
from minksurf.minkowski import OPS
from minksurf.meridian import (ProfileCurvePhi, ProfilePair, RootBranch,
                               build_parabolic, parabolic_immersion,
                               plane_section_phi)
from minksurf.surface import Interval, SurfacePatch


def ulps_apart(a: float, b: float) -> float:
    """|a - b| measured in units in the last place of the larger magnitude."""
    if a == b:
        return 0.0
    scale = math.ulp(max(abs(a), abs(b), math.ulp(0.0)))
    return abs(a - b) / scale


def assert_ulps(a: float, b: float, limit: float, label: str = ""):
    d = ulps_apart(a, b)
    assert d <= limit, f"{label}: {a!r} vs {b!r} differ by {d:.1f} ulp > {limit}"


def row_format(n: int, sep: str = ",") -> str:
    """A ``%`` format string for one row of n reals joined by ``sep`` and
    ended by a newline, each field as ``'%.17g'``: the reference bytes of
    the exporters' table writer."""
    return sep.join(["%.17g"] * n) + "\n"


def replaced(obj, **changes):
    """A copy of a value object (a slotted class whose constructor takes
    its slots as keywords) with ``changes`` to some of its fields."""
    fields = {name: getattr(obj, name) for name in type(obj).__slots__}
    return type(obj)(**{**fields, **changes})


def immersion_of(patch: SurfacePatch):
    """The immersion of a parabolic patch as a function of jets in any
    parametrisation: :func:`parabolic_immersion` of its profiles."""
    fp, phi = patch.profiles

    def immersion(ju: Jet2, jv: Jet2):
        return parabolic_immersion(fp.f(ju), fp.g(ju), phi.phi(jv),
                                   jets.cos(jv), jets.sin(jv))
    return immersion


def flat_points(grid) -> tuple:
    """The grid's points as flat u and v arrays in row-major order: its
    (nu, 1) column and (1, nv) row broadcast together."""
    return tuple(x.ravel() for x in np.broadcast_arrays(*grid.lines()))


def grid_points(grid) -> list:
    """The grid's points as (u, v) pairs of floats, in row-major order."""
    return list(zip(*(x.tolist() for x in flat_points(grid))))


@contextmanager
def math_rounding():
    """Within the block the engine's sqrt, sin, cos, exp, log and real
    powers (``minkowski.OPS``) call ``math`` (float ``**`` for a power)
    on one element at a time: a reference for the rounding of every
    element that does not depend on how the engine maps these functions."""
    def each(fn):
        return lambda a: np.array([fn(x) for x in np.ravel(a).tolist()],
                                  dtype=float).reshape(np.shape(a))

    saved = dict(vars(OPS))
    OPS.sqrt, OPS.sin, OPS.cos, OPS.exp, OPS.log = map(
        each, (math.sqrt, math.sin, math.cos, math.exp, math.log))
    OPS.pow = lambda a, p: each(lambda x: x ** p)(a)
    try:
        yield
    finally:
        vars(OPS).update(saved)


def reproducer_pair() -> ProfilePair:
    """f = 2 + 0.001 sin(167.55 (u - 0.5)) and g = -u on [0.5, 2]:
    admissible at the 41 samples build_parabolic checks, but -f'*g' > 0
    fails between them, first at u = 0.5150753768844221 of 200 samples."""
    return ProfilePair(compile_profile("2 + 0.001*sin(167.55*(u-0.5))", "u"),
                       compile_profile("-u", "u"), Interval(0.5, 2.0))


def nan_curvature_phi() -> ProfileCurvePhi:
    """phi = 1.2e144 cos(1e10 v) on [0, 1]: phi'^2 + phi^2 fits a float,
    but the numerator of kappa_bar is inf - inf, NaN at 134 of 201
    samples, the first at v = 0.01."""
    return ProfileCurvePhi(phi=lambda j: 1.2e144 * jets.cos(1e10 * j),
                           domain=Interval(0.0, 1.0))


def nan_near(x0: float):
    """The constant profile 2, NaN within 1e-6 of x0."""
    def profile(j: Jet2) -> Jet2:
        val = np.where(abs(j.val - x0) < 1e-6, math.nan, 2.0)
        return Jet2(val if val.ndim else float(val))
    return profile


def rel_err(a: float, b: float, floor: float = 1.0) -> float:
    return abs(a - b) / max(abs(b), floor)


def linear_profile_pair(a0: float, a1: float, c1: float, c3: float,
                        domain: Interval) -> ProfilePair:
    """f = a0 + a1 u, g chosen so that -f' g' = |a1| (c1 + c3 u^2) > 0."""
    sgn = math.copysign(1.0, a1)

    def g(ju: Jet2) -> Jet2:
        return -sgn * (c1 * ju + (c3 / 3.0) * ju * ju * ju)

    return ProfilePair(f=lambda ju: a0 + a1 * ju, g=g, domain=domain)


def random_parabolic_patch(rng: random.Random) -> SurfacePatch:
    """The parabolic patch of a randomized admissible (f, g, phi) triple
    on a fixed box."""
    u_dom = Interval(0.4, 1.6)
    a1 = rng.choice([1.0, -1.0]) * rng.uniform(0.5, 1.5)
    a0 = rng.uniform(0.3, 1.0) + max(0.0, -a1) * u_dom.hi
    c1 = rng.uniform(0.3, 1.2)
    c3 = rng.uniform(0.0, 1.0)
    fp = linear_profile_pair(a0, a1, c1, c3, u_dom)

    kind = rng.randrange(3)
    if kind == 0:
        base = rng.uniform(1.0, 2.5)
        amp = rng.uniform(0.0, base - 0.4)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        phi = ProfileCurvePhi(
            phi=lambda jv, b=base, a=amp, p=ph: b + a * jets.sin(jv + p),
            domain=Interval(0.1, 6.0))
    elif kind == 1:
        lam = rng.uniform(-0.4, 0.4)
        scale = rng.uniform(0.7, 1.8)
        phi = ProfileCurvePhi(
            phi=lambda jv, l=lam, s=scale: s * jets.exp(l * jets.sin(jv)),
            domain=Interval(0.1, 6.0))
    else:
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(-1.5, 1.5)
        c = rng.uniform(-2.0, -0.3)
        branch = rng.choice([RootBranch.PLUS, RootBranch.MINUS])
        phi = plane_section_phi(a, b, c, branch)
    return build_parabolic(fp, phi)
