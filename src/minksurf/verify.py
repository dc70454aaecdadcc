"""Grid-based certificates for the geometric claims about meridian surfaces.

Every checker evaluates a deterministic sample grid, reduces a residual
with max (or stdev where constancy is the claim) and returns a
:class:`VerificationReport`; the report passes iff the residual stays
within its threshold and no explicit failure was recorded.  A grid
certificate evaluates its whole grid in one array call of the surface
engine, with the u samples as a (nu, 1) column and the v samples as a
(1, nv) row, and reduces it with numpy in row-major order.  Claims are
certified numerically at grid resolution, not symbolically; with exact
jet derivatives the residuals are limited only by rounding, so
thresholds around 1e-9 .. 1e-10 leave three to six orders of margin over
the observed noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import jets as _j
from .errors import UsageError
from .jets import Jet2
from .minkowski import Vec4M, first_failure, inner
from .surface import (GridSpec, Interval, SurfacePatch,
                      is_marginally_trapped, jet_eval_surface, point_data)
# profile_v is not called here; perfbench/spans.py counts profile
# evaluations through both names of this module.
from .meridian import (MTFamilyParams, ProfileCurvePhi, ProfilePair,
                       RootBranch, build_parabolic, kappa_bar,
                       meridian_plane, mt_cone_patch, mt_general_gprime,
                       mt_general_profile, parabolic_closed_forms,
                       plane_section_curvature, plane_section_phi,
                       profile_u, profile_v)  # noqa: F401


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    max_residual: float
    threshold: float
    worst_point: tuple[float, float]
    samples: int
    details: dict = field(default_factory=dict)
    failure: str = ""   # why the claim fails whatever the residual

    @property
    def passed(self) -> bool:
        return not self.failure and self.max_residual <= self.threshold

    def text_block(self) -> str:
        lines = [
            f"claim: {self.claim_id}",
            f"passed: {self.passed}",
            *([f"failure: {self.failure}"] if self.failure else []),
            f"max_residual: {self.max_residual:.6e}",
            f"threshold: {self.threshold:.6e}",
            f"worst_point: ({self.worst_point[0]:.17g}, {self.worst_point[1]:.17g})",
            f"samples: {self.samples}",
        ]
        for key in sorted(self.details):
            lines.append(f"{key}: {self.details[key]:.6e}")
        return "\n".join(lines)


def _grid_report(claim_id: str, residual, us, vs, threshold: float,
                 details: dict | None = None,
                 failure: str = "") -> VerificationReport:
    """Report the largest residual over sample points and its witness.

    ``residual`` is a float or an array broadcast over the points of
    ``us`` and ``vs`` broadcast together.  The witness is the first point,
    in row-major order, of the maximum, or of the first NaN, which then
    becomes the residual so the claim fails; it is (nan, nan) when every
    residual is 0.
    """
    shape = np.broadcast_shapes(np.shape(us), np.shape(vs))
    r = np.broadcast_to(residual, shape).ravel()
    i = int(np.argmax(r))   # the first NaN, else the first maximum
    worst = float(r[i])
    if worst > 0.0 or math.isnan(worst):
        point = (float(np.broadcast_to(us, shape).flat[i]),
                 float(np.broadcast_to(vs, shape).flat[i]))
    else:
        worst, point = 0.0, (math.nan, math.nan)
    return VerificationReport(claim_id, worst, threshold, point, r.size,
                              details or {}, failure)


def _max(*residuals):
    return reduce(np.maximum, residuals)


def _rel(a, b):
    """|a - b| relative to |b|, floored at 1."""
    return abs(a - b) / np.maximum(abs(b), 1.0)


def _lines(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid's u samples as a (nu, 1) column and its v samples as a
    (1, nv) row.  Broadcast together they are the points of
    :meth:`GridSpec.points`, and a parabolic patch evaluates each profile
    once per line (see :func:`~minksurf.meridian.build_parabolic`)."""
    us = np.array(grid.u_range.linspace(grid.u_samples))
    vs = np.array(grid.v_range.linspace(grid.v_samples))
    return us[:, None], vs[None, :]


def _positions(z: Vec4M, shape: tuple[int, ...]) -> np.ndarray:
    """The 4 x n matrix of the vectors over ``shape``, one per column, in
    row-major order."""
    return np.stack([np.broadcast_to(x, shape).ravel() for x in z.coords()])


# Largest |kappa_bar| that verify_case1_hyperplane accepts as zero.
CASE1_KAPPA_TOL = 1e-11


def _profiles(patch: SurfacePatch,
              op: str) -> tuple[ProfilePair, ProfileCurvePhi]:
    """The (fp, phi) a parabolic patch was built from."""
    if patch.profiles is None:
        raise UsageError(f"{op} applies to parabolic meridian patches, "
                         f"got a generic patch")
    return patch.profiles


def verify_flat_normal_connection(patch: SurfacePatch, grid: GridSpec,
                                  tol: float = 1e-10) -> VerificationReport:
    """max |kappa_normal| over the grid; zero for every admissible family."""
    _profiles(patch, "verify_flat_normal_connection")
    us, vs = _lines(grid)
    p = point_data(patch, us, vs)
    return _grid_report("flat-normal-connection", abs(p.kappa_normal),
                        us, vs, tol)


def verify_second_fundamental_form(patch: SurfacePatch, grid: GridSpec,
                                   tol: float = 1e-10) -> VerificationReport:
    """L and N vanish; M matches its reduced closed form (relative)."""
    fp, phi = _profiles(patch, "verify_second_fundamental_form")
    us, vs = _lines(grid)
    p = point_data(patch, us, vs)
    cf = parabolic_closed_forms(fp, phi, us, vs)
    res = _max(abs(p.L), abs(p.N), _rel(p.M, cf.M))
    return _grid_report("second-form-degenerate", res, us, vs, tol)


def verify_closed_form_invariants(patch: SurfacePatch, grid: GridSpec,
                                  tol: float = 1e-9) -> VerificationReport:
    """k, K, H1, H2 from jets against the reduced formulas (relative)."""
    fp, phi = _profiles(patch, "verify_closed_form_invariants")
    us, vs = _lines(grid)
    p = point_data(patch, us, vs)
    cf = parabolic_closed_forms(fp, phi, us, vs)
    res = _max(_rel(p.k, cf.k), _rel(p.K, cf.K), _rel(p.H1, cf.H1),
               _rel(p.H2, cf.H2))
    return _grid_report("closed-form-invariants", res, us, vs, tol)


def verify_marginally_trapped(patch: SurfacePatch, grid: GridSpec,
                              tol: float = 1e-9) -> VerificationReport:
    """Normalized |<H,H>| over the grid, and the smallest |H| observed.

    The residual at a point is |<H,H>| / max(H1^2 + H2^2, 1e-30); the
    report also carries min (H1^2 + H2^2)^(1/2) so callers can assert
    H != 0 separately.
    """
    us, vs = _lines(grid)
    p = point_data(patch, us, vs)
    scale = p.H1 * p.H1 + p.H2 * p.H2
    res = abs(p.h_dot_h()) / np.maximum(scale, 1e-30)
    shape = (us.size, vs.size)
    min_h = float(np.min(np.sqrt(np.broadcast_to(scale, shape))))
    return _grid_report("lightlike-mean-curvature", res, us, vs, tol,
                        details={"min_H_norm": min_h})


def verify_ode_chain(params: MTFamilyParams,
                     tol: float = 1e-9) -> VerificationReport:
    """Residuals of the profile ODE chain for the general family.

    Three sub-residuals over the profile domain: the curvature ODE
    -u g'' + 2 g' = s a (-2g')^(3/2), the substituted linear equation
    h' + h/u + s a/u = 0 with h = 1/sqrt(-2g'), and the closed form of g'.
    Each residual is measured relative to the largest term of its equation
    (floored at 1), so domains approaching the u = 0 singularity do not
    inflate pure-rounding noise.  200 samples, inset by 1 % of the domain.
    """
    prof = mt_general_profile(params)
    s = params.sign_branch.value
    a = params.a
    u = np.array(prof.domain.linspace(200, inset=0.01))
    gj = profile_u(prof.g, u)
    g1, g2 = gj.du, gj.duu
    rhs = s * a * (-2.0 * g1) ** 1.5
    scale = _max(1.0, abs(u * g2), abs(2.0 * g1), abs(rhs))
    r_ode = abs(-u * g2 + 2.0 * g1 - rhs) / scale
    h = 1.0 / np.sqrt(-2.0 * g1)
    h_prime = g2 * (-2.0 * g1) ** -1.5
    scale = _max(1.0, abs(h_prime), abs(h / u), abs(a / u))
    r_lin = abs(h_prime + h / u + s * a / u) / scale
    want = mt_general_gprime(params, u)
    r_gp = abs(g1 - want) / np.maximum(1.0, abs(want))
    subs = {"ode_residual": r_ode, "linear_residual": r_lin,
            "gprime_residual": r_gp}
    return _grid_report("profile-ode-chain", _max(*subs.values()), u,
                        np.zeros(u.size), tol,
                        details={key: float(np.max(r))
                                 for key, r in subs.items()})


def verify_constant_section_curvature(A: float, B: float, C: float,
                                      root_branch: RootBranch,
                                      samples: int = 1000,
                                      tol: float = 1e-9) -> VerificationReport:
    """stdev of the section curve's curvature plus its offset from the
    closed-form constant, over samples inset by 2 % of the domain.  The
    witness is (0, v) at the sample whose curvature is farthest from the
    mean."""
    phi = plane_section_phi(A, B, C, root_branch)
    expected = plane_section_curvature(A, B, C, root_branch)
    vs = np.array(phi.domain.linspace(samples, inset=0.02))
    values = np.broadcast_to(kappa_bar(phi, vs), vs.shape)
    mean = math.fsum(values) / values.size
    var = math.fsum((values - mean) ** 2) / values.size
    stdev = math.sqrt(var)
    residual = stdev + abs(mean - expected)
    worst_v = float(vs[np.argmax(abs(values - mean))])
    return VerificationReport("section-curvature-constant", residual, tol,
                              (0.0, worst_v), values.size,
                              details={"stdev": stdev, "mean": mean,
                                       "expected": expected})


def verify_case1_hyperplane(patch: SurfacePatch, grid: GridSpec,
                            tol: float = 1e-10) -> VerificationReport:
    """For a zero-curvature generating profile the surface sits in a fixed
    hyperplane and is nowhere marginally trapped.

    Checks (i) constancy of the first normal leg over the grid, (ii) that
    <z, n1> is constant, (iii) that no sampled point has a lightlike mean
    curvature vector unless H vanishes there.  A generating profile whose
    curvature exceeds CASE1_KAPPA_TOL at one of 101 samples is a usage
    error.
    """
    _, phi = _profiles(patch, "verify_case1_hyperplane")
    v = np.array(phi.domain.linspace(101))
    kb = np.broadcast_to(kappa_bar(phi, v), v.shape)
    bad = first_failure(abs(kb) > CASE1_KAPPA_TOL, kb, v)
    if bad:
        raise UsageError("generating-curve curvature is not zero "
                         "(kappa={!r} at v={!r})".format(*bad))
    us, vs = _lines(grid)
    p = point_data(patch, us, vs)
    shape = (us.size, vs.size)
    n1_ref = Vec4M(*_positions(p.n1, shape)[:, 0].tolist())
    plane_ref = inner(Vec4M(*_positions(p.z, shape)[:, 0].tolist()), n1_ref)
    dev_frame = (p.n1 - n1_ref).euclidean_norm()
    dev_plane = abs(inner(p.z, n1_ref) - plane_ref)
    trapped = int(np.count_nonzero(
        np.broadcast_to(is_marginally_trapped(p), shape)))
    # A marginally trapped point contradicts the claim.
    return _grid_report(
        "zero-curvature-hyperplane", np.maximum(dev_frame, dev_plane),
        us, vs, tol, details={"trapped_points": float(trapped)},
        failure=f"{trapped} marginally trapped points" if trapped else "")


def verify_meridian_planarity(patch: SurfacePatch, v0: float,
                              tol: float = 1e-10) -> VerificationReport:
    """Meridian at v0 stays inside the lightlike 2-plane spanned by xi1
    and the generating curve's position vector (rank-2 test, sigma3/sigma1),
    at 12 values of u inset by 1 % of the domain."""
    _, phi = _profiles(patch, "verify_meridian_planarity")
    xi1, zbar = meridian_plane(phi, v0)
    us = patch.domain.u.linspace(12, inset=0.01)
    z = _positions(jet_eval_surface(patch, np.array(us), v0).value(),
                   (len(us),))
    m = np.column_stack([xi1.coords(), zbar.coords(), z[:, 1:] - z[:, :1]])
    sv = np.linalg.svd(m, compute_uv=False)
    ratio = float(sv[2] / sv[0])
    return VerificationReport("meridian-planarity", ratio, tol,
                              (us[-1], v0), len(us),
                              details={"sigma1": float(sv[0]),
                                       "sigma3": float(sv[2])})


def verify_cone_lightlike_hyperplane(patch: SurfacePatch, grid: GridSpec,
                                     tol: float = 1e-10) -> VerificationReport:
    """The straight-meridian family spans a fixed hyperplane whose normal
    direction is lightlike.

    Recorded as rank-3 deviation (sigma4/sigma1) plus |<l, l>| of the unit
    normal of the span.
    """
    _profiles(patch, "verify_cone_lightlike_hyperplane")
    us, vs = _lines(grid)
    z = _positions(jet_eval_surface(patch, us, vs).value(),
                   (us.size, vs.size))
    m = z[:, 1:] - z[:, :1]
    # Only U (4x4) and the singular values are used: the reduced
    # factorisation gives the same ones without forming the square V^T.
    u_mat, sv, _ = np.linalg.svd(m, full_matrices=False)
    rank_res = float(sv[3] / sv[0])
    ell = u_mat[:, 3]
    # The SVD null direction l satisfies l . x = 0 (Euclidean); the
    # Minkowski normal of the same hyperplane flips the fourth component.
    normal = Vec4M(float(ell[0]), float(ell[1]), float(ell[2]), -float(ell[3]))
    light_res = abs(inner(normal, normal))
    return VerificationReport("cone-lightlike-hyperplane",
                              max(rank_res, light_res), tol,
                              (grid.u_range.lo, grid.v_range.lo), m.shape[1],
                              details={"rank3_residual": rank_res,
                                       "normal_lightlike_residual": light_res})


# ---------------------------------------------------------------------------
# the full claim suite
# ---------------------------------------------------------------------------

def claim_suite(tol: float = 1e-9) -> list[VerificationReport]:
    """Run one certificate per claim; all should pass at default settings."""
    two_pi = 2.0 * math.pi
    reports: list[VerificationReport] = []

    fp_gen = ProfilePair(f=lambda j: j, g=lambda j: -(j * j) * 0.5,
                         domain=Interval(0.5, 2.0))
    phi_gen = ProfileCurvePhi(phi=lambda j: 2.0 + _j.cos(j),
                              domain=Interval(0.0, two_pi))
    patch = build_parabolic(fp_gen, phi_gen)
    grid = GridSpec.for_patch(patch, 50, 50)

    reports.append(verify_flat_normal_connection(patch, grid, min(tol, 1e-10)))
    reports.append(verify_second_fundamental_form(patch, grid, min(tol, 1e-10)))
    reports.append(verify_closed_form_invariants(patch, grid, tol))

    mt_params = MTFamilyParams(a=-1.0, b=0.0, c=1.0)
    mt_prof = mt_general_profile(mt_params)
    phi_unit = ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0),
                               domain=Interval(0.0, two_pi))
    mt_patch = build_parabolic(mt_prof, phi_unit)
    mt_grid = GridSpec(100, 20, Interval(0.2, 3.0), Interval(0.0, two_pi))
    reports.append(replace(verify_marginally_trapped(mt_patch, mt_grid, tol),
                           claim_id="general-family-lightlike-H"))

    phi_cos = ProfileCurvePhi(phi=lambda j: -2.0 * _j.cos(j),
                              domain=Interval(1.7, 4.5))
    cone = mt_cone_patch(-0.5, 0.0, phi_cos, u_range=Interval(0.2, 4.0))
    cone_grid = GridSpec.for_patch(cone, 40, 40)
    reports.append(replace(verify_marginally_trapped(cone, cone_grid, tol),
                           claim_id="cone-family-lightlike-H"))

    reports.append(verify_ode_chain(mt_params, tol=tol))
    reports.append(verify_constant_section_curvature(3.0, 4.0, 0.0,
                                                     RootBranch.PLUS, tol=tol))

    phi_sec = ProfileCurvePhi(phi=lambda j: _j.reciprocal(_j.cos(j)),
                              domain=Interval(-1.2, 1.2))
    fp_flat = ProfilePair(f=lambda j: j, g=lambda j: -j,
                          domain=Interval(0.5, 2.0))
    case1_grid = GridSpec(40, 40, Interval(0.55, 1.95), Interval(-1.15, 1.15))
    reports.append(verify_case1_hyperplane(build_parabolic(fp_flat, phi_sec),
                                           case1_grid,
                                           tol=max(1e-10, tol * 0.1)))

    reports.append(verify_meridian_planarity(mt_patch, 0.5,
                                             tol=min(tol, 1e-10)))

    reports.append(verify_cone_lightlike_hyperplane(
        cone, GridSpec.for_patch(cone, 8, 12), tol=max(1e-10, tol * 0.1)))

    return reports


def render_reports(reports: list[VerificationReport]) -> str:
    blocks = [r.text_block() for r in reports]
    passed = sum(r.passed for r in reports)
    footer = f"passed {passed} of {len(reports)} claims"
    return "\n\n".join(blocks) + "\n\n" + footer + "\n"
