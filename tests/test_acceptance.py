"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

import numpy as np
import pytest

from minksurf import jets
from minksurf.cli import run_cli
from minksurf.errors import CurvatureMismatch
from minksurf.exporters import CSV_HEADER
from minksurf.jets import Jet2
from minksurf.surface import Interval, SurfacePatch, point_data
from minksurf.meridian import (MTFamilyParams, PlaneSection,
                               ProfileCurvePhi, ProfilePair, RootBranch,
                               SignBranch, build_parabolic, kappa_bar,
                               mt_cone_patch, mt_general_profile,
                               parabolic_closed_forms,
                               plane_section_phi, profile_u)
from minksurf.verify import (GridSpec, verify_case1_hyperplane,
                             verify_constant_section_curvature,
                             verify_marginally_trapped,
                             verify_meridian_planarity, verify_ode_chain)

from fd_oracle import fd_point_data
from helpers import immersion_of, random_parabolic_patch, replaced

TWO_PI = 2.0 * math.pi


def report(num: int, desc: str, value: float, bound: float, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {desc} "
          f"(measured {value:.3e}, bound {bound:.1e})")
    assert ok, f"criterion {num}: {desc}: measured {value!r}, bound {bound!r}"


@pytest.fixture(scope="module")
def random_patches():
    rng = random.Random(20240817)
    return [random_parabolic_patch(rng) for _ in range(5)]


@pytest.fixture(scope="module")
def family_points(random_patches):
    """(patch, us, vs, PointData) on a 50x50 grid each: the grid's u
    column and v row, and one engine call on its points."""
    out = []
    for patch in random_patches:
        us, vs = GridSpec.for_patch(patch, 50, 50).lines()
        out.append((patch, us, vs, point_data(patch, us, vs)))
    return out


def _worst(x) -> float:
    """max |x| over the points; NaN if any point is NaN."""
    return float(np.max(np.abs(x)))


def test_criterion_01_flat_normal_connection(family_points):
    worst = max(_worst(p.kappa_normal) for *_, p in family_points)
    report(1, "flat normal connection: max |kappa_normal| on 5 random "
              "parabolic patches", worst, 1e-10, worst <= 1e-10)


def test_criterion_02_second_form_structure(family_points):
    worst_ln = 0.0
    worst_m = 0.0
    for patch, us, vs, p in family_points:
        worst_ln = max(worst_ln, _worst(p.L), _worst(p.N))
        m_cf = parabolic_closed_forms(*patch.profiles, us, vs).M
        worst_m = max(worst_m,
                      _worst((p.M - m_cf) / np.maximum(abs(m_cf), 1.0)))
    ok = worst_ln <= 1e-10 and worst_m <= 1e-9
    report(2, "second fundamental form: max(|L|,|N|) and relative M "
              "deviation", max(worst_ln, worst_m), 1e-9, ok)


def test_criterion_03_closed_form_invariants(family_points):
    worst = 0.0
    for patch, us, vs, p in family_points:
        cf = parabolic_closed_forms(*patch.profiles, us, vs)
        for name in ("k", "K", "H1", "H2"):
            a = getattr(p, name)
            b = getattr(cf, name)
            worst = max(worst, _worst((a - b) / np.maximum(abs(b), 1.0)))
    report(3, "closed-form k, K, H1, H2 vs engine (relative)", worst, 1e-9,
           worst <= 1e-9)


SECTION_FOR_A = {
    -1.0: (0.0, 0.0, -0.5, RootBranch.PLUS),
    -1.0 / math.sqrt(2.0): (0.0, 0.0, -1.0, RootBranch.PLUS),
    0.5: (3.0, 0.0, 2.5, RootBranch.PLUS),
}


def test_criterion_04_general_family_marginally_trapped():
    start = time.perf_counter()
    worst = 0.0
    min_h = math.inf
    for a, c in ((-1.0, 1.0), (-1.0 / math.sqrt(2.0), 2.0), (0.5, -1.0)):
        section_args = SECTION_FOR_A[a]
        for branch in (SignBranch.PLUS, SignBranch.MINUS):
            params = MTFamilyParams(a=a, b=0.0, c=c, sign_branch=branch,
                                    section=PlaneSection(*section_args))
            prof = mt_general_profile(params)
            phi_base = plane_section_phi(*section_args)
            u_iv = Interval(prof.domain.lo + 0.02 * prof.domain.width,
                            prof.domain.hi - 0.02 * prof.domain.width)
            v_iv = Interval(phi_base.domain.lo + 0.02 * phi_base.domain.width,
                            phi_base.domain.hi - 0.02 * phi_base.domain.width)
            patch = build_parabolic(
                ProfilePair(prof.f, prof.g, u_iv),
                ProfileCurvePhi(phi_base.phi, v_iv))
            rep = verify_marginally_trapped(
                patch, GridSpec(100, 20, u_iv, v_iv), tol=1e-9)
            worst = max(worst, rep.max_residual)
            min_h = min(min_h, rep.details["min_H_norm"])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and min_h > 1e-6 and elapsed < 5.0
    report(4, f"general lightlike-H family: normalized <H,H> over "
              f"6 parameter combos (min |H| {min_h:.3f}, {elapsed:.2f}s)",
           worst, 1e-9, ok)


def test_criterion_05_cone_constraint():
    phi_one = ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0),
                              domain=Interval(0.0, TWO_PI))
    phi_cos = ProfileCurvePhi(phi=lambda j: -2.0 * jets.cos(j),
                              domain=Interval(1.62, 4.66))
    worst = 0.0
    for phi in (phi_one, phi_cos):
        patch = mt_cone_patch(-0.5, 0.0, phi)
        rep = verify_marginally_trapped(
            patch, GridSpec.for_patch(patch, 40, 40), tol=1e-9)
        worst = max(worst, rep.max_residual)
    phi_sec = ProfileCurvePhi(phi=lambda j: jets.reciprocal(jets.cos(j)),
                              domain=Interval(-1.2, 1.2))
    try:
        mt_cone_patch(-0.5, 0.0, phi_sec)
        rejected = False
    except CurvatureMismatch:
        rejected = True
    ok = worst <= 1e-9 and rejected
    report(5, "cone family: lightlike H for both admissible profiles, "
              "zero-curvature profile rejected", worst, 1e-9, ok)


def test_criterion_06_ode_chain():
    worst = 0.0
    for a, c, branch in [(-1.0, 1.0, SignBranch.PLUS),
                         (-1.0, 1.0, SignBranch.MINUS),
                         (-1.0 / math.sqrt(2.0), 2.0, SignBranch.PLUS),
                         (-1.0 / math.sqrt(2.0), 2.0, SignBranch.MINUS),
                         (0.5, -1.0, SignBranch.MINUS),
                         (0.5, 1.0, SignBranch.PLUS)]:
        rep = verify_ode_chain(MTFamilyParams(a=a, b=0.0, c=c,
                                              sign_branch=branch))
        worst = max(worst, rep.max_residual)
    prof = mt_general_profile(MTFamilyParams(a=-1.0, b=0.0, c=1.0,
                                             sign_branch=SignBranch.PLUS))
    spot = abs(profile_u(prof.g, 1.0).du + 0.125)
    ok = worst <= 1e-9 and spot <= 1e-12
    report(6, f"profile ODE chain (spot |g'(1) + 1/8| = {spot:.1e})",
           worst, 1e-9, ok)


def test_criterion_07_constant_section_curvature():
    rng = random.Random(424242)
    worst = 0.0
    done = 0
    while done < 20:
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(-3.0, (a * a + b * b) / 2.0 - 0.2)
        if a * a + b * b - 2.0 * c <= 0.2:
            continue
        branch = rng.choice([RootBranch.PLUS, RootBranch.MINUS])
        rep = verify_constant_section_curvature(a, b, c, branch,
                                                samples=1000, tol=1e-9)
        worst = max(worst, rep.details["stdev"],
                    abs(rep.details["mean"] - rep.details["expected"]))
        done += 1
    spot1 = verify_constant_section_curvature(3.0, 4.0, 0.0, RootBranch.PLUS)
    spot2 = verify_constant_section_curvature(0.0, 0.0, -0.5, RootBranch.PLUS)
    ok = (worst <= 1e-9
          and abs(abs(spot1.details["mean"]) - 0.2) <= 1e-9
          and abs(spot2.details["mean"] + 1.0) <= 1e-9)
    report(7, "plane sections have constant curvature -+1/sqrt(A^2+B^2-2C) "
              "(20 random + 2 spot sections)", worst, 1e-9, ok)


def test_criterion_08_zero_curvature_hyperplane():
    phi = ProfileCurvePhi(phi=lambda j: jets.reciprocal(jets.cos(j)),
                          domain=Interval(-1.2, 1.2))
    worst_kappa = _worst(kappa_bar(phi, np.array(phi.domain.linspace(201))))
    worst = 0.0
    for g_fn in (lambda j: -j, lambda j: -(j ** 3) / 3.0):
        fp = ProfilePair(f=lambda j: j, g=g_fn, domain=Interval(0.5, 2.0))
        grid = GridSpec(40, 40, Interval(0.55, 1.95), Interval(-1.15, 1.15))
        rep = verify_case1_hyperplane(build_parabolic(fp, phi), grid,
                                      tol=1e-10)
        worst = max(worst, rep.max_residual)
        assert rep.details["trapped_points"] == 0.0
    ok = worst_kappa <= 1e-11 and worst <= 1e-10
    report(8, f"zero-curvature profile: hyperplane confinement and no "
              f"lightlike H (max |kappa_bar| = {worst_kappa:.1e})",
           worst, 1e-10, ok)


def test_criterion_09_meridian_planarity():
    phi = ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0),
                          domain=Interval(0.0, TWO_PI))
    patches = [
        build_parabolic(ProfilePair(f=lambda j: j, g=lambda j: -j,
                                    domain=Interval(0.5, 2.5)), phi),
        build_parabolic(
            mt_general_profile(MTFamilyParams(a=-1.0, b=0.0, c=1.0),
                               u_max=3.0), phi),
        mt_cone_patch(-0.5, 0.0, phi),
    ]
    worst = 0.0
    for patch in patches:
        for v0 in (0.4, 2.0, 5.1):
            rep = verify_meridian_planarity(patch, v0, tol=1e-10)
            worst = max(worst, rep.max_residual)

    base = patches[0]

    def bent(ju, jv):
        z = immersion_of(base)(ju, jv)
        from minksurf.jets import Jet2Vec4
        return Jet2Vec4(z.x1, z.x2, z.x3 + 1e-3 * jets.sin(ju), z.x4)

    # A generic patch that keeps the profiles, so the certificate runs.
    control = verify_meridian_planarity(
        replaced(SurfacePatch.of_immersion(bent, base.domain),
                 profiles=base.profiles), 0.4, tol=1e-10)
    ok = worst <= 1e-10 and not control.passed
    report(9, f"meridians stay in their lightlike planes (3 families x 3 "
              f"sections; perturbed control residual {control.max_residual:.1e})",
           worst, 1e-10, ok)


def test_criterion_10_engine_cross_validation(random_patches):
    worst_fd = 0.0
    for base in random_patches:
        patch = SurfacePatch.of_immersion(immersion_of(base), base.domain)
        u = 0.5 * (patch.domain.u.lo + patch.domain.u.hi)
        v = 0.45 * (patch.domain.v.lo + patch.domain.v.hi)
        jet_p = point_data(patch, u, v)
        fd_p = fd_point_data(patch, u, v)
        for name in ("E", "F", "G", "L", "M", "N", "k", "kappa_normal",
                     "K", "H1", "H2"):
            a = getattr(jet_p, name)
            b = getattr(fd_p, name)
            worst_fd = max(worst_fd, abs(a - b) / max(abs(a), 1.0))

    worst_flip = 0.0
    patch = random_patches[0]
    u = 0.6 * (patch.domain.u.lo + patch.domain.u.hi)
    v = 0.3 * (patch.domain.v.lo + patch.domain.v.hi)
    base = point_data(patch, u, v)
    for f1, f2 in ((-1, 1), (1, -1), (-1, -1)):
        flipped = (base.n1.scale(f1), base.n2.scale(f2))
        flip = point_data(replaced(patch, frame=lambda lines: flipped), u, v)
        worst_flip = max(
            worst_flip,
            abs(base.k - flip.k), abs(base.K - flip.K),
            abs(base.kappa_normal - f1 * f2 * flip.kappa_normal),
            max(abs(x - y) for x, y in zip(base.H.coords(), flip.H.coords())))
    ok = worst_fd <= 1e-6 and worst_flip <= 1e-12
    report(10, f"finite-difference oracle (rel {worst_fd:.1e}) and "
               f"frame-flip invariance ({worst_flip:.1e})",
           max(worst_fd, worst_flip), 1e-6, ok)


def test_criterion_11_cli_end_to_end(tmp_path, capsys):
    code = run_cli(["verify", "--suite", "paper", "--tol", "1e-9"])
    out = capsys.readouterr().out
    claims_passed = out.count("passed: True")
    csv_a = tmp_path / "mt_a.csv"
    csv_b = tmp_path / "mt_b.csv"
    argv = ["family", "--type", "parabolic-mt", "--a", "-1", "--b", "0",
            "--c", "1", "--sign", "plus",
            "--section", "A=0,B=0,C=-0.5,root=plus",
            "--u", "0.2:3:100", "--v", "0:6.283:100"]
    assert run_cli(argv + ["--csv", str(csv_a)]) == 0
    assert run_cli(argv + ["--csv", str(csv_b)]) == 0
    identical = csv_a.read_bytes() == csv_b.read_bytes()
    hcol = CSV_HEADER.split(",").index("HdotH")
    worst_h = max(abs(float(line.split(",")[hcol]))
                  for line in csv_a.read_text().splitlines()[1:])
    ok = (code == 0 and claims_passed >= 9 and identical
          and worst_h <= 1e-9)
    report(11, f"CLI: verify exits 0 with {claims_passed} passed claims; "
               f"CSV byte-identical={identical}, max |HdotH|",
           worst_h, 1e-9, ok)
