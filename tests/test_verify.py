import math
import random

import numpy as np
import pytest

from minksurf import jets
from minksurf.errors import AdmissibilityError, ParamError, UsageError
from minksurf.jets import Jet2, Jet2Vec4
from minksurf.surface import Interval, Rect, SurfacePatch
from minksurf.meridian import (MTFamilyParams, ProfileCurvePhi, ProfilePair,
                               RootBranch, SignBranch, build_parabolic,
                               kappa_bar, mt_cone_patch, mt_general_profile,
                               plane_section_phi)
from minksurf import verify
from minksurf.verify import (GridSpec, VerificationReport, claim_suite,
                             render_reports, verify_case1_hyperplane,
                             verify_closed_form_invariants,
                             verify_cone_lightlike_hyperplane,
                             verify_constant_section_curvature,
                             verify_flat_normal_connection,
                             verify_marginally_trapped,
                             verify_meridian_planarity, verify_ode_chain,
                             verify_second_fundamental_form)

from helpers import (immersion_of, nan_curvature_phi,
                     random_parabolic_patch, replaced, reproducer_pair)

TWO_PI = 2.0 * math.pi


def unit_phi() -> ProfileCurvePhi:
    return ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0),
                           domain=Interval(0.0, TWO_PI))


def cubic_patch() -> SurfacePatch:
    fp = ProfilePair(f=lambda j: j, g=lambda j: -(j ** 3) / 3.0,
                     domain=Interval(0.5, 2.0))
    phi = ProfileCurvePhi(phi=lambda j: 2.0 + jets.sin(j),
                          domain=Interval(0.0, TWO_PI))
    return build_parabolic(fp, phi)


def curved_f_patch() -> SurfacePatch:
    """f = 1.5 + exp(-u), g = ln u + u^1.5, phi = 2 + 0.5 sin v.  Its
    f'' is nonzero, so a wrong f'' term in the closed forms shows; every
    other family here has a linear f."""
    fp = ProfilePair(f=lambda j: 1.5 + jets.exp(-j),
                     g=lambda j: jets.ln(j) + j ** 1.5,
                     domain=Interval(0.5, 2.0))
    phi = ProfileCurvePhi(phi=lambda j: 2.0 + 0.5 * jets.sin(j),
                          domain=Interval(0.0, TWO_PI))
    return build_parabolic(fp, phi)


class TestFlatNormalConnection:
    def test_passes_on_generic_family(self):
        patch = cubic_patch()
        grid = GridSpec.for_patch(patch, 50, 50)
        report = verify_flat_normal_connection(patch, grid)
        assert report.passed
        assert report.max_residual <= 1e-12
        assert report.samples == 2500

    def test_cone_passes(self):
        patch = mt_cone_patch(-0.5, 0.0, unit_phi())
        report = verify_flat_normal_connection(
            patch, GridSpec.for_patch(patch, 20, 20))
        assert report.passed

    def test_rejects_non_parabolic(self):
        def plane(ju: Jet2, jv: Jet2) -> Jet2Vec4:
            return Jet2Vec4(ju, jv, Jet2.constant(0.0), Jet2.constant(0.0))

        patch = SurfacePatch.of_immersion(
            plane, Rect(Interval(-0.3, 0.3), Interval(-0.5, 0.5)))
        assert patch.profiles is None
        grid = GridSpec.for_patch(patch, 5, 5)
        for check in (verify_flat_normal_connection,
                      verify_second_fundamental_form,
                      verify_closed_form_invariants, verify_case1_hyperplane,
                      verify_cone_lightlike_hyperplane):
            with pytest.raises(UsageError, match="got a generic patch"):
                check(patch, grid)
        with pytest.raises(UsageError, match="got a generic patch"):
            verify_meridian_planarity(patch, 0.0)


class TestSecondFundamentalForm:
    def test_passes(self):
        patch = cubic_patch()
        grid = GridSpec.for_patch(patch, 30, 30)
        assert verify_second_fundamental_form(patch, grid).passed

    def test_curved_f_profile(self):
        patch = curved_f_patch()
        report = verify_second_fundamental_form(
            patch, GridSpec.for_patch(patch, 30, 20))
        assert report.passed
        assert report.max_residual <= 1e-13


class TestClosedFormInvariants:
    def test_passes_on_random_families(self):
        rng = random.Random(41)
        for _ in range(3):
            patch = random_parabolic_patch(rng)
            grid = GridSpec.for_patch(patch, 15, 15)
            report = verify_closed_form_invariants(patch, grid)
            assert report.passed, report

    def test_curved_f_profile(self):
        patch = curved_f_patch()
        report = verify_closed_form_invariants(
            patch, GridSpec.for_patch(patch, 30, 20))
        assert report.passed
        assert report.max_residual <= 1e-13

    def test_cone_gauss_curvature_vanishes(self):
        # kappa_m = 0 makes K identically zero on the cone family.
        from minksurf.surface import point_data
        patch = mt_cone_patch(-0.5, 0.2, unit_phi())
        for u in (0.3, 1.0, 3.0):
            assert abs(point_data(patch, u, 1.0).K) <= 1e-13


class TestMarginallyTrapped:
    def test_general_family_passes(self):
        prof = mt_general_profile(MTFamilyParams(a=-1.0, b=0.0, c=1.0))
        patch = build_parabolic(prof, unit_phi())
        grid = GridSpec(100, 20, Interval(0.2, 3.0), Interval(0.0, TWO_PI))
        report = verify_marginally_trapped(patch, grid, tol=1e-9)
        assert report.passed
        assert report.details["min_H_norm"] > 0.1

    def test_cone_with_section_phi_passes(self):
        phi = ProfileCurvePhi(phi=lambda j: -2.0 * jets.cos(j),
                              domain=Interval(1.65, 4.63))
        patch = mt_cone_patch(-0.5, 0.0, phi)
        report = verify_marginally_trapped(
            patch, GridSpec.for_patch(patch, 30, 30), tol=1e-9)
        assert report.passed

    def test_negative_control_fails_hard(self):
        fp = ProfilePair(f=lambda j: j, g=lambda j: -j,
                         domain=Interval(0.5, 2.0))
        patch = build_parabolic(fp, unit_phi())
        report = verify_marginally_trapped(
            patch, GridSpec.for_patch(patch, 10, 10), tol=1e-9)
        assert not report.passed
        assert report.max_residual >= 1e3 * report.threshold


class TestOdeChain:
    def test_reference_parameters(self):
        report = verify_ode_chain(MTFamilyParams(a=-1.0, b=0.0, c=1.0))
        assert report.passed
        assert report.details["ode_residual"] <= 1e-9
        assert report.details["linear_residual"] <= 1e-9
        assert report.details["gprime_residual"] <= 1e-9

    def test_positive_a(self):
        report = verify_ode_chain(
            MTFamilyParams(a=2.0, b=0.0, c=1.0,
                           sign_branch=SignBranch.MINUS))
        assert report.passed

    def test_both_branches_and_signs(self):
        for a, c, branch in [(-1.0, 1.0, SignBranch.PLUS),
                             (-1.0, 1.0, SignBranch.MINUS),
                             (-1.0 / math.sqrt(2.0), 2.0, SignBranch.PLUS),
                             (-1.0 / math.sqrt(2.0), 2.0, SignBranch.MINUS),
                             (0.5, -1.0, SignBranch.MINUS)]:
            report = verify_ode_chain(MTFamilyParams(a=a, b=0.1, c=c,
                                                     sign_branch=branch))
            assert report.passed, (a, c, branch)

    def test_param_error(self):
        with pytest.raises(ParamError):
            MTFamilyParams(a=-1.0, b=0.0, c=0.0)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_gprime_fails_without_a_warning(self):
        # g' underflows to 0 at the first sample, so 1/sqrt(-2 g') is
        # inf there: the linear residual is NaN and fails the claim.
        report = verify_ode_chain(MTFamilyParams(a=-1.0, b=0.0, c=1e200))
        assert not report.passed
        assert math.isnan(report.max_residual)
        assert math.isnan(report.details["linear_residual"])
        assert report.worst_point == (0.10000099000000001, 0.0)


class TestSectionCurvature:
    def test_three_four_zero(self):
        report = verify_constant_section_curvature(3.0, 4.0, 0.0,
                                                   RootBranch.PLUS)
        assert report.passed
        assert report.details["stdev"] <= 1e-9
        assert abs(abs(report.details["mean"]) - 0.2) <= 1e-9

    def test_unit_circle(self):
        report = verify_constant_section_curvature(0.0, 0.0, -0.5,
                                                   RootBranch.PLUS)
        assert report.passed
        assert abs(report.details["mean"] + 1.0) <= 1e-12

    def test_cosine_circle(self):
        report = verify_constant_section_curvature(1.0, 0.0, 0.0,
                                                   RootBranch.MINUS)
        assert report.passed
        assert abs(report.details["mean"] + 1.0) <= 1e-10

    def test_random_sections(self):
        rng = random.Random(59)
        done = 0
        while done < 8:
            a = rng.uniform(-3, 3)
            b = rng.uniform(-3, 3)
            c = rng.uniform(-3.0, (a * a + b * b) / 2.0 - 0.2)
            if a * a + b * b - 2 * c <= 0.1:
                continue
            branch = rng.choice([RootBranch.PLUS, RootBranch.MINUS])
            report = verify_constant_section_curvature(a, b, c, branch,
                                                       samples=500)
            assert report.passed, (a, b, c, branch, report)
            done += 1


    @pytest.mark.parametrize("section", [
        (3.0, 4.0, 0.0, RootBranch.PLUS), (0.0, 0.0, -0.5, RootBranch.PLUS),
        (3.0, 0.0, 2.5, RootBranch.MINUS)])
    def test_witness_is_the_farthest_sampled_v(self, section):
        report = verify_constant_section_curvature(*section)
        phi = plane_section_phi(*section)
        vs = phi.domain.linspace(1000, inset=0.02)
        assert report.worst_point[0] == 0.0
        assert report.worst_point[1] in vs
        deviation = abs(kappa_bar(phi, np.array(vs)) - report.details["mean"])
        assert deviation[vs.index(report.worst_point[1])] == deviation.max()


class TestCase1Hyperplane:
    def secant_phi(self) -> ProfileCurvePhi:
        return ProfileCurvePhi(phi=lambda j: jets.reciprocal(jets.cos(j)),
                               domain=Interval(-1.2, 1.2))

    def secant_patch(self) -> SurfacePatch:
        fp = ProfilePair(f=lambda j: j, g=lambda j: -(j ** 3) / 3.0,
                         domain=Interval(0.5, 2.0))
        return build_parabolic(fp, self.secant_phi())

    def test_passes(self):
        grid = GridSpec(40, 40, Interval(0.55, 1.95), Interval(-1.15, 1.15))
        report = verify_case1_hyperplane(self.secant_patch(), grid, tol=1e-10)
        assert report.passed
        assert report.details["trapped_points"] == 0.0

    def test_trapped_points_fail_with_the_measured_residual(self,
                                                           monkeypatch):
        patch = self.secant_patch()
        grid = GridSpec(6, 5, Interval(0.55, 1.95), Interval(-1.15, 1.15))
        clean = verify_case1_hyperplane(patch, grid)
        assert clean.passed and not clean.failure
        assert "failure" not in clean.text_block()
        # Report every other point, in row-major order, as marginally
        # trapped, whatever the shape of the evaluated (u, v).
        monkeypatch.setattr(verify, "is_marginally_trapped",
                            lambda p: (np.arange(30) % 2 == 0).reshape(
                                np.broadcast(p.u, p.v).shape))
        report = verify_case1_hyperplane(patch, grid)
        assert not report.passed
        assert report.failure == "15 marginally trapped points"
        assert report.details["trapped_points"] == 15.0
        assert report.max_residual == clean.max_residual
        assert report.worst_point == clean.worst_point
        lines = report.text_block().splitlines()
        assert lines[1:3] == ["passed: False",
                              "failure: 15 marginally trapped points"]

    def test_guard_rejects_curved_profile(self):
        fp = ProfilePair(f=lambda j: j, g=lambda j: -j,
                         domain=Interval(0.5, 2.0))
        grid = GridSpec(5, 5, Interval(0.6, 1.9), Interval(0.1, 6.0))
        with pytest.raises(UsageError, match="curvature is not zero"):
            verify_case1_hyperplane(build_parabolic(fp, unit_phi()), grid)


    @pytest.mark.filterwarnings("error")
    def test_guard_rejects_nan_curvature(self):
        fp = ProfilePair(f=lambda j: j, g=lambda j: -j,
                         domain=Interval(0.5, 2.0))
        patch = build_parabolic(fp, nan_curvature_phi())
        with pytest.raises(UsageError) as err:
            verify_case1_hyperplane(patch, GridSpec.for_patch(patch, 3, 3))
        assert str(err.value) == ("generating-curve curvature is not zero "
                                  "(kappa=nan at v=0.01)")


class TestMeridianPlanarity:
    def test_three_families_three_sections(self):
        phi = unit_phi()
        families = [
            build_parabolic(ProfilePair(f=lambda j: j, g=lambda j: -j,
                                        domain=Interval(0.5, 2.5)), phi),
            build_parabolic(
                mt_general_profile(MTFamilyParams(a=-1.0, b=0.0, c=1.0),
                                   u_max=3.0), phi),
            mt_cone_patch(-0.5, 0.0, phi),
        ]
        for patch in families:
            for v0 in (0.3, 1.7, 4.0):
                report = verify_meridian_planarity(patch, v0, tol=1e-10)
                assert report.passed, (v0, report)

    def test_perturbed_immersion_fails(self):
        fp = ProfilePair(f=lambda j: j, g=lambda j: -j,
                         domain=Interval(0.5, 2.5))
        patch = _bent_copy(build_parabolic(fp, unit_phi()))
        report = verify_meridian_planarity(patch, 0.0, tol=1e-10)
        assert not report.passed
        assert report.max_residual >= 1e3 * report.threshold


class TestConeLightlikeHyperplane:
    def test_recorded_outcome_passes(self):
        phi = ProfileCurvePhi(phi=lambda j: -2.0 * jets.cos(j),
                              domain=Interval(1.7, 4.5))
        patch = mt_cone_patch(-0.5, 0.3, phi)
        report = verify_cone_lightlike_hyperplane(
            patch, GridSpec.for_patch(patch, 8, 12))
        assert report.passed
        assert report.details["normal_lightlike_residual"] <= 1e-12


def _bent_copy(patch: SurfacePatch) -> SurfacePatch:
    """The patch, with its profiles, bent off the meridian surface by a
    small term: a generic immersion in the canonical frame, since the
    line jets and the adapted frame no longer fit."""

    def bent(ju: Jet2, jv: Jet2) -> Jet2Vec4:
        z = immersion_of(patch)(ju, jv)
        return Jet2Vec4(z.x1, z.x2, z.x3 + 1e-3 * jets.sin(ju), z.x4)

    return replaced(SurfacePatch.of_immersion(bent, patch.domain),
                    profiles=patch.profiles)


class TestNegativeControls:
    """Each verifier fails loudly on an input engineered to violate it."""

    def test_flat_normal_connection_detects_bend(self):
        patch = _bent_copy(cubic_patch())
        report = verify_flat_normal_connection(
            patch, GridSpec.for_patch(patch, 15, 15), tol=1e-10)
        assert not report.passed
        assert report.max_residual >= 1e3 * report.threshold

    def test_closed_forms_detect_bend(self):
        bent = _bent_copy(cubic_patch())
        grid = GridSpec.for_patch(bent, 12, 12)
        report = verify_closed_form_invariants(bent, grid, tol=1e-9)
        assert not report.passed
        assert report.max_residual >= 1e3 * report.threshold
        second = verify_second_fundamental_form(bent, grid, tol=1e-10)
        assert not second.passed
        assert second.max_residual >= 1e3 * second.threshold

    def test_ode_chain_wrong_sign_region(self):
        # For these parameters the signed equation only holds where the
        # linear factor is positive, and no such u > 0 exists; the profile
        # satisfies the opposite branch instead, so the check must fail.
        report = verify_ode_chain(
            MTFamilyParams(a=0.5, b=0.0, c=-1.0,
                           sign_branch=SignBranch.PLUS))
        assert not report.passed
        assert report.max_residual >= 1e3 * report.threshold

    def test_section_constancy_against_wrong_constant(self):
        report = verify_constant_section_curvature(3.0, 4.0, 0.0,
                                                   RootBranch.PLUS)
        wrong = -report.details["expected"]
        assert abs(report.details["mean"] - wrong) >= 1e3 * report.threshold

    def test_case1_detects_curved_profile_when_guard_loosened(
            self, monkeypatch):
        phi = ProfileCurvePhi(phi=lambda j: -2.0 * jets.cos(j),
                              domain=Interval(1.7, 4.5))
        fp = ProfilePair(f=lambda j: j, g=lambda j: -j,
                         domain=Interval(0.5, 2.0))
        grid = GridSpec(10, 10, Interval(0.55, 1.95), Interval(1.75, 4.45))
        monkeypatch.setattr(verify, "CASE1_KAPPA_TOL", 10.0)
        report = verify_case1_hyperplane(build_parabolic(fp, phi), grid,
                                         tol=1e-10)
        assert not report.passed
        assert report.max_residual >= 1e3 * report.threshold

    def test_cone_hyperplane_rejects_full_rank_family(self):
        prof = mt_general_profile(MTFamilyParams(a=-1.0, b=0.0, c=1.0),
                                  u_max=3.0)
        patch = build_parabolic(prof, unit_phi())
        report = verify_cone_lightlike_hyperplane(
            patch, GridSpec.for_patch(patch, 8, 12), tol=1e-10)
        assert not report.passed
        assert report.max_residual >= 1e3 * report.threshold


class TestGridReduction:
    def test_lines_broadcast_to_the_points(self):
        grid = GridSpec(3, 4, Interval(0.1, 0.7), Interval(-1.0, 2.0))
        col, row = grid.lines()
        assert col.shape == (3, 1) and row.shape == (1, 4)
        us, vs = np.broadcast_arrays(col, row)
        assert (list(zip(us.ravel().tolist(), vs.ravel().tolist()))
                == [(u, v) for u in grid.u_range.linspace(3)
                    for v in grid.v_range.linspace(4)])

    def test_witness_of_a_column_by_row_is_row_major(self):
        col, row = np.array([[0.1], [0.2]]), np.array([[1.0, 2.0, 3.0]])
        residual = np.array([[0.0, 1e-16, 0.0], [3e-16, 0.0, 3e-16]])
        report = verify._grid_report("demo", residual, col, row, 1e-9)
        assert (report.max_residual, report.worst_point) == (3e-16,
                                                            (0.2, 1.0))
        assert report.samples == 6

    def test_certificate_evaluates_each_profile_once_per_line(self):
        # Counts evaluated values: the immersion and the adapted frame
        # share one evaluation of f and g per u line and of phi per v line.
        calls = {"f": 0, "g": 0, "phi": 0}

        def counting(name, fn):
            def wrapped(j):
                calls[name] += np.size(j.val)
                return fn(j)
            return wrapped

        fp = ProfilePair(counting("f", lambda j: j),
                         counting("g", lambda j: -(j ** 3) / 3.0),
                         Interval(0.5, 2.0))
        phi = ProfileCurvePhi(counting("phi", lambda j: 2.0 + jets.sin(j)),
                              Interval(0.0, TWO_PI))
        patch = build_parabolic(fp, phi)
        calls.update(f=0, g=0, phi=0)
        report = verify_flat_normal_connection(
            patch, GridSpec.for_patch(patch, 30, 20))
        assert report.passed and report.samples == 600
        assert calls == {"f": 30, "g": 30, "phi": 20}

    def test_inadmissible_grid_names_its_inequality(self):
        # -f'*g' > 0 fails between the 41 samples build_parabolic checks.
        patch = build_parabolic(reproducer_pair(), ProfileCurvePhi(
            lambda j: Jet2.constant(2.0), Interval(0.0, 6.283)))
        grid = GridSpec(200, 5, Interval(0.5, 2.0), Interval(0.0, 6.283))
        with pytest.raises(AdmissibilityError) as err:
            verify_flat_normal_connection(patch, grid)
        assert str(err.value) == (
            "-f'*g' > 0 violated at u = 0.5150753768844221")

    def test_first_maximum_is_the_witness(self):
        us, vs = np.arange(4.0), -np.arange(4.0)
        report = verify._grid_report("demo", np.array([1e-16, 3e-16, 0.0,
                                                       3e-16]),
                                     us, vs, 1e-9)
        assert (report.max_residual, report.worst_point) == (3e-16,
                                                            (1.0, -1.0))
        assert report.samples == 4 and report.passed

    def test_all_zero_has_no_witness(self):
        report = verify._grid_report("demo", 0.0, np.arange(3.0),
                                     np.arange(3.0), 1e-9)
        assert report.max_residual == 0.0 and report.samples == 3
        assert all(math.isnan(x) for x in report.worst_point)

    def test_nan_residual_fails(self):
        # A NaN is not "<= threshold": it must reach max_residual, with
        # the first NaN point as the witness, and fail the claim.
        us, vs = np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0, 2.0, 3.0, 4.0])
        report = verify._grid_report(
            "demo", np.array([1e-16, math.nan, 2e-16, math.nan]), us, vs,
            1e-9)
        assert math.isnan(report.max_residual)
        assert report.worst_point == (0.2, 2.0)
        assert not report.passed
        assert "max_residual: nan" in report.text_block()


class TestDeterminismAndSuite:
    def test_grid_spec_is_the_surface_grid(self):
        # GridSpec lives next to Interval and Rect; verify re-exports it.
        from minksurf import surface
        assert verify.GridSpec is surface.GridSpec

    def test_reports_are_bit_identical(self):
        patch = cubic_patch()
        grid = GridSpec.for_patch(patch, 12, 12)
        r1 = verify_closed_form_invariants(patch, grid)
        r2 = verify_closed_form_invariants(patch, grid)
        assert r1.max_residual == r2.max_residual
        assert r1.worst_point == r2.worst_point

    def test_claim_suite_all_pass(self):
        reports = claim_suite()
        assert len(reports) >= 9
        for report in reports:
            assert report.passed, report.claim_id
        ids = {r.claim_id for r in reports}
        assert {"flat-normal-connection", "second-form-degenerate",
                "closed-form-invariants", "general-family-lightlike-H",
                "cone-family-lightlike-H", "profile-ode-chain",
                "section-curvature-constant", "zero-curvature-hyperplane",
                "meridian-planarity"} <= ids

    def test_render_reports_format(self):
        reports = [VerificationReport("demo", 1e-12, 1e-9, (0.1, 0.2), 4)]
        text = render_reports(reports)
        assert "claim: demo" in text
        assert "passed: True" in text
        assert "passed 1 of 1 claims" in text
