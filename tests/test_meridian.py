import math
import random

import numpy as np
import pytest

from minksurf import jets
from minksurf.errors import (AdmissibilityError, CurvatureMismatch,
                             ParamError)
from minksurf.jets import Jet2
from minksurf.minkowski import (E1, E2, XI1, XI2, NullFrameCoords, Vec4M,
                                from_null_frame, inner, to_null_frame)
from minksurf.exporters import (BLOCK_POINTS, export_grid_csv, export_obj,
                                export_positions_csv)
from minksurf.surface import Interval, point_data, jet_eval_surface
from minksurf.verify import GridSpec
from minksurf.meridian import (MTFamilyParams, PlaneSection, ProfileCurvePhi,
                               ProfilePair, RootBranch, SignBranch,
                               build_parabolic, kappa_bar, kappa_m,
                               line_jets, meridian_plane, mt_cone_patch,
                               mt_general_gprime, mt_general_profile,
                               parabolic_closed_forms, paraboloid_point,
                               plane_section_curvature, plane_section_phi,
                               profile_u, profile_v)

from helpers import (flat_points, grid_points, immersion_of,
                     nan_curvature_phi, random_parabolic_patch)

TWO_PI = 2.0 * math.pi


def unit_phi(domain=Interval(-0.5, 6.5)) -> ProfileCurvePhi:
    return ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0), domain=domain)


def identity_pair(domain=Interval(0.5, 2.0), g_slope=-1.0) -> ProfilePair:
    return ProfilePair(f=lambda j: j, g=lambda j: g_slope * j, domain=domain)


class TestBuildParabolic:
    def test_position_in_null_frame(self):
        patch = build_parabolic(identity_pair(), unit_phi())
        z = to_null_frame(jet_eval_surface(patch, 1.0, 0.0).value())
        assert abs(z.z1 - 1.0) <= 1e-15
        assert abs(z.z2) <= 1e-15
        assert abs(z.eta1 + 0.5) <= 1e-15
        assert abs(z.eta2 - 1.0) <= 1e-15

    def test_wrong_profile_sign_rejected(self):
        with pytest.raises(AdmissibilityError) as err:
            build_parabolic(identity_pair(g_slope=+1.0), unit_phi())
        assert "-f'*g' > 0" in str(err.value)

    def test_degenerate_phi_rejected(self):
        # phi(0) = 0 with phi'(0) = 0 kills the metric at v = 0.
        phi = ProfileCurvePhi(phi=lambda j: j * j, domain=Interval(-1.0, 1.0))
        with pytest.raises(AdmissibilityError) as err:
            build_parabolic(identity_pair(), phi)
        assert "phi'^2 + phi^2 > 0" in str(err.value)
        assert err.value.variable == "v"

    def test_first_form_closed_expressions(self):
        rng = random.Random(3)
        for _ in range(4):
            patch = random_parabolic_patch(rng)
            fp, phi = patch.profiles
            for u in patch.domain.u.linspace(6, inset=0.02):
                for v in patch.domain.v.linspace(6, inset=0.02):
                    p = point_data(patch, u, v)
                    fj = profile_u(fp.f, u)
                    gj = profile_u(fp.g, u)
                    pj = profile_v(phi.phi, v)
                    e_cf = -2.0 * fj.du * gj.du
                    g_cf = fj.val ** 2 * (pj.dv ** 2 + pj.val ** 2)
                    assert abs(p.E - e_cf) <= 1e-12 * max(1.0, abs(e_cf))
                    assert abs(p.F) <= 1e-12
                    assert abs(p.G - g_cf) <= 1e-12 * max(1.0, abs(g_cf))


def _cubic_pair(k: float, c: float) -> ProfilePair:
    """f = c - (u - k)^3 / 3, so f' = -(u - k)^2 vanishes only at u = k,
    and g = u, so -f'*g' > 0 fails only there; on a domain whose 41
    samples are the integers 0 .. 40."""
    return ProfilePair(f=lambda j: c - (j - k) * (j - k) * (j - k) / 3.0,
                       g=lambda j: j, domain=Interval(0.0, 40.0))


class TestAdmissibilityOrder:
    """The profile pair is checked sample by sample, f > 0 first."""

    def test_earlier_sample_wins(self):
        # -f'*g' > 0 fails at u = 10 only; f > 0 from u = 30 on.
        with pytest.raises(AdmissibilityError) as err:
            build_parabolic(_cubic_pair(10.0, 2500.0), unit_phi())
        assert (err.value.inequality, err.value.variable,
                err.value.value) == ("-f'*g' > 0", "u", 10.0)

    def test_f_positive_is_named_when_both_fail(self):
        # f = 0 and f' = 0 at u = 30; both hold at every earlier sample.
        with pytest.raises(AdmissibilityError) as err:
            build_parabolic(_cubic_pair(30.0, 0.0), unit_phi())
        assert (err.value.inequality, err.value.variable,
                err.value.value) == ("f > 0", "u", 30.0)


def _nan_beyond(x0: float):
    """The profile j * c, with c = 1 up to x0 and NaN beyond it."""
    def profile(j: Jet2) -> Jet2:
        c = np.where(j.val > x0, math.nan, 1.0)
        return j * Jet2(c if c.ndim else float(c))
    return profile


class TestNaNFailsEveryCheck:
    """A NaN quantity fails its inequality at every site, for one point
    and at the first NaN point of an array call, as the sampled checks of
    build_parabolic always did."""

    DOMAIN = Interval(0.5, 2.0)
    NAN_G = ProfilePair(f=lambda j: j, g=lambda j: -_nan_beyond(1.0)(j),
                        domain=DOMAIN)
    NAN_PHI = ProfileCurvePhi(phi=_nan_beyond(1.0), domain=DOMAIN)
    PHI = ProfileCurvePhi(phi=lambda j: 1.0 + j * j, domain=DOMAIN)

    @pytest.mark.parametrize("at", [1.5, np.array([0.5, 1.0, 1.5, 1.75])])
    def test_each_site(self, at):
        fp = identity_pair()
        for call, inequality in (
                (lambda: kappa_m(self.NAN_G, at), "-f'*g' > 0"),
                (lambda: kappa_bar(self.NAN_PHI, at), "phi'^2 + phi^2 > 0"),
                (lambda: parabolic_closed_forms(self.NAN_G, self.PHI, at, at),
                 "-f'*g' > 0"),
                (lambda: parabolic_closed_forms(fp, self.NAN_PHI, at, at),
                 "phi'^2 + phi^2 > 0"),
                (lambda: line_jets(self.NAN_G, self.PHI, at, at),
                 "-f'*g' > 0"),
                (lambda: line_jets(fp, self.NAN_PHI, at, at),
                 "phi'^2 + phi^2 > 0")):
            with pytest.raises(AdmissibilityError) as err:
                call()
            assert (err.value.inequality, err.value.value) == (inequality, 1.5)

    def test_sampled_checks(self):
        first = next(u for u in self.DOMAIN.linspace(41) if u > 1.0)
        for fp, phi, inequality in (
                (ProfilePair(f=_nan_beyond(1.0), g=lambda j: -j,
                             domain=self.DOMAIN), self.PHI, "f > 0"),
                (self.NAN_G, self.PHI, "-f'*g' > 0"),
                (identity_pair(), self.NAN_PHI, "phi'^2 + phi^2 > 0")):
            with pytest.raises(AdmissibilityError) as err:
                build_parabolic(fp, phi)
            assert (err.value.inequality, err.value.value) == (
                inequality, first)


class TestKappaM:
    def test_straight_meridian(self):
        for slope in (-0.5, -1.0, -2.0):
            fp = ProfilePair(f=lambda j: j,
                             g=lambda j, s=slope: s * j + 0.3,
                             domain=Interval(0.5, 2.0))
            for u in (0.6, 1.0, 1.7):
                assert abs(kappa_m(fp, u)) <= 1e-15

    def test_general_family_value(self):
        prof = mt_general_profile(MTFamilyParams(a=-1.0, b=0.0, c=1.0,
                                                 sign_branch=SignBranch.PLUS))
        assert abs(kappa_m(prof, 1.0) + 1.0) <= 1e-12
        for u in (0.5, 1.5, 3.0):
            assert abs(kappa_m(prof, u) + 1.0 / u ** 2) <= 1e-12

    def test_cubic_profile(self):
        fp = ProfilePair(f=lambda j: j, g=lambda j: -(j ** 3) / 3.0,
                         domain=Interval(0.5, 2.0))
        assert abs(kappa_m(fp, 1.0) + 1.0 / math.sqrt(2.0)) <= 1e-14

    def test_inadmissible_point(self):
        fp = ProfilePair(f=lambda j: j, g=lambda j: j, domain=Interval(0.5, 2.0))
        with pytest.raises(AdmissibilityError):
            kappa_m(fp, 1.0)


class TestKappaBar:
    def test_constant_profile(self):
        phi = unit_phi()
        for v in (0.0, 1.3, 5.0):
            assert abs(kappa_bar(phi, v) + 1.0) <= 1e-14

    def test_minus_two_cos(self):
        phi = ProfileCurvePhi(phi=lambda j: -2.0 * jets.cos(j),
                              domain=Interval(math.pi / 2 + 0.05,
                                              3 * math.pi / 2 - 0.05))
        for v in phi.domain.linspace(9):
            assert abs(kappa_bar(phi, v) + 1.0) <= 1e-13

    def test_secant_is_zero_curvature(self):
        phi = ProfileCurvePhi(phi=lambda j: jets.reciprocal(jets.cos(j)),
                              domain=Interval(-1.45, 1.45))
        for v in phi.domain.linspace(21):
            assert abs(kappa_bar(phi, v)) <= 1e-11


class TestOneRouteToTheJets:
    """kappa_m, kappa_bar, the closed forms and the meridian plane take
    their jets from the checked line jets, under the rule of minkowski:
    an overflow gives inf or NaN, which a check names, with no numpy
    warning (an error here)."""

    @pytest.mark.filterwarnings("error")
    def test_closed_forms_overflow_without_a_warning(self):
        fp = ProfilePair(f=lambda j: 1e300 * j, g=lambda j: -j,
                         domain=Interval(0.5, 2.0))
        phi = ProfileCurvePhi(phi=lambda j: Jet2.constant(1e10),
                              domain=Interval(0.0, 1.0))
        cf = parabolic_closed_forms(fp, phi, 1.0, 0.5)
        assert cf.G == math.inf
        assert math.isnan(cf.M)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call,phi", [
        (kappa_bar, lambda j: 1e200 * jets.cos(j)),
        (meridian_plane, lambda j: 1e200 * jets.cos(j) + 1e200),
    ], ids=["kappa_bar", "meridian_plane"])
    def test_overflowing_phi_is_named(self, call, phi):
        with pytest.raises(AdmissibilityError) as err:
            call(ProfileCurvePhi(phi, Interval(0.0, 1.0)), 0.5)
        assert str(err.value) == "phi'^2 + phi^2 > 0 violated at v = 0.5"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda fp: kappa_m(fp, 0.5),
        lambda fp: parabolic_closed_forms(fp, unit_phi(), 0.5, 0.5),
    ], ids=["kappa_m", "closed_forms"])
    def test_f_must_be_positive(self, call):
        fp = ProfilePair(f=lambda j: j - 1.0, g=lambda j: -j,
                         domain=Interval(0.2, 2.0))
        with pytest.raises(AdmissibilityError) as err:
            call(fp)
        assert str(err.value) == "f > 0 violated at u = 0.5"


class TestNaNFailsItsBound:
    """A NaN that reaches a bound of meridian fails it, and a minksurf
    error names it; each of these passed the NaN on."""

    @pytest.mark.filterwarnings("error")
    def test_cone_curvature(self):
        phi = nan_curvature_phi()
        kb = kappa_bar(phi, np.array(phi.domain.linspace(201)))
        assert np.count_nonzero(np.isnan(kb)) == 134
        with pytest.raises(CurvatureMismatch) as err:
            mt_cone_patch(-1e10, 0.0, phi)
        assert math.isnan(err.value.max_deviation)
        assert str(err.value) == (
            "generating-curve curvature fails the cone constraint; "
            "max |kappa_bar^2 + 1/(2a)| = nan")

    def test_section_curvature_match(self):
        with pytest.raises(ParamError) as err:
            MTFamilyParams(a=math.nan, b=0.0, c=1.0,
                           section=PlaneSection(0.0, 0.0, -0.5))
        assert str(err.value) == (
            "section curvature -1.0 does not match a=nan")

    @pytest.mark.parametrize("call", [
        lambda: plane_section_curvature(math.nan, 0.0, -1.0),
        lambda: plane_section_phi(0.0, 0.0, math.nan),
        lambda: plane_section_phi(math.nan, 0.0, -1.0),
    ], ids=["curvature-A", "phi-C", "phi-A"])
    def test_section_span(self, call):
        with pytest.raises(ParamError) as err:
            call()
        assert str(err.value) == "A^2 + B^2 - 2C = nan must be > 0"

    @pytest.mark.filterwarnings("error")
    def test_overflowed_section_span_passes(self):
        # An inf span is inside its bound (hi = inf); phi's own check
        # names the overflow.
        phi = plane_section_phi(1e200, 0.0, -1.0)
        with pytest.raises(AdmissibilityError) as err:
            kappa_bar(phi, 0.5)
        assert err.value.inequality == "phi'^2 + phi^2 > 0"


class TestMtGeneralProfile:
    def test_closed_form_and_derivative(self):
        params = MTFamilyParams(a=-1.0, b=0.0, c=1.0,
                                sign_branch=SignBranch.PLUS)
        prof = mt_general_profile(params)
        gj = profile_u(prof.g, 1.0)
        expected_g = -0.5 * ((1.0 + 2.0) / 2.0 - 2.0 * math.log(2.0))
        assert abs(gj.val - expected_g) <= 1e-14
        assert abs(gj.du + 0.125) <= 1e-15
        assert abs(mt_general_gprime(params, 1.0) + 0.125) <= 1e-15

    def test_gprime_closed_form_on_domain(self):
        for a, c, branch in [(-1.0, 1.0, SignBranch.PLUS),
                             (-1.0, 1.0, SignBranch.MINUS),
                             (2.0, 1.0, SignBranch.MINUS),
                             (0.5, -1.0, SignBranch.MINUS)]:
            params = MTFamilyParams(a=a, b=0.4, c=c, sign_branch=branch)
            prof = mt_general_profile(params)
            for u in prof.domain.linspace(25, inset=0.01):
                gj = profile_u(prof.g, u)
                want = mt_general_gprime(params, u)
                assert abs(gj.du - want) <= 1e-10 * max(1.0, abs(want))

    def test_admissible_on_returned_domain(self):
        params = MTFamilyParams(a=-1.0, b=0.0, c=1.0)
        prof = mt_general_profile(params)
        build_parabolic(ProfilePair(prof.f, prof.g, Interval(0.2, 3.0)),
                        unit_phi())  # does not raise

    def test_pole_excluded(self):
        params = MTFamilyParams(a=-1.0, b=0.0, c=1.0,
                                sign_branch=SignBranch.MINUS)
        prof = mt_general_profile(params)
        assert prof.domain.hi < 1.0  # pole of (c + a u) at u = 1

    def test_param_errors(self):
        with pytest.raises(ParamError):
            MTFamilyParams(a=-1.0, b=0.0, c=0.0)
        with pytest.raises(ParamError):
            MTFamilyParams(a=0.0, b=0.0, c=1.0)

    def test_section_must_match_curvature(self):
        with pytest.raises(ParamError):
            MTFamilyParams(a=-1.0, b=0.0, c=1.0,
                           section=PlaneSection(0.0, 0.0, -1.0,
                                                 RootBranch.PLUS))
        MTFamilyParams(a=-1.0, b=0.0, c=1.0,
                       section=PlaneSection(0.0, 0.0, -0.5, RootBranch.PLUS))


class TestMtConePatch:
    def test_unit_phi_valid(self):
        patch = mt_cone_patch(-0.5, 0.0, unit_phi())
        p = point_data(patch, 2.0, 1.0)
        assert abs(p.H1 + 0.25) <= 1e-13
        assert abs(p.H2 - 0.25) <= 1e-13

    def test_cos_phi_valid(self):
        phi = ProfileCurvePhi(phi=lambda j: -2.0 * jets.cos(j),
                              domain=Interval(1.62, 4.66))
        patch = mt_cone_patch(-0.5, 0.0, phi)
        for u in (0.3, 1.0, 3.0):
            for v in (1.8, 3.1, 4.4):
                p = point_data(patch, u, v)
                assert abs(p.h_dot_h()) <= 1e-12

    def test_zero_curvature_phi_rejected(self):
        phi = ProfileCurvePhi(phi=lambda j: jets.reciprocal(jets.cos(j)),
                              domain=Interval(-1.2, 1.2))
        with pytest.raises(CurvatureMismatch) as err:
            mt_cone_patch(-0.5, 0.0, phi)
        assert err.value.max_deviation > 0.9

    def test_positive_a_rejected(self):
        with pytest.raises(ParamError):
            mt_cone_patch(0.5, 0.0, unit_phi())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_curvature_square_is_a_mismatch(self):
        # At the sample v = 1, kappa_bar = phi'' / phi^2 = 2e300, whose
        # square overflows to inf, with no numpy warning first.
        phi = ProfileCurvePhi(
            phi=lambda j: 1e-100 + 1e100 * (j - 1.0) * (j - 1.0),
            domain=Interval(0.0, 2.0))
        with pytest.raises(CurvatureMismatch) as err:
            mt_cone_patch(-0.5, 0.0, phi)
        assert err.value.max_deviation == math.inf

    def test_samples_are_checked_in_order(self):
        # phi = exp(800 v): phi'^2 overflows from v = 0.5 on, exp itself
        # only beyond v = 0.887; the first failing sample is named, with
        # no numpy warning first.
        phi = ProfileCurvePhi(phi=lambda j: jets.exp(800.0 * j),
                              domain=Interval(0.5, 2.0))
        with pytest.raises(AdmissibilityError) as err:
            mt_cone_patch(-0.5, 0.0, phi)
        assert (err.value.inequality, err.value.value) == (
            "phi'^2 + phi^2 > 0", 0.5)


class TestParaboloid:
    def test_axis_point(self):
        assert paraboloid_point(0.0, 1.234) == XI2

    def test_unit_point(self):
        z = paraboloid_point(1.0, 0.0)
        want = E1 + XI1.scale(0.5) + XI2
        for got, exp in zip(z.coords(), want.coords()):
            assert abs(got - exp) <= 1e-15
        assert abs(inner(z, z)) <= 1e-15

    def test_two_at_quarter_turn(self):
        z = paraboloid_point(2.0, math.pi / 2)
        want = E2.scale(2.0) + XI1.scale(2.0) + XI2
        for got, exp in zip(z.coords(), want.coords()):
            assert abs(got - exp) <= 4e-16 * 4
        assert abs(inner(z, z)) <= 1e-14

    def test_lightlike_everywhere(self):
        rng = random.Random(17)
        for _ in range(50):
            w1 = rng.uniform(-4.0, 4.0)
            w2 = rng.uniform(0.0, TWO_PI)
            z = paraboloid_point(w1, w2)
            assert abs(inner(z, z)) <= 1e-13 * max(1.0, w1 ** 4)


class TestPlaneSectionPhi:
    def test_constant_section(self):
        phi = plane_section_phi(0.0, 0.0, -0.5, RootBranch.PLUS)
        for v in phi.domain.linspace(7):
            assert abs(profile_v(phi.phi, v).val - 1.0) <= 1e-15

    def test_degenerate_conic_gives_circle_through_apex(self):
        phi = plane_section_phi(1.0, 0.0, 0.0, RootBranch.MINUS)
        for v in Interval(math.pi / 2 + 0.02,
                          3 * math.pi / 2 - 0.02).linspace(9):
            want = -2.0 * math.cos(v)
            assert abs(profile_v(phi.phi, v).val - want) <= 1e-14

    def test_discriminant_guard(self):
        with pytest.raises(ParamError):
            plane_section_phi(0.0, 0.0, 1.0, RootBranch.PLUS)
        with pytest.raises(ParamError):
            plane_section_curvature(0.0, 0.0, 1.0, RootBranch.PLUS)

    def test_section_equation_residual(self):
        rng = random.Random(23)
        for _ in range(40):
            a = rng.uniform(-3, 3)
            b = rng.uniform(-3, 3)
            c = rng.uniform(-3.0, (a * a + b * b) / 2.0 - 0.1)
            if a * a + b * b - 2 * c <= 0.05:
                continue
            if rng.random() < 0.2:
                c = 0.0
            branch = rng.choice([RootBranch.PLUS, RootBranch.MINUS])
            phi = plane_section_phi(a, b, c, branch)
            for v in phi.domain.linspace(50, inset=0.01):
                p = profile_v(phi.phi, v).val
                theta = a * math.cos(v) + b * math.sin(v)
                assert abs(p * p / 2.0 + theta * p + c) <= 1e-10


class TestPlaneSectionCurvature:
    def test_unit_circle_section(self):
        assert plane_section_curvature(0.0, 0.0, -0.5, RootBranch.PLUS) == -1.0

    def test_degenerate_conic(self):
        assert plane_section_curvature(1.0, 0.0, 0.0, RootBranch.MINUS) == -1.0

    def test_three_four_zero(self):
        for branch in (RootBranch.PLUS, RootBranch.MINUS):
            got = plane_section_curvature(3.0, 4.0, 0.0, branch)
            assert abs(abs(got) - 0.2) <= 1e-15

    def test_positive_branch_for_interior_plane(self):
        assert plane_section_curvature(3.0, 0.0, 2.5, RootBranch.PLUS) == 0.5
        assert plane_section_curvature(3.0, 0.0, 2.5, RootBranch.MINUS) == -0.5

    def test_matches_kappa_bar_everywhere(self):
        # The branch pairing is pinned by this agreement.
        rng = random.Random(29)
        checked = 0
        while checked < 60:
            a = rng.uniform(-3, 3)
            b = rng.uniform(-3, 3)
            c = rng.uniform(-3.0, (a * a + b * b) / 2.0 - 0.1)
            if a * a + b * b - 2 * c <= 0.05:
                continue
            if rng.random() < 0.2:
                c = 0.0
            branch = rng.choice([RootBranch.PLUS, RootBranch.MINUS])
            phi = plane_section_phi(a, b, c, branch)
            expected = plane_section_curvature(a, b, c, branch)
            for v in phi.domain.linspace(25, inset=0.02):
                assert abs(kappa_bar(phi, v) - expected) <= 1e-8
            checked += 1


class TestMeridianPlane:
    def test_spanning_pair(self):
        xi, zbar = meridian_plane(unit_phi(), 0.0)
        assert xi == XI1
        want = E1 + XI1.scale(0.5) + XI2
        for got, exp in zip(zbar.coords(), want.coords()):
            assert abs(got - exp) <= 1e-15

    def test_meridian_lies_in_plane(self):
        patch = build_parabolic(identity_pair(Interval(0.5, 2.5)), unit_phi())
        xi, zbar = meridian_plane(unit_phi(), 0.0)
        cols = [xi.coords(), zbar.coords()]
        z_ref = jet_eval_surface(patch, 1.0, 0.0).value()
        for u in (0.6, 0.9, 1.4, 1.9, 2.4):
            cols.append((jet_eval_surface(patch, u, 0.0).value()
                         - z_ref).coords())
        sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
        assert sv[2] / sv[0] <= 1e-12

    def test_tangent_minus_normal_is_null_direction(self):
        # For the meridian through v0, the Frenet pair satisfies
        # t - n = (2 g' / sqrt(-2 f' g')) xi1.
        fp = ProfilePair(f=lambda j: j, g=lambda j: -(j * j) / 2.0,
                         domain=Interval(0.5, 2.0))
        phi = ProfileCurvePhi(phi=lambda j: 2.0 + jets.cos(j),
                              domain=Interval(0.0, TWO_PI))
        patch = build_parabolic(fp, phi)
        u0, v0 = 1.2, 0.7
        p = point_data(patch, u0, v0)
        t = p.z_u.scale(1.0 / math.sqrt(p.E))
        gj = profile_u(fp.g, u0)
        c0 = profile_v(phi.phi, v0).val
        # Frenet normal of the meridian from its closed form.
        root = math.sqrt(p.E)
        n = from_null_frame(NullFrameCoords(
            c0 * math.cos(v0) / root,
            c0 * math.sin(v0) / root,
            (c0 * c0 / 2.0 - gj.du) / root,
            1.0 / root))
        diff = t - n
        expected = XI1.scale(2.0 * gj.du / root)
        for got, exp in zip(diff.coords(), expected.coords()):
            assert abs(got - exp) <= 1e-12


class TestClosedFormsAgainstEngine:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_full_agreement(self, seed):
        rng = random.Random(seed)
        patch = random_parabolic_patch(rng)
        for u in patch.domain.u.linspace(7, inset=0.03):
            for v in patch.domain.v.linspace(7, inset=0.03):
                p = point_data(patch, u, v)
                cf = parabolic_closed_forms(*patch.profiles, u, v)
                for name in ("E", "F", "G", "L", "M", "N", "k",
                             "kappa_normal", "K", "H1", "H2"):
                    a = getattr(p, name)
                    b = getattr(cf, name)
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (
                        name, u, v, a, b, seed)

    def test_decreasing_f_profile(self):
        fp = ProfilePair(f=lambda j: 2.0 - j, g=lambda j: j * j,
                         domain=Interval(0.2, 0.9))
        phi = ProfileCurvePhi(phi=lambda j: 2.0 + jets.sin(j),
                              domain=Interval(0.0, TWO_PI))
        patch = build_parabolic(fp, phi)
        p = point_data(patch, 0.5, 1.0)
        cf = parabolic_closed_forms(fp, phi, 0.5, 1.0)
        for name in ("M", "k", "K", "H1", "H2"):
            assert abs(getattr(p, name) - getattr(cf, name)) <= 1e-10


def _bits(x):
    """Every float of a PointData, Jet2Vec4 or Vec4M as exact hex bits."""
    if hasattr(type(x), "__slots__"):
        return tuple(_bits(getattr(x, name)) for name in type(x).__slots__)
    if isinstance(x, np.ndarray):
        return tuple(float(y).hex() for y in np.ravel(x))
    return float(x).hex()


def _general_family():
    params = MTFamilyParams(a=-1.0, b=0.3, c=1.0,
                            section=PlaneSection(0.0, 0.0, -0.5))
    prof = mt_general_profile(params)
    return (ProfilePair(prof.f, prof.g, Interval(0.2, 3.0)),
            ProfileCurvePhi(plane_section_phi(0.0, 0.0, -0.5).phi,
                            Interval(0.0, TWO_PI)))


class TestProfileLineMemo:
    """build_parabolic evaluates each profile once per grid line; the
    results are those of a fresh patch per point, bit for bit."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_shuffled_grid_matches_fresh_patches(self, seed):
        patch = random_parabolic_patch(random.Random(seed))
        points = grid_points(GridSpec.for_patch(patch, 6, 5))
        random.Random(seed).shuffle(points)
        for u, v in points + points[:3]:
            fresh = point_data(build_parabolic(*patch.profiles), u, v)
            assert _bits(point_data(patch, u, v)) == _bits(fresh), (u, v)

    def test_reparametrised_jet_is_not_served_a_seed_entry(self):
        fp, phi = _general_family()
        patch = build_parabolic(fp, phi)
        ju, jv = Jet2.seed_u(1.3), Jet2.seed_v(0.7)
        immersion = immersion_of(patch)
        immersion(ju, jv)
        point_data(patch, 1.3, 0.7)
        got = immersion(ju, jv * 2.0)
        want = immersion_of(build_parabolic(fp, phi))(ju, jv * 2.0)
        assert _bits(got) == _bits(want)
        assert got.x1.dv != immersion(ju, jv).x1.dv

    def test_signed_zeros_are_kept_apart(self):
        def phi_fn(jv):
            return Jet2(2.0 + np.copysign(0.5, jv.val))
        patch = build_parabolic(identity_pair(),
                                ProfileCurvePhi(phi_fn, Interval(-1.0, 1.0)))
        plus = jet_eval_surface(patch, 1.0, 0.0)
        minus = jet_eval_surface(patch, 1.0, -0.0)
        assert plus.x1.val == 2.5 and minus.x1.val == 1.5

    def test_array_point_data_is_unchanged(self):
        fp, phi = _general_family()
        patch = build_parabolic(fp, phi)
        grid = GridSpec.for_patch(patch, 5, 4)
        us, vs = flat_points(grid)
        before = _bits(point_data(patch, us, vs))
        for u, v in grid_points(grid):
            point_data(patch, u, v)
        assert _bits(point_data(patch, us, vs)) == before
        assert before == _bits(point_data(build_parabolic(fp, phi), us, vs))

    def test_export_evaluates_each_profile_once_per_line(self, tmp_path):
        # Counts evaluated values, not calls: a block of u lines is one
        # array call.  The 40 x 60 grid spans three blocks of 16 u lines.
        base_fp, base_phi = _general_family()
        calls = {"f": 0, "g": 0, "phi": 0}

        def counting(name, fn):
            def wrapped(j):
                calls[name] += np.size(j.val)
                return fn(j)
            return wrapped

        fp = ProfilePair(counting("f", base_fp.f), counting("g", base_fp.g),
                         base_fp.domain)
        phi = ProfileCurvePhi(counting("phi", base_phi.phi), base_phi.domain)
        out = str(tmp_path / "out")
        exports = [
            lambda patch, grid: export_grid_csv(patch, grid, out),
            lambda patch, grid: export_positions_csv(patch, grid, out),
            lambda patch, grid: export_obj(patch, grid, path=out)]
        assert 40 * 60 > BLOCK_POINTS > 16 * 60
        for nu, nv in ((9, 7), (40, 60)):
            for export in exports:
                calls.update(f=0, g=0, phi=0)
                patch = build_parabolic(fp, phi)
                assert calls == {"f": 41, "g": 41, "phi": 41}
                export(patch, GridSpec.for_patch(patch, nu, nv))
                assert calls == {"f": 41 + nu, "g": 41 + nu, "phi": 41 + nv}
