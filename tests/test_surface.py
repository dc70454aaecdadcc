import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import expr, jets, surface
from minksurf.errors import (AdmissibilityError, DegenerateFrame, DomainError,
                             NotSpacelike)
from minksurf.expr import compile_profile
from minksurf.exporters import export_grid
from minksurf.jets import Jet2, Jet2Vec4
from minksurf.minkowski import (E1, E2, E3, E4, ZERO, CausalCharacter,
                                NullFrameCoords, Vec4M, causal_character,
                                inner, to_null_frame)
from minksurf.surface import (GridSpec, Interval, PointData, Rect,
                              SurfacePatch, is_marginally_trapped,
                              jet_eval_surface, normal_frame, point_data,
                              point_data_from_derivatives)
from minksurf.meridian import (ClosedForms, LineJets, PlaneSection,
                               ProfileCurvePhi, ProfilePair, build_parabolic,
                               mt_cone_patch, mt_general_profile,
                               MTFamilyParams, RootBranch,
                               parabolic_closed_forms, plane_section_phi)
from minksurf.verify import VerificationReport

from fd_oracle import fd_point_data
from helpers import (flat_points, grid_points, math_rounding, nan_near,
                     random_parabolic_patch, replaced, reproducer_pair)

SQRT_HALF = math.sqrt(0.5)


def unit_phi() -> ProfileCurvePhi:
    return ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0),
                           domain=Interval(-0.5, 6.5))


def flat_pair() -> ProfilePair:
    return ProfilePair(f=lambda j: j, g=lambda j: -j, domain=Interval(0.5, 2.5))


@pytest.fixture(scope="module")
def flat_patch() -> SurfacePatch:
    return build_parabolic(flat_pair(), unit_phi())


class TestJetEvalSurface:
    def test_first_derivatives_in_null_frame(self, flat_patch):
        j = jet_eval_surface(flat_patch, 1.0, 0.0)
        zu = to_null_frame(j.d_u())
        assert abs(zu.z1 - 1.0) <= 1e-15
        assert abs(zu.z2) <= 1e-15
        assert abs(zu.eta1 + 0.5) <= 1e-15
        assert abs(zu.eta2 - 1.0) <= 1e-15
        zv = to_null_frame(j.d_v())
        assert abs(zv.z1) <= 1e-15
        assert abs(zv.z2 - 1.0) <= 1e-15
        assert abs(zv.eta1) <= 1e-15
        assert abs(zv.eta2) <= 1e-15

    def test_outside_domain(self, flat_patch):
        with pytest.raises(DomainError):
            jet_eval_surface(flat_patch, 100.0, 0.0)
        with pytest.raises(DomainError):
            jet_eval_surface(flat_patch, 1.0, 100.0)

    def test_mixed_partial_is_single_slot(self, flat_patch):
        # No dvu exists; swapping differentiation order cannot disagree.
        j = jet_eval_surface(flat_patch, 1.3, 0.4)
        assert j.d_uv() == j.d_uv()
        assert not hasattr(j, "d_vu")

    def test_second_derivatives_in_null_frame(self):
        # f = u, g = -u^3/3, phi = 2 + sin v at (1, 0): the second
        # derivatives reduce to hand-computable null-frame components.
        fp = ProfilePair(f=lambda j: j, g=lambda j: -(j ** 3) / 3.0,
                         domain=Interval(0.5, 2.0))
        phi = ProfileCurvePhi(phi=lambda j: 2.0 + jets.sin(j),
                              domain=Interval(-0.5, 6.5))
        j = jet_eval_surface(build_parabolic(fp, phi), 1.0, 0.0)
        for got, want in zip(
                (to_null_frame(j.d_uu()), to_null_frame(j.d_uv()),
                 to_null_frame(j.d_vv())),
                ((0.0, 0.0, -2.0, 0.0),      # g'' xi1
                 (1.0, 2.0, 2.0, 0.0),       # f'(phi' c - phi s), ...
                 (-2.0, 2.0, 1.0, 0.0))):    # f((phi''-phi)c - 2 phi' s), ...
            coords = (got.z1, got.z2, got.eta1, got.eta2)
            for a, b in zip(coords, want):
                assert abs(a - b) <= 1e-14


class TestPointDataCanonicalValues:
    def test_first_fundamental_form(self, flat_patch):
        p = point_data(flat_patch, 1.0, 0.0)
        assert abs(p.E - 2.0) <= 1e-14
        assert abs(p.F) <= 1e-14
        assert abs(p.G - 1.0) <= 1e-14

    def test_second_form_vanishes(self, flat_patch):
        p = point_data(flat_patch, 1.0, 0.0)
        assert max(abs(p.L), abs(p.M), abs(p.N)) <= 1e-14

    def test_flat_normal_connection(self, flat_patch):
        p = point_data(flat_patch, 1.0, 0.0)
        assert abs(p.kappa_normal) <= 1e-14

    def test_mean_curvature_components(self, flat_patch):
        # In the family frame: H1 = kappa_bar/(2f) = -1/2 and
        # H2 = (kappa_m + 1/(f sqrt(2)))/2 = +1/(2 sqrt(2)).  The
        # self inner product 1/8 does not depend on the frame.
        p = point_data(flat_patch, 1.0, 0.0)
        assert abs(p.H1 + 0.5) <= 1e-14
        assert abs(p.H2 - 0.5 * SQRT_HALF) <= 1e-14
        assert abs(inner(p.H, p.H) - 0.125) <= 1e-14
        assert abs(p.h_dot_h() - 0.125) <= 1e-14

    def test_h_decomposes_in_frame(self, flat_patch):
        p = point_data(flat_patch, 1.4, 2.0)
        recomposed = p.n1.scale(p.H1) + p.n2.scale(p.H2)
        for got, want in zip(recomposed.coords(), p.H.coords()):
            assert abs(got - want) <= 1e-12

    def test_frame_gram_and_conventions(self, flat_patch):
        p = point_data(flat_patch, 1.0, 0.0)
        assert abs(inner(p.n1, p.n1) - 1.0) <= 1e-12
        assert abs(inner(p.n2, p.n2) + 1.0) <= 1e-12
        assert abs(inner(p.n1, p.n2)) <= 1e-12
        for n in (p.n1, p.n2):
            assert abs(inner(n, p.z_u)) <= 1e-12
            assert abs(inner(n, p.z_v)) <= 1e-12
        assert inner(p.n2, E4) < 0.0

    def test_positive_orientation(self, flat_patch):
        # Family frame and canonical frame both orient the quadruple
        # positively, including on decreasing-f profiles.
        def det(p):
            return np.linalg.det(np.array(
                [p.z_u.coords(), p.z_v.coords(), p.n1.coords(), p.n2.coords()]))

        assert det(point_data(flat_patch, 1.3, 0.7)) > 0.0
        bare = SurfacePatch(immersion=flat_patch.immersion,
                            domain=flat_patch.domain)
        assert det(point_data(bare, 1.3, 0.7)) > 0.0
        fp = ProfilePair(f=lambda j: 2.0 - j, g=lambda j: j * j,
                         domain=Interval(0.2, 0.9))
        phi = ProfileCurvePhi(phi=lambda j: 2.0 + jets.sin(j),
                              domain=Interval(0.0, 6.2))
        assert det(point_data(build_parabolic(fp, phi), 0.5, 1.0)) > 0.0


class TestNormalFrame:
    def test_coordinate_plane(self):
        n1, n2 = normal_frame(E1, E2)
        assert n1 == E3
        assert n2 == E4

    def test_matches_family_frame_plane(self, flat_patch):
        # The canonical frame spans the same normal plane as the
        # family-adapted one: projecting each leg onto the other pair
        # leaves no residual.
        p = point_data(flat_patch, 1.0, 0.0)
        m1, m2 = normal_frame(p.z_u, p.z_v)
        for m in (m1, m2):
            # expand m = <m,n1> n1 - <m,n2> n2 within the normal plane
            residual = m - p.n1.scale(inner(m, p.n1)) + p.n2.scale(inner(m, p.n2))
            assert residual.euclidean_norm() <= 1e-12, m

    def test_gram_matrix_generic(self):
        # z_v scaled over twelve decades: the residuals are relative to
        # |z_u| and |z_v|, so the tolerances need no rescaling.
        rng = random.Random(7)
        checked = 0
        for _ in range(400):
            zu = Vec4M(rng.uniform(0.5, 2), rng.uniform(-1, 1),
                       rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
            zv = Vec4M(rng.uniform(-1, 1), rng.uniform(0.5, 2),
                       rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)
                       ).scale(10.0 ** rng.uniform(-6, 6))
            e = inner(zu, zu)
            if e <= 0 or e * inner(zv, zv) - inner(zu, zv) ** 2 <= 0:
                continue
            checked += 1
            n1, n2 = normal_frame(zu, zv)
            assert abs(inner(n1, n1) - 1.0) <= 1e-12
            assert abs(inner(n2, n2) + 1.0) <= 1e-12
            assert abs(inner(n1, n2)) <= 1e-12
            assert inner(n2, E4) < 0
            for n in (n1, n2):
                assert abs(inner(n, zu)) <= 1e-12 * zu.euclidean_norm()
                assert abs(inner(n, zv)) <= 1e-12 * zv.euclidean_norm()
            assert np.linalg.det(np.array(
                [zu.coords(), zv.coords(), n1.coords(), n2.coords()])) > 0.0
        assert checked >= 300

    def test_rejects_non_spacelike(self):
        with pytest.raises(NotSpacelike):
            normal_frame(E1, E4)


class TestMarginallyTrapped:
    def test_cone_point_is_trapped(self):
        patch = mt_cone_patch(-0.5, 0.0, unit_phi())
        p = point_data(patch, 2.0, 1.0)
        assert abs(p.H1 + 0.25) <= 1e-13
        assert abs(p.H2 - 0.25) <= 1e-13
        assert abs(inner(p.H, p.H)) <= 1e-14
        assert is_marginally_trapped(p)

    def test_flat_family_is_not(self, flat_patch):
        for (u, v) in ((0.7, 0.3), (1.0, 0.0), (2.2, 5.0)):
            p = point_data(flat_patch, u, v)
            assert not is_marginally_trapped(p)

    @pytest.mark.parametrize("s", [1.0, 1e-6], ids=["unit", "micro"])
    def test_zero_h_is_not(self, s):
        # f = u, g = -u^3/3 with a zero-curvature profile has H == 0;
        # scaling f and g by s scales the whole immersion by s.
        fp = ProfilePair(f=lambda j: s * j, g=lambda j: -(s * (j * j * j)) / 3.0,
                         domain=Interval(0.5, 2.0))
        phi = ProfileCurvePhi(phi=lambda j: jets.reciprocal(jets.cos(j)),
                              domain=Interval(-1.2, 1.2))
        p = point_data(build_parabolic(fp, phi), 1.1, 0.4)
        assert p.H.euclidean_norm() <= 1e-13
        assert causal_character(p.H) is CausalCharacter.ZERO
        assert not is_marginally_trapped(p)


class TestSecondFormAtPoint:
    """L, M, N and the sign of k = LN - M^2 at characteristic points."""

    def test_cone_is_flat_points(self):
        patch = mt_cone_patch(-0.5, 0.0, unit_phi())
        p = point_data(patch, 2.0, 1.0)
        assert max(abs(p.L), abs(p.M), abs(p.N)) <= 1e-10

    def test_general_family_negative_k(self):
        prof = mt_general_profile(MTFamilyParams(a=-1.0, b=0.0, c=1.0))
        patch = build_parabolic(prof, unit_phi())
        p = point_data(patch, 1.0, 0.3)
        assert max(abs(p.L), abs(p.M), abs(p.N)) > 1e-10
        assert p.k < -1e-10

    def test_saddle_positive_k(self):
        # Two independent saddle graphs along e3 and e4 make the normal
        # image genuinely two-dimensional with L*N - M^2 > 0.  (A sphere
        # inside a spacelike hyperplane would not do: its normal image is
        # one-dimensional, so L = M = N = 0 at every point.)
        def saddle(ju: Jet2, jv: Jet2) -> Jet2Vec4:
            return Jet2Vec4(ju, jv, (ju * ju - jv * jv) * 0.5,
                            (0.6 * ju) * jv)

        patch = SurfacePatch(immersion=saddle,
                             domain=Rect(Interval(-0.4, 0.4),
                                         Interval(-0.4, 0.4)))
        p = point_data(patch, 0.0, 0.0)
        assert p.k > 1e-10

    def test_ridge_zero_k(self):
        # One nonzero column in the normal coefficients gives
        # L != 0, M = N = 0, hence k = 0 where the form does not vanish.
        def ridge(ju: Jet2, jv: Jet2) -> Jet2Vec4:
            return Jet2Vec4(ju, jv, (ju * ju) * 0.5, (0.5 * ju) * jv)

        patch = SurfacePatch(immersion=ridge,
                             domain=Rect(Interval(-0.4, 0.4),
                                         Interval(-0.4, 0.4)))
        p = point_data(patch, 0.0, 0.0)
        assert max(abs(p.L), abs(p.M), abs(p.N)) > 1e-10
        assert abs(p.k) <= 1e-12

    def test_hyperplane_sphere_is_flat(self):
        # Supporting check for the comment on the saddle.
        def sphere(ju: Jet2, jv: Jet2) -> Jet2Vec4:
            return Jet2Vec4(jets.cos(ju) * jets.cos(jv),
                            jets.cos(ju) * jets.sin(jv),
                            jets.sin(ju), Jet2.constant(0.0))

        patch = SurfacePatch(immersion=sphere,
                             domain=Rect(Interval(-0.5, 0.5),
                                         Interval(-0.5, 0.5)))
        p = point_data(patch, 0.1, 0.2)
        assert max(abs(p.L), abs(p.M), abs(p.N)) <= 1e-12


class TestFrameIndependence:
    @pytest.mark.parametrize("flip1,flip2", [(-1, 1), (1, -1), (-1, -1)])
    def test_flips(self, flat_patch, flip1, flip2):
        fp = ProfilePair(f=lambda j: j, g=lambda j: -(j * j) / 2.0,
                         domain=Interval(0.5, 2.0))
        phi = ProfileCurvePhi(phi=lambda j: 2.0 + jets.sin(j),
                              domain=Interval(0.0, 6.2))
        patch = build_parabolic(fp, phi)
        base = point_data(patch, 1.2, 0.8)
        pair = (base.n1.scale(flip1), base.n2.scale(flip2))
        flipped = point_data(replaced(patch, frame=lambda lines: pair), 1.2, 0.8)
        odd = flip1 * flip2 < 0
        assert abs(base.k - flipped.k) <= 1e-12
        assert abs(base.K - flipped.K) <= 1e-12
        for a, b in zip(base.H.coords(), flipped.H.coords()):
            assert abs(a - b) <= 1e-12
        assert abs(base.h_dot_h() - flipped.h_dot_h()) <= 1e-12
        sign = -1.0 if odd else 1.0
        assert abs(base.kappa_normal - sign * flipped.kappa_normal) <= 1e-12
        # L, M, N flip together with the n1 factor of the pair.
        assert abs(base.L - flip1 * flip2 * flipped.L) <= 1e-12
        assert abs(base.M - flip1 * flip2 * flipped.M) <= 1e-12
        assert abs(base.N - flip1 * flip2 * flipped.N) <= 1e-12
        assert abs(base.H1 - flip1 * flipped.H1) <= 1e-12
        assert abs(base.H2 - flip2 * flipped.H2) <= 1e-12

    def test_invalid_frame_rejected(self, flat_patch):
        with pytest.raises(DegenerateFrame):
            point_data(replaced(flat_patch, frame=lambda lines: (E1, E4)),
                       1.0, 0.0)
        j = jet_eval_surface(flat_patch, 1.0, 0.0)
        with pytest.raises(DegenerateFrame):
            point_data_from_derivatives(1.0, 0.0, j.value(), j.d_u(), j.d_v(),
                                        j.d_uu(), j.d_uv(), j.d_vv(),
                                        frame=(E1, E4))


class TestReparametrization:
    def test_v_rescaling_preserves_invariants(self):
        fp = ProfilePair(f=lambda j: j, g=lambda j: -(j * j) / 2.0,
                         domain=Interval(0.5, 2.0))
        phi = ProfileCurvePhi(phi=lambda j: 2.0 + jets.cos(j),
                              domain=Interval(0.0, 6.2))
        patch = build_parabolic(fp, phi)
        base = SurfacePatch(immersion=patch.immersion, domain=patch.domain)

        def stretched(ju: Jet2, jv: Jet2) -> Jet2Vec4:
            return patch.immersion(ju, jv * 2.0)

        half_domain = Rect(patch.domain.u, Interval(0.0, 3.1))
        again = SurfacePatch(immersion=stretched, domain=half_domain)
        p0 = point_data(base, 1.3, 1.6)
        p1 = point_data(again, 1.3, 0.8)
        assert abs(p0.k - p1.k) <= 1e-10
        assert abs(p0.K - p1.K) <= 1e-10
        assert abs(p0.kappa_normal - p1.kappa_normal) <= 1e-10
        for a, b in zip(p0.H.coords(), p1.H.coords()):
            assert abs(a - b) <= 1e-10
        # while the parametrization-dependent data really changed:
        assert abs(p0.G - p1.G) > 1e-3


class TestHalfTraceProperty:
    def test_h_is_half_trace_of_sigma(self):
        rng = random.Random(11)
        for _ in range(5):
            patch = random_parabolic_patch(rng)
            u = 0.5 * (patch.domain.u.lo + patch.domain.u.hi)
            v = 0.4 * (patch.domain.v.lo + patch.domain.v.hi)
            p = point_data(patch, u, v)

            def sigma(alpha, beta):
                c1 = (alpha * alpha * p.c11_1 + 2 * alpha * beta * p.c12_1
                      + beta * beta * p.c22_1)
                c2 = (alpha * alpha * p.c11_2 + 2 * alpha * beta * p.c12_2
                      + beta * beta * p.c22_2)
                return p.n1.scale(c1) - p.n2.scale(c2)

            ax = 1.0 / math.sqrt(p.E)
            beta_y = math.sqrt(p.E / (p.E * p.G - p.F * p.F))
            alpha_y = -p.F / p.E * beta_y
            sxx = sigma(ax, 0.0)
            syy = sigma(alpha_y, beta_y)
            half_trace = (sxx + syy).scale(0.5)
            for got, want in zip(half_trace.coords(), p.H.coords()):
                assert abs(got - want) <= 1e-12

    def test_sigma_xy_vanishes_for_parabolic(self):
        rng = random.Random(13)
        for _ in range(5):
            patch = random_parabolic_patch(rng)
            for u in patch.domain.u.linspace(5, inset=0.05):
                for v in patch.domain.v.linspace(5, inset=0.05):
                    p = point_data(patch, u, v)
                    beta_y = math.sqrt(p.E / (p.E * p.G - p.F * p.F))
                    alpha_y = -p.F / p.E * beta_y
                    ax = 1.0 / math.sqrt(p.E)
                    c1 = ax * (alpha_y * p.c11_1 + beta_y * p.c12_1)
                    c2 = ax * (alpha_y * p.c11_2 + beta_y * p.c12_2)
                    sxy = p.n1.scale(c1) - p.n2.scale(c2)
                    assert sxy.euclidean_norm() <= 1e-11


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("pure", [False, True])
    def test_agrees_with_jets(self, pure):
        rng = random.Random(5)
        for _ in range(3):
            patch = random_parabolic_patch(rng)
            u = 0.5 * (patch.domain.u.lo + patch.domain.u.hi)
            v = 0.45 * (patch.domain.v.lo + patch.domain.v.hi)
            jet_p = point_data(patch, u, v)
            # The oracle has no family frame: compare frame-free data and
            # frame data computed by the same canonical construction.
            base = SurfacePatch(immersion=patch.immersion, domain=patch.domain)
            jet_c = point_data(base, u, v)
            fd_c = fd_point_data(base, u, v, pure=pure)
            for name in ("E", "F", "G", "L", "M", "N", "k",
                         "kappa_normal", "K", "H1", "H2"):
                a = getattr(jet_c, name)
                b = getattr(fd_c, name)
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), (name, a, b)
            assert abs(jet_p.k - jet_c.k) <= 1e-12


class TestNotSpacelike:
    def test_timelike_direction_rejected(self):
        def bad(ju: Jet2, jv: Jet2) -> Jet2Vec4:
            return Jet2Vec4(ju, jv * 0.1, Jet2.constant(0.0), jv)

        patch = SurfacePatch(immersion=bad,
                             domain=Rect(Interval(-1, 1), Interval(-1, 1)))
        with pytest.raises(NotSpacelike):
            point_data(patch, 0.0, 0.0)


def _tilted_patch_and_grid():
    """z = (u, v, 0, u v), a generic patch whose tangent plane is
    spacelike only where EG - F^2 = 1 - u^2 - v^2 > 0."""
    def immersion(ju: Jet2, jv: Jet2) -> Jet2Vec4:
        return Jet2Vec4(ju, jv, Jet2.constant(0.0), ju * jv)

    patch = SurfacePatch(immersion, Rect(Interval(0.0, 1.0),
                                         Interval(0.0, 1.0)))
    return patch, GridSpec(5, 4, Interval(0.1, 0.9), Interval(0.1, 0.9))


def _stack(*vectors: Vec4M) -> Vec4M:
    """One Vec4M of arrays holding the given vectors as its points."""
    return Vec4M(*(np.array(c) for c in zip(*(v.coords() for v in vectors))))


class TestErrorsCarryTheirPoint:
    """NotSpacelike and DegenerateFrame carry the point and the quantity
    that failed, from a one-point call and from the first failing point of
    an array call; the messages are unchanged."""

    def test_not_spacelike_point(self):
        patch, grid = _tilted_patch_and_grid()
        u0, v0 = next((u, v) for u, v in grid_points(grid)
                      if u * u + v * v > 1)
        with pytest.raises(NotSpacelike) as one:
            point_data(patch, u0, v0)
        with pytest.raises(NotSpacelike) as many:
            point_data(patch, *flat_points(grid))
        for err in (one.value, many.value):
            assert (err.u, err.v) == (u0, v0)
            assert err.E == one.value.E and err.det == one.value.det
            assert err.E <= 0.0 or err.det <= 0.0
            assert str(err) == (
                f"not spacelike at (u,v)=({err.u!r},{err.v!r}): "
                f"E={err.E!r}, EG-F^2={err.det!r}")
        assert type(many.value.u) is float and type(many.value.E) is float

    def test_not_spacelike_tangent_plane_has_no_point(self):
        z_u = Vec4M(np.array([1.0, 1.0, 0.0]), 0.0, 0.0, 0.0)
        z_v = Vec4M(np.array([0.0, 0.0, 1.0]), 1.0, 0.0,
                    np.array([0.0, 2.0, 0.0]))
        with pytest.raises(NotSpacelike) as err:
            normal_frame(z_u, z_v)
        assert (err.value.u, err.value.v) == (None, None)
        # The second pair is the first to fail: E = 1, EG - F^2 = -3.
        assert (err.value.E, err.value.det) == (1.0, -3.0)
        assert str(err.value) == (
            "tangent plane not spacelike: E=1.0, EG-F^2=-3.0")

    @pytest.mark.parametrize("z_u,z_v,want", [
        # E = inf - inf and EG - F^2 with it are NaN.
        (Vec4M(1e200, 0.0, 0.0, 1e200), E2, "E=nan, EG-F^2=nan"),
        (E1.scale(1e200), E2, "E=inf, EG-F^2=inf"),
        # A finite E = 1e308 whose EG - F^2 overflows.
        (E1.scale(1e154), E2.scale(1e154), "E=1e+308, EG-F^2=inf"),
    ], ids=["nan", "inf", "det-inf"])
    def test_non_finite_metric_is_not_spacelike(self, z_u, z_v, want):
        # Each overflowing plane is the second of three points of an
        # array call, between two spacelike planes.  The guard names it
        # without a numpy warning first (an error under -W error).
        us = np.array([0.1, 0.5, 0.9])
        zs_u, zs_v = _stack(E1, z_u, E1), _stack(E2, z_v, E2)
        calls = [
            (lambda: normal_frame(z_u, z_v),
             lambda: normal_frame(zs_u, zs_v),
             "tangent plane not spacelike: "),
            (lambda: point_data_from_derivatives(
                0.5, 0.0, ZERO, z_u, z_v, ZERO, ZERO, ZERO),
             lambda: point_data_from_derivatives(
                 us, 0.0 * us, ZERO, zs_u, zs_v, ZERO, ZERO, ZERO),
             "not spacelike at (u,v)=(0.5,0.0): "),
        ]
        for one_call, array_call, head in calls:
            with pytest.raises(NotSpacelike) as one:
                one_call()
            with pytest.raises(NotSpacelike) as many:
                array_call()
            assert str(one.value) == str(many.value) == head + want

    def test_no_timelike_normal_quantity(self, monkeypatch):
        # <nu, nu> <= -1 for every spacelike plane, so only a tolerance
        # above 1 reaches this check.
        monkeypatch.setattr(surface, "NORMAL_TOL", 2.0)
        with pytest.raises(DegenerateFrame) as err:
            normal_frame(E1, E2)
        assert err.value.quantity == -1.0
        assert str(err.value) == (
            "normal space contains no timelike direction (<nu,nu>=-1.0)")

    def test_no_spacelike_normal_quantity(self, monkeypatch):
        # <x, x> = EG - F^2 > 0 for every spacelike plane, so only a
        # broken cross product reaches this check: here one that adds
        # (d1, 0, 0, d4) to x.
        cross = surface._cross
        d1 = d4 = 0.0

        def broken(a, b, c):
            x = cross(a, b, c)
            return Vec4M(x.x1 + d1, x.x2, x.x3, x.x4 + d4)

        monkeypatch.setattr(surface, "_cross", broken)
        # x = -2 e3 at the second point, so <x, x> = 4 - 9 there.
        d4 = np.array([0.0, 3.0, 0.0])
        with pytest.raises(DegenerateFrame) as many:
            normal_frame(_stack(E1, E1.scale(2.0), E1), _stack(E2, E2, E2))
        assert many.value.quantity == -5.0
        # <x, x> = inf - inf is NaN, which fails too.
        d1 = d4 = 1e200
        with pytest.raises(DegenerateFrame) as one:
            normal_frame(E1, E2)
        assert math.isnan(one.value.quantity)
        assert str(many.value) == str(one.value) == (
            "no spacelike normal direction found")

    def test_supplied_frame_residual(self, flat_patch):
        # The canonical frame at v = 0.5 is valid there and not at v = 1.5.
        j = jet_eval_surface(flat_patch, 1.0, 0.5)
        frame = normal_frame(j.d_u(), j.d_v())
        fixed = replaced(flat_patch, frame=lambda lines: frame)
        us = np.full(3, 1.0)
        vs = np.array([0.5, 1.5, 2.5])
        point_data(fixed, 1.0, 0.5)
        with pytest.raises(DegenerateFrame) as one:
            point_data(fixed, 1.0, 1.5)
        with pytest.raises(DegenerateFrame) as many:
            point_data(fixed, us, vs)
        assert one.value.quantity > surface.FRAME_TOL
        assert many.value.quantity == one.value.quantity
        assert str(many.value) == str(one.value) == (
            "supplied frame is not orthonormal-normal (residual "
            f"{one.value.quantity:.3e})")


class TestValueTypes:
    """The engine's value types are plain slotted classes: no per-instance
    __dict__, and no dataclass."""

    def test_slotted(self, flat_patch):
        jet = Jet2.seed_u(1.0)
        instances = (jet, Jet2Vec4(jet, jet, jet, jet), E1,
                     NullFrameCoords(1.0, 2.0, 3.0, 4.0),
                     point_data(flat_patch, 1.2, 0.7))
        for obj, cls in zip(instances, (Jet2, Jet2Vec4, Vec4M,
                                        NullFrameCoords, PointData)):
            assert type(obj) is cls
            assert "__slots__" in vars(cls), cls.__name__
            assert not hasattr(obj, "__dict__"), cls.__name__
        for cls in (Interval, Rect, GridSpec, SurfacePatch, ProfilePair,
                    ProfileCurvePhi, LineJets, ClosedForms, PlaneSection,
                    MTFamilyParams, VerificationReport, expr._Token):
            assert "__slots__" in vars(cls), cls.__name__
            assert not hasattr(cls, "__dataclass_fields__"), cls.__name__

    def test_read_only_where_the_constructor_checks(self):
        section = PlaneSection(0.0, 0.0, -0.5)
        for obj, name in ((Interval(0.0, 1.0), "lo"),
                          (GridSpec(2, 2, Interval(0.0, 1.0),
                                    Interval(0.0, 1.0)), "u_samples"),
                          (section, "C"),
                          (MTFamilyParams(-1.0, 0.0, 1.0, section=section),
                           "a")):
            with pytest.raises(AttributeError, match=f"field '{name}'"):
                setattr(obj, name, 2.0)
            with pytest.raises(AttributeError, match=f"field '{name}'"):
                delattr(obj, name)

    def test_vectors_compare_by_coordinates(self):
        assert Vec4M(0.0, 0.0, 0.0, 1.0) == E4
        assert Vec4M(0.0, 0.0, 0.0, 2.0) != E4
        assert E4 != (0.0, 0.0, 0.0, 1.0)
        with pytest.raises(TypeError):
            hash(E4)


# ---------------------------------------------------------------------------
# the engine on arrays of points
# ---------------------------------------------------------------------------

def _claim_suite_grids():
    """The claim suite's generic 50x50 and general-family 100x20 grids."""
    two_pi = 2.0 * math.pi
    generic_fp = ProfilePair(f=lambda j: j, g=lambda j: -(j * j) * 0.5,
                             domain=Interval(0.5, 2.0))
    generic_phi = ProfileCurvePhi(phi=lambda j: 2.0 + jets.cos(j),
                                  domain=Interval(0.0, two_pi))
    generic = build_parabolic(generic_fp, generic_phi)
    general_fp = mt_general_profile(MTFamilyParams(a=-1.0, b=0.0, c=1.0))
    general_phi = ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0),
                                  domain=Interval(0.0, two_pi))
    return [
        (generic_fp, generic_phi, generic,
         GridSpec.for_patch(generic, 50, 50)),
        (general_fp, general_phi, build_parabolic(general_fp, general_phi),
         GridSpec(100, 20, Interval(0.2, 3.0), Interval(0.0, two_pi))),
    ]


def _closed_form_cases():
    """(fp, phi, grid) of the claim suite's two grids, and the generic
    pair with the section A=3, B=4, C=1, root minus at 50 samples of v:
    there numpy's ** on an array rounds kappa_bar's (phi'^2 + phi^2)^1.5
    unlike float ** at some samples (7 on x86-64 with numpy 2.4)."""
    cases = [(fp, phi, grid) for fp, phi, _, grid in _claim_suite_grids()]
    fp = cases[0][0]
    phi = plane_section_phi(3.0, 4.0, 1.0, RootBranch.MINUS)
    return cases + [(fp, phi, GridSpec(2, 50, fp.domain, phi.domain))]


def _field_arrays(record, n) -> dict[str, np.ndarray]:
    """Every scalar of a PointData, ClosedForms or Jet2Vec4, broadcast to
    n points (or to a block shape) and flattened; vectors contribute their
    four coordinates and jets their six slots."""
    out = {}
    for name in type(record).__slots__:
        value = getattr(record, name)
        if isinstance(value, Vec4M):
            parts = value.coords()
        elif isinstance(value, Jet2):
            parts = (value.val, value.du, value.dv, value.duu, value.duv,
                     value.dvv)
        else:
            parts = (value,)
        for i, x in enumerate(parts):
            out[f"{name}[{i}]"] = np.broadcast_to(
                np.asarray(x, float), n).reshape(-1)
    return out


# Positive and increasing for u > 0, and so is each outer function of a
# positive increasing argument: sums of them with positive coefficients
# make admissible profiles f, g of either monotonicity.
_U_TERMS = ["u", "u^2", "u^1.5", "sqrt(u)", "exp(u/2)", "ln(1 + u)",
            "(u + 0.5*sin(u))"]
_U_OUTER = ["{}", "exp(({})/3)", "ln(1 + {})", "sqrt({})", "({})^3",
            "({})^1.25"]
# In [-1, 1], and positive functions of an argument in [-1, 1].
_V_TERMS = ["sin(v)", "cos(v)", "sin(2*v)", "cos(v)^3", "sin(v)*cos(v)"]
_V_OUTER = ["2 + {}", "exp({})", "sqrt(2 + {})", "(1.5 + {})^2.5",
            "ln(3 + {})"]
_COEF = st.integers(1, 30).map(lambda n: n / 10)


@st.composite
def _expression_profiles(draw):
    def u_sum(terms):
        return " + ".join(
            f"{draw(_COEF)!r}*{draw(st.sampled_from(_U_OUTER)).format(t)}"
            for t in terms)

    u_terms = st.lists(st.sampled_from(_U_TERMS), min_size=1, max_size=2)
    f_sum, g_sum = u_sum(draw(u_terms)), u_sum(draw(u_terms))
    if draw(st.booleans()):       # f increasing, g decreasing
        f, g = f"{draw(_COEF)!r} + {f_sum}", f"-({g_sum})"
    else:                         # f decreasing, g increasing
        f, g = f"{draw(_COEF)!r} + 1/({f_sum})", g_sum
    amp = draw(st.integers(1, 9)) / 10
    phi = draw(st.sampled_from(_V_OUTER)).format(
        f"{amp!r}*{draw(st.sampled_from(_V_TERMS))}")
    return f, g, phi


def _first_error(fn, points):
    """The (type, message) the first failing per-point call raises."""
    for u, v in points:
        try:
            fn(u, v)
        except Exception as exc:
            return type(exc), str(exc)
    raise AssertionError("no point fails")


def _assert_splits_agree(evaluate, grid):
    """``evaluate(u, v)`` on a whole grid, its (nu, 1) column of u by its
    (1, nv) row of v, equals it on each u line and, along the first u
    line and the first v line, at one float point at a time, bit for bit;
    the split calls round each element with ``math``
    (:func:`helpers.math_rounding`)."""
    us, vs = grid.lines()
    nu, nv = us.size, vs.size
    whole = _field_arrays(evaluate(us, vs), (nu, nv))
    u0, v0 = us[0, 0].item(), vs[0, 0].item()
    with math_rounding():
        lines = [_field_arrays(evaluate(u, vs), (1, nv)) for u in us]
        along_v = [_field_arrays(evaluate(u0, v), 1) for v in vs.flat]
        along_u = [_field_arrays(evaluate(u, v0), 1) for u in us.flat]
    for name, got in whole.items():
        # tobytes: equal bits, so 0.0 and -0.0 differ too
        for want, where in ((lines, slice(None)), (along_v, slice(0, nv)),
                            (along_u, slice(0, None, nv))):
            want = np.concatenate([split[name] for split in want])
            assert got[where].tobytes() == want.tobytes(), name


class TestArrayEngine:
    """One array call computes every point at once, with the bits of any
    split of it into smaller calls."""

    @pytest.mark.parametrize("case", [0, 1], ids=["generic", "general"])
    def test_point_data_is_bit_identical(self, case):
        _, _, patch, grid = _claim_suite_grids()[case]
        _assert_splits_agree(lambda u, v: point_data(patch, u, v), grid)

    @pytest.mark.parametrize("case", [0, 1, 2],
                             ids=["generic", "general", "section"])
    def test_closed_forms_agree(self, case):
        fp, phi, grid = _closed_form_cases()[case]
        _assert_splits_agree(
            lambda u, v: parabolic_closed_forms(fp, phi, u, v), grid)

    @given(profiles=_expression_profiles())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_expression_profiles_on_a_block(self, profiles):
        # A (k, 1) column of u by a (1, n) row of v, as the exporters call
        # the engine, against its splits: equal bits, over profiles with
        # sin, cos, exp, ln, sqrt, integer and real powers.
        f, g, phi = profiles
        grid = GridSpec(4, 3, Interval(0.5, 2.0), Interval(0.0, 6.283))
        patch = build_parabolic(
            ProfilePair(compile_profile(f, "u"), compile_profile(g, "u"),
                        grid.u_range),
            ProfileCurvePhi(compile_profile(phi, "v"), grid.v_range))
        for engine in (point_data, jet_eval_surface):
            _assert_splits_agree(lambda u, v: engine(patch, u, v), grid)

    def test_non_spacelike_point_raises_like_one_point(self):
        # -f'*g' > 0 fails between the 41 samples that build_parabolic
        # checks, and the metric is not spacelike there; the engine names
        # the inequality on the line jets it evaluates, not the symptom.
        patch = build_parabolic(reproducer_pair(), ProfileCurvePhi(
            compile_profile("2", "v"), Interval(0.0, 6.283)))
        grid = GridSpec(200, 5, Interval(0.5, 2.0), Interval(0.0, 6.283))
        want = "-f'*g' > 0 violated at u = 0.5150753768844221"
        kind, message = _first_error(lambda u, v: point_data(patch, u, v),
                                     grid_points(grid))
        assert (kind, message) == (AdmissibilityError, want)
        for us, vs in (flat_points(grid), grid.lines()):
            with pytest.raises(AdmissibilityError) as err:
                point_data(patch, us, vs)
            assert str(err.value) == want

    def test_inadmissible_phi_is_named(self):
        # phi is NaN at v = 1/3 only, between the 41 samples of the build;
        # every u sample is checked before any v sample.
        patch = build_parabolic(reproducer_pair(), ProfileCurvePhi(
            nan_near(1.0 / 3.0), Interval(0.0, 1.0)))
        for u, want in ((0.5, "phi'^2 + phi^2 > 0 violated at "
                               "v = 0.3333333333333333"),
                        (1.0, "-f'*g' > 0 violated at u = 1.0")):
            with pytest.raises(AdmissibilityError) as err:
                point_data(patch, u, 1.0 / 3.0)
            assert str(err.value) == want
        grid = GridSpec(200, 4, Interval(0.5, 2.0), Interval(0.0, 1.0))
        for us, vs in (flat_points(grid), grid.lines()):
            with pytest.raises(AdmissibilityError) as err:
                point_data(patch, us, vs)
            assert str(err.value) == (
                "-f'*g' > 0 violated at u = 0.5150753768844221")

    def test_inadmissible_point_raises_like_one_point(self):
            # g' = -(u - 1)(u - 1.2): -f'g' <= 0 on [1, 1.2] only.
        fp = ProfilePair(f=lambda j: j,
                         g=lambda j: -(j * j * j * (1.0 / 3.0)
                                       - 1.1 * j * j + 1.2 * j),
                         domain=Interval(0.5, 2.0))
        phi = unit_phi()
        grid = GridSpec(31, 4, Interval(0.5, 2.0), Interval(0.0, 6.0))
        kind, message = _first_error(
            lambda u, v: parabolic_closed_forms(fp, phi, u, v),
            grid_points(grid))
        assert kind is AdmissibilityError and "u = 1.0" in message
        with pytest.raises(AdmissibilityError) as err:
            parabolic_closed_forms(fp, phi, *flat_points(grid))
        assert str(err.value) == message

    def test_domain_errors_name_the_first_failing_value(self, flat_patch,
                                                        tmp_path):
        x = Jet2.seed_u(np.array([1.0, -2.0, 3.0, -4.0]))
        with pytest.raises(DomainError, match=r"argument -2\.0 violates"):
            jets.sqrt(x)
        # v leaves the domain at the first point, u at the second.
        with pytest.raises(DomainError) as err:
            jet_eval_surface(flat_patch, np.array([1.0, 9.0]),
                             np.array([9.0, 1.0]))
        with pytest.raises(DomainError) as one:
            jet_eval_surface(flat_patch, 1.0, 9.0)
        assert str(err.value) == str(one.value)
        # Leaving v at (1, 9) first, then u at (3, 0): point_data on the
        # grid's column and row, and an export, which checks the grid
        # before its line jets and passes them to each block (lines=).
        grid = GridSpec(3, 3, Interval(1.0, 3.0), Interval(0.0, 9.0))
        with pytest.raises(DomainError) as block:
            point_data(flat_patch, *grid.lines())
        with pytest.raises(DomainError) as export:
            export_grid(flat_patch, grid, csv=str(tmp_path / "d.csv"))
        with pytest.raises(DomainError) as first:
            point_data(flat_patch, 1.0, 9.0)
        assert str(block.value) == str(export.value) == str(first.value)
        assert list(tmp_path.iterdir()) == []

    def test_each_call_checks_the_domain_once(self, flat_patch, tmp_path,
                                              monkeypatch):
        calls = []
        check = surface._check_domain
        monkeypatch.setattr(surface, "_check_domain",
                            lambda *args: calls.append(args) or check(*args))
        generic = SurfacePatch(flat_patch.immersion, flat_patch.domain)
        grid = GridSpec(4, 3, Interval(1.0, 2.0), Interval(0.0, 1.0))
        for run in (lambda: point_data(flat_patch, 1.0, 0.5),
                    lambda: point_data(generic, 1.0, 0.5),
                    lambda: jet_eval_surface(flat_patch, 1.0, 0.5),
                    lambda: point_data(flat_patch, *grid.lines()),
                    lambda: export_grid(flat_patch, grid,
                                        csv=str(tmp_path / "g.csv"))):
            calls.clear()
            run()
            assert len(calls) == 1

    def test_marginally_trapped_is_element_wise(self):
        patch = mt_cone_patch(-0.5, 0.0, unit_phi())
        us = np.array([0.6, 1.0, 2.0])
        trapped = is_marginally_trapped(point_data(patch, us, us))
        assert trapped.dtype == bool and trapped.all()
        flat = build_parabolic(flat_pair(), unit_phi())
        assert not is_marginally_trapped(point_data(flat, us, us)).any()


def _boost_then_rotate(rapidity: float, angles) -> np.ndarray:
    """A boost along e1 followed by a rotation of e1, e2, e3."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    boost = np.array([[ch, 0, 0, sh], [0, 1, 0, 0], [0, 0, 1, 0],
                      [sh, 0, 0, ch]])
    rot = np.eye(4)
    for axis, t in zip((2, 1, 2), angles):   # z-y-z Euler angles
        i, j = [k for k in range(3) if k != axis]
        r = np.eye(4)
        r[i, i] = r[j, j] = math.cos(t)
        r[i, j], r[j, i] = -math.sin(t), math.sin(t)
        rot = rot @ r
    return rot @ boost


def _moved(patch: SurfacePatch, motion: np.ndarray, shift) -> SurfacePatch:
    """x -> motion x + shift applied to the immersion; canonical frame."""
    rows = motion.tolist()

    def immersion(ju: Jet2, jv: Jet2) -> Jet2Vec4:
        z = patch.immersion(ju, jv)
        xs = (z.x1, z.x2, z.x3, z.x4)
        return Jet2Vec4(*(sum((x * c for x, c in zip(xs, row)), Jet2(t))
                          for row, t in zip(rows, shift)))

    return SurfacePatch(immersion=immersion, domain=patch.domain)


class TestLorentzInvariance:
    """k, K, <H,H> and |kappa_normal| do not change under a Lorentz motion
    of the ambient space, and H moves with its linear part."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           rapidity=st.floats(-1.0, 1.0),
           angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3),
           shift=st.tuples(*[st.floats(-5.0, 5.0)] * 4),
           s=st.floats(0.05, 0.95), t=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_invariants_under_boost_rotation_translation(
            self, seed, rapidity, angles, shift, s, t):
        motion = _boost_then_rotate(rapidity, angles)
        eta = np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.allclose(motion.T @ eta @ motion, eta, atol=1e-12)
        assert motion[3, 3] > 0.0 and np.linalg.det(motion) > 0.0

        patch = random_parabolic_patch(random.Random(seed))
        u = patch.domain.u.lo + s * patch.domain.u.width
        v = patch.domain.v.lo + t * patch.domain.v.width
        p = point_data(patch, u, v)
        q = point_data(_moved(patch, motion, shift), u, v)

        def close(a, b, tol=1e-10):
            return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

        assert close(q.k, p.k)
        assert close(q.K, p.K)
        assert close(q.h_dot_h(), p.h_dot_h())
        assert close(abs(q.kappa_normal), abs(p.kappa_normal))
        want = motion @ np.array(p.H.coords())
        scale = max(1.0, float(np.linalg.norm(want)))
        assert np.max(abs(np.array(q.H.coords()) - want)) <= 1e-10 * scale


class TestReparametrisationInvariance:
    """k, K, <H,H>, |kappa_normal| and H do not change under an increasing
    reparametrisation u = psi(s), v = chi(t) written in jet arithmetic."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
           s=st.floats(0.05, 0.95), t=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_invariants_at_corresponding_points(self, seed, a, b, s, t):
        patch = random_parabolic_patch(random.Random(seed))
        du, dv = patch.domain.u, patch.domain.v

        # Increasing maps of [0, 1] onto the domain:
        # psi' = w (1 + 3 a s^2) / (1 + a) > 0 and
        # chi' = w (1 + 2 b t) / (1 + b) > 0.
        def psi(js):
            return du.lo + du.width * (js + a * js * js * js) / (1.0 + a)

        def chi(jt):
            return dv.lo + dv.width * (jt + b * jt * jt) / (1.0 + b)

        unit = Rect(Interval(0.0, 1.0), Interval(0.0, 1.0))
        again = SurfacePatch(lambda js, jt: patch.immersion(psi(js), chi(jt)),
                             unit)
        # The frame-free patch, so both sides use the canonical frame.
        base = SurfacePatch(patch.immersion, patch.domain)
        q = point_data(again, s, t)
        p = point_data(base, psi(Jet2.constant(s)).val,
                       chi(Jet2.constant(t)).val)

        def close(x, y, tol=1e-10):
            return abs(x - y) <= tol * max(1.0, abs(x), abs(y))

        assert close(q.k, p.k)
        assert close(q.K, p.K)
        assert close(q.h_dot_h(), p.h_dot_h())
        assert close(abs(q.kappa_normal), abs(p.kappa_normal))
        scale = max(1.0, p.H.euclidean_norm())
        for x, y in zip(q.H.coords(), p.H.coords()):
            assert abs(x - y) <= 1e-10 * scale
