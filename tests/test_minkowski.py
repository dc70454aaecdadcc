import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minksurf.errors import Error
from minksurf.minkowski import (E1, E2, E3, E4, XI1, XI2, ZERO,
                                CausalCharacter, NullFrameCoords, Vec4M,
                                causal_character, from_null_frame, inner,
                                to_null_frame)

from helpers import assert_ulps, ulps_apart

SQRT_HALF = math.sqrt(0.5)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False,
                   allow_subnormal=False)
vectors = st.builds(Vec4M, finite, finite, finite, finite)
scalars = st.floats(min_value=-1e3, max_value=1e3,
                    allow_nan=False, allow_infinity=False)


class TestInner:
    def test_e4_squares_to_minus_one(self):
        assert inner(E4, E4) == -1.0

    def test_e1_squares_to_one(self):
        assert inner(E1, E1) == 1.0

    def test_null_legs_pair_to_minus_one(self):
        assert ulps_apart(inner(XI1, XI2), -1.0) <= 4
        assert abs(inner(XI1, XI1)) <= 4 * math.ulp(1.0)
        assert abs(inner(XI2, XI2)) <= 4 * math.ulp(1.0)

    def test_exact_coordinate_expression(self):
        a = Vec4M(0.1, -2.0, 3.5, 0.7)
        b = Vec4M(1.3, 0.25, -0.5, 2.0)
        expected = a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3 - a.x4 * b.x4
        assert inner(a, b) == expected

    @given(vectors, vectors)
    def test_symmetry_exact(self, a, b):
        assert inner(a, b) == inner(b, a)

    @given(vectors, vectors, vectors, scalars, scalars)
    @settings(max_examples=200)
    def test_bilinearity(self, a, b, c, s, t):
        # 8 ulp of the larger term: the terms entering either side scale
        # like |s| ||a|| ||c|| and |t| ||b|| ||c||.
        combo = a.scale(s) + b.scale(t)
        lhs = inner(combo, c)
        rhs = s * inner(a, c) + t * inner(b, c)
        term = ((abs(s) * a.euclidean_norm() + abs(t) * b.euclidean_norm())
                * c.euclidean_norm())
        assert abs(lhs - rhs) <= 8 * math.ulp(max(term, 1e-300))

    def test_rejects_non_finite(self):
        with pytest.raises(Error):
            Vec4M(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(Error):
            Vec4M(0.0, math.inf, 0.0, 0.0)


class TestCausalCharacter:
    def test_null_cone_vector(self):
        assert causal_character(E1 + E4, 1e-12) is CausalCharacter.LIGHTLIKE

    def test_timelike(self):
        assert causal_character(E4, 1e-12) is CausalCharacter.TIMELIKE

    def test_zero(self):
        assert causal_character(ZERO, 1e-12) is CausalCharacter.ZERO

    def test_spacelike(self):
        assert causal_character(E1, 1e-12) is CausalCharacter.SPACELIKE

    def test_requires_positive_tolerance(self):
        with pytest.raises(Error):
            causal_character(E1, 0.0)

    @given(vectors, st.floats(min_value=0.01, max_value=100.0))
    @example(Vec4M(0.0, 0.0, 0.0, 1e-11), 0.0625)
    # Scaled by 0.01, the raw <v, v> of this vector underflows to zero.
    @example(Vec4M(0.0, 0.0, 0.0, 1e-160), 0.01)
    @settings(max_examples=200)
    def test_scale_invariance(self, v, s):
        base = causal_character(v, 1e-12)
        if base is CausalCharacter.ZERO:
            return
        # Stay away from the classification boundary before asserting.
        q = inner(v, v)
        n2 = v.euclidean_norm() ** 2
        if abs(q) < 1e-6 * n2 and abs(q) > 1e-14 * n2:
            return
        assert causal_character(v.scale(s), 1e-12) is base


class TestArrays:
    """Coordinates may be equal-length arrays: one vector per point."""

    def test_non_finite_names_first_point_then_coordinate(self):
        # Point 1 has a non-finite x2; point 2 a non-finite x1 as well.
        with pytest.raises(Error, match=r"^non-finite coordinate x2=inf$"):
            Vec4M(np.array([0.0, 1.0, math.nan]),
                  np.array([0.0, math.inf, 0.0]), 0.0, 0.0)
        v = Vec4M(np.array([1.0, 2.0]), 0.0, 0.0, 0.0)
        assert v.euclidean_norm().tolist() == [1.0, 2.0]

    def test_causal_character_per_element(self):
        t = np.array([0.0, 1.0, 1.0, 1.0])
        v = Vec4M(np.array([0.0, 1.0, 2.0, 0.5]), 0.0, 0.0, t)
        want = [CausalCharacter.ZERO, CausalCharacter.LIGHTLIKE,
                CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE]
        assert causal_character(v).tolist() == want
        for i, c in enumerate(want):
            one = Vec4M(float(v.x1[i]), 0.0, 0.0, float(t[i]))
            assert causal_character(one) is c


class TestNullFrame:
    def test_xi1_from_coords(self):
        v = from_null_frame(NullFrameCoords(0.0, 0.0, 1.0, 0.0))
        assert v == Vec4M(0.0, 0.0, SQRT_HALF, SQRT_HALF)
        assert v == XI1

    def test_e3_decomposition(self):
        # e3 = (xi1 - xi2)/sqrt(2): solve the 2x2 system by hand.
        c = to_null_frame(E3)
        assert_ulps(c.z1, 0.0, 0)
        assert_ulps(c.eta1, SQRT_HALF, 4)
        assert_ulps(c.eta2, -SQRT_HALF, 4)

    def test_round_trip_example(self):
        v = Vec4M(0.3, -1.2, 2.5, 0.7)
        w = from_null_frame(to_null_frame(v))
        for got, want in zip(w.coords(), v.coords()):
            assert_ulps(got, want, 4)

    @given(vectors)
    @settings(max_examples=300)
    def test_round_trip_property(self, v):
        w = from_null_frame(to_null_frame(v))
        scale = max(abs(c) for c in v.coords())
        for got, want in zip(w.coords(), v.coords()):
            assert abs(got - want) <= 4 * math.ulp(max(scale, 1e-300))

    def test_null_frame_metric(self):
        # Gram matrix of (e1, e2, xi1, xi2) has the two lightlike legs
        # pairing to -1 and orthogonal to the spacelike ones.
        for e in (E1, E2):
            assert inner(e, XI1) == 0.0
            assert inner(e, XI2) == 0.0
        assert abs(inner(XI1, XI1)) <= 1e-15
        assert abs(inner(XI2, XI2)) <= 1e-15
