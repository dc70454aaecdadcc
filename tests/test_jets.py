import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import jets
from minksurf.errors import DomainError
from minksurf.jets import Jet2

from helpers import math_rounding

H = 1e-5
H2 = 5e-4  # wider step for pure value-based second differences


def c5(f, x, h=H):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def c5_second(f, x, h=H2):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
            - f(x - 2 * h)) / (12 * h * h)


def slots(j):
    return (j.val, j.du, j.dv, j.duu, j.duv, j.dvv)


class TestSeeds:
    def test_seed_u(self):
        j = Jet2.seed_u(3.25)
        assert slots(j) == (3.25, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_seed_v(self):
        j = Jet2.seed_v(-1.5)
        assert slots(j) == (-1.5, 0.0, 1.0, 0.0, 0.0, 0.0)

    def test_constant(self):
        assert slots(Jet2.constant(7)) == (7.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestElementaryExamples:
    def test_sin_at_maximum(self):
        j = jets.sin(Jet2.seed_u(math.pi / 2))
        assert abs(j.val - 1.0) <= 1e-15
        assert abs(j.du) <= 1e-15          # cos(pi/2) up to rounding
        assert abs(j.duu + 1.0) <= 1e-15
        assert j.dv == 0.0 and j.duv == 0.0 and j.dvv == 0.0

    def test_sqrt_constant_propagation(self):
        j = jets.sqrt(Jet2.constant(4.0))
        assert slots(j) == (2.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_ln_at_one(self):
        j = jets.ln(Jet2.seed_u(1.0))
        assert j.val == 0.0
        assert j.du == 1.0
        assert j.duu == -1.0
        # cross-check the first derivative against central differences
        assert abs(j.du - c5(math.log, 1.0)) <= 1e-8

    def test_pow_by_real(self):
        j = jets.powr(Jet2.seed_u(2.0), 1.5)
        assert abs(j.val - 2.0 ** 1.5) <= 1e-15
        assert abs(j.du - 1.5 * 2.0 ** 0.5) <= 1e-14
        assert abs(j.duu - 0.75 * 2.0 ** -0.5) <= 1e-14


class TestDomainErrors:
    @pytest.mark.parametrize("tag,bad", [
        ("sqrt", 0.0), ("sqrt", -1.0),
        ("ln", 0.0), ("ln", -2.5),
        ("reciprocal", 0.0),
    ])
    def test_out_of_domain(self, tag, bad):
        with pytest.raises(DomainError):
            getattr(jets, tag)(Jet2.seed_u(bad))

    def test_pow_negative_base(self):
        with pytest.raises(DomainError):
            jets.powr(Jet2.seed_u(-1.0), 0.5)

    @pytest.mark.parametrize("fn,func,arg", [
        (jets.exp, "exp", 710.0),
        (lambda j: jets.powr(j, 400.5), "pow-by-real", 8.0),
        # The value fits, its second derivative x**-6.5 does not.
        (lambda j: jets.powr(j, -4.5), "pow-by-real", 1e-50),
    ], ids=["exp", "pow", "pow-derivative"])
    def test_overflow_names_function_and_argument(self, fn, func, arg):
        with pytest.raises(DomainError) as err:
            fn(Jet2.seed_u(arg))
        assert (err.value.func, err.value.value) == (func, arg)

    @pytest.mark.parametrize("fn,func,arg", [
        (jets.exp, "exp", 710.0),
        (lambda j: jets.powr(j, 400.5), "pow-by-real", 8.0),
        (lambda j: jets.powr(j, -4.5), "pow-by-real", 1e-50),
        # 2.03**1000 fits; the derivative's factor 1000 takes it past.
        (lambda j: jets.powr(j, 1000.0), "pow-by-real", 2.03),
    ], ids=["exp", "pow", "pow-derivative", "pow-product"])
    def test_array_overflow_is_the_first_failing_element(self, fn, func, arg):
        # An array call raises what the one-point call at its first
        # overflowing element raises, with no numpy warning (which the
        # test run turns into an error); in range, values are the
        # one-point calls'.
        with pytest.raises(DomainError) as one:
            fn(Jet2.seed_u(arg))
        with pytest.raises(DomainError) as many:
            fn(Jet2.seed_u(np.array([0.5, arg, 1.5, 2.0 * arg])))
        assert str(many.value) == str(one.value)
        assert type(many.value.value) is float
        ok = [0.5, 1.0, 1.5]
        assert (fn(Jet2.seed_u(np.array(ok))).val
                == [fn(Jet2.seed_u(x)).val for x in ok]).all()


class TestArraysRoundLikeMath:
    """An array jet holds the bits of jets whose functions call ``math``
    on one element at a time.  numpy's own exp, log and ** differ from
    math's in the last bit on some arguments (log on a few in 10^4 of
    these)."""

    XS = np.random.default_rng(5).uniform(0.01, 10.0, 20000)

    @pytest.mark.parametrize("fn", [
        jets.exp, jets.ln, jets.log_abs, jets.sqrt, jets.sin, jets.cos,
        lambda j: jets.powr(j, 1.5), lambda j: jets.powr(j, -2.7)],
        ids=["exp", "ln", "log_abs", "sqrt", "sin", "cos", "pow", "pow-neg"])
    def test_slots_equal_one_point_jets(self, fn):
        many = fn(Jet2.seed_u(self.XS))
        with math_rounding():
            ones = fn(Jet2.seed_u(self.XS))
        for name in ("val", "du", "duu"):
            want = getattr(ones, name)
            assert getattr(many, name).tobytes() == want.tobytes(), name


FD_CASES = [
    ("sin", math.sin, lambda x: True),
    ("cos", math.cos, lambda x: True),
    ("exp", math.exp, lambda x: True),
    ("sqrt", math.sqrt, lambda x: x > 0.1),
    ("ln", math.log, lambda x: x > 0.1),
    ("reciprocal", lambda x: 1.0 / x, lambda x: abs(x) > 0.1),
]

class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("tag,ref,ok", FD_CASES)
    def test_first_derivative(self, tag, ref, ok):
        # 5-point central differences, step 1e-5, relative 1e-6.
        for x in (0.17, 0.62, 1.31, 2.9):
            if not ok(x):
                continue
            j = getattr(jets, tag)(Jet2.seed_u(x))
            fd = c5(ref, x)
            assert abs(j.du - fd) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("tag,ref,ok", FD_CASES)
    def test_second_derivative(self, tag, ref, ok):
        # Value-only second differences need a wider step in binary64:
        # at 1e-5 the rounding noise (~eps/h^2) would exceed the target.
        for x in (0.17, 0.62, 1.31, 2.9):
            if not ok(x):
                continue
            j = getattr(jets, tag)(Jet2.seed_u(x))
            fd = c5_second(ref, x)
            assert abs(j.duu - fd) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("tag,ref,ok", FD_CASES)
    def test_second_derivative_from_first(self, tag, ref, ok):
        # Differencing the exact first derivatives keeps the 1e-5 step.
        for x in (0.17, 0.62, 1.31, 2.9):
            if not ok(x):
                continue
            j = getattr(jets, tag)(Jet2.seed_u(x))
            fd = c5(lambda t: getattr(jets, tag)(Jet2.seed_u(t)).du, x)
            assert abs(j.duu - fd) <= 1e-6 * max(1.0, abs(fd))


slot_floats = st.floats(min_value=-2.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False)
jets_any = st.builds(Jet2, slot_floats, slot_floats, slot_floats,
                     slot_floats, slot_floats, slot_floats)
jets_nonzero = jets_any.filter(lambda j: abs(j.val) > 0.25)
jets_positive = st.builds(
    Jet2, st.floats(min_value=0.25, max_value=2.0, allow_nan=False),
    slot_floats, slot_floats, slot_floats, slot_floats, slot_floats)


def _magnitude(j: Jet2) -> float:
    return 1.0 + max(abs(x) for x in slots(j))


def assert_identity(got: Jet2, want: Jet2, intermediates, ulp_limit=16):
    """Slot-wise identity up to ulp_limit ulps of the intermediate scale.

    The identities below cancel products of intermediate jets, so rounding
    is bounded by the product of their slot magnitudes, not by the result.
    """
    scale = 1.0
    for j in intermediates:
        scale *= _magnitude(j)
    tol = ulp_limit * math.ulp(scale)
    for x, y in zip(slots(got), slots(want)):
        assert abs(x - y) <= tol, (got, want, tol)


class TestAlgebraicIdentities:
    @given(jets_any, jets_nonzero)
    @settings(max_examples=300)
    def test_mul_div_round_trip(self, a, b):
        prod = a * b
        assert_identity(prod / b, a, [prod, jets.reciprocal(b), a])

    @given(jets_positive)
    @settings(max_examples=300)
    def test_exp_ln_inverse(self, a):
        log = jets.ln(a)
        assert_identity(jets.exp(log), a, [log, log, a])

    @given(jets_any)
    @settings(max_examples=300)
    def test_pythagorean(self, a):
        s = jets.sin(a)
        c = jets.cos(a)
        assert_identity(s * s + c * c, Jet2.constant(1.0), [s, c, a])

    @given(jets_positive)
    @settings(max_examples=200)
    def test_sqrt_squares(self, a):
        r = jets.sqrt(a)
        assert_identity(r * r, a, [r, r])

    @given(jets_positive)
    @settings(max_examples=200)
    def test_pow_matches_exp_ln(self, a):
        p = 1.7
        log = jets.ln(a)
        assert_identity(jets.powr(a, p), jets.exp(log * p),
                        [log, log, a], ulp_limit=32)

    @given(jets_any, jets_any)
    @settings(max_examples=200)
    def test_product_rule_slots(self, a, b):
        # The duv slot of a product carries the full mixed Leibniz rule.
        prod = a * b
        expected = (a.duv * b.val + a.du * b.dv + a.dv * b.du
                    + a.val * b.duv)
        scale = max(abs(expected), 1.0)
        assert abs(prod.duv - expected) <= 4 * math.ulp(scale)

    def test_powi_matches_mul(self):
        j = Jet2(1.3, 0.4, -0.2, 0.1, 0.05, -0.3)
        assert_identity(jets.powi(j, 3), j * j * j, [j, j, j], ulp_limit=8)
        assert_identity(jets.powi(j, -1), jets.reciprocal(j),
                        [jets.reciprocal(j)], ulp_limit=8)

    def test_mixed_partial_single_slot(self):
        # Only one storage location exists for the mixed partial.
        assert "duv" in Jet2.__slots__
        assert "dvu" not in Jet2.__slots__


class TestChainRule:
    @given(st.floats(min_value=0.3, max_value=2.0, allow_nan=False))
    @settings(max_examples=100)
    def test_composition(self, x):
        # d^2/du^2 of sin(x^2) with x = u: 2cos(x^2) - 4x^2 sin(x^2).
        j = jets.sin(Jet2.seed_u(x) * Jet2.seed_u(x))
        expected_d1 = 2 * x * math.cos(x * x)
        expected_d2 = 2 * math.cos(x * x) - 4 * x * x * math.sin(x * x)
        assert abs(j.du - expected_d1) <= 1e-12 * max(1.0, abs(expected_d1))
        assert abs(j.duu - expected_d2) <= 1e-12 * max(1.0, abs(expected_d2))
