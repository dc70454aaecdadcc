"""The exporters' table writer against ``'%.17g' %``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import _fmt17
from minksurf._fmt17 import table_text
from minksurf.cli import run_cli

from helpers import row_format

ROWS = [(",", ""), (" ", "v ")]     # CSV rows and OBJ vertex rows


def by_percent(table, sep=",", lead="") -> str:
    """One ``%`` of the row format per table, as the exporters wrote it."""
    table = np.asarray(table)
    line = lead + row_format(table.shape[1], sep)
    return line * len(table) % tuple(table.ravel().tolist())


def assert_writes_like_percent(values, ncols, sep=",", lead=""):
    table = np.asarray(values, dtype=np.float64).reshape(-1, ncols)
    assert table_text(table, sep, lead) == by_percent(table, sep, lead)


def random_doubles(seed: int, n: int) -> np.ndarray:
    """n doubles of every kind: raw bit patterns, one in eight with a zero
    exponent field (subnormals and zeros), and signed zeros, infinities
    and nans."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
    bits[::8] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    x = bits.view(np.float64)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
    x[rng.choice(n, size=7 * 64, replace=False)] = np.repeat(special, 64)
    return x


def test_random_bit_patterns():
    # Over 10^6 values; the rows cross many chunk boundaries.
    assert_writes_like_percent(random_doubles(20240613, 1_050_000), 16)


def test_random_bit_patterns_in_vertex_rows():
    assert_writes_like_percent(random_doubles(7, 3 * 2 ** 15), 3, " ", "v ")


def test_scaled_normals():
    # Doubles spread over the fast path's whole range and past it.
    rng = np.random.default_rng(11)
    x = rng.standard_normal(250_000) * 10.0 ** rng.integers(-70, 71, 250_000)
    assert_writes_like_percent(x, 20)


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-320, 309):
        p = float(f"1e{k}")
        values += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    for sep, lead in ROWS:
        assert_writes_like_percent(values, 3, sep, lead)
        assert_writes_like_percent(np.negative(values), 3, sep, lead)


SWITCHES = [
    # ties at the 17th digit
    1000000000000000.25, 1000000000000000.75,
    # D at 10^16 and 10^17 - 1, and values that round up to a new exponent
    1e16, 1e17, 9999999999999998.0, 99999999999999984.0,
    9.9999999999999995e-5, 9.9999999999999991e-5, 9.999999999999999e-5,
    # %g's switch between exponential and fixed notation: X = -5 / -4 ...
    1e-5, 1.0000000000000001e-5, 9.9999999999999998e-6, 1e-4, 0.0001,
    1.0000000000000001e-4, 0.00012345678901234567,
    # ... and X = 16 / 17
    1.2345678901234567e16, 12345678901234568.0, 1.2345678901234567e17,
    1.0000000000000002e16, 1.0000000000000002e17, 0.5, 1.5, 1.0, 2.0,
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ties_and_exponent_switches(sign):
    values = [sign * v for v in SWITCHES]
    values += [np.nextafter(v, np.inf) for v in values]
    values += [np.nextafter(v, -np.inf) for v in values]
    for sep, lead in ROWS:
        assert_writes_like_percent(values, 1, sep, lead)


@given(values=st.lists(st.floats(), min_size=1, max_size=48),
       row=st.sampled_from(ROWS), wide=st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_floats(values, row, wide):
    assert_writes_like_percent(values, len(values) if wide else 1, *row)


def test_fields_rows_and_leads():
    table = [[1.0, -0.5, 1e-7], [0.0, -0.0, 123456.789]]
    assert (table_text(table)
            == "1,-0.5,9.9999999999999995e-08\n0,-0,123456.789\n")
    assert (table_text(table, " ", "v ")
            == "v 1 -0.5 9.9999999999999995e-08\nv 0 -0 123456.789\n")


def test_int_layout_across_digit_boundaries():
    edges = [10 ** k + d for k in range(16) for d in (-1, 0, 1)]
    ints = np.array([0, 1, 9, *edges, 10 ** 16 - 1]).reshape(-1, 1)
    for row in (ints, ints[:51].reshape(-1, 3)):
        want = "".join("f " + " ".join("%d" % i for i in r) + "\n"
                       for r in row.tolist())
        assert _fmt17.int_text(row, " ", "f ") == want
    # Each array is laid out with the digit groups of its widest int.
    small = np.array([[7, 9999, 10000]])
    assert _fmt17.int_text(small, ",", "") == "7,9999,10000\n"


def test_face_text_is_the_grid_triangulation():
    nv = 4
    want = "".join(f"f {a} {a + 1} {a + nv + 1}\nf {a} {a + nv + 1} {a + nv}\n"
                   for i in range(2, 5) for a in range(i * nv + 1,
                                                       i * nv + nv))
    assert _fmt17.face_text(nv, 2, 5) == want


AMBIGUOUS = [
    1000000000000000.25,    # exact ties, with an exact cached power
    1000000000000000.75,
    7.713121983392708e-30,  # 17 digits and then ...49894: within the
    8.123817677582487e-30,  # error bound of an inexact cached power
]


def test_an_ambiguous_fraction_takes_the_fallback():
    _, _, slow = _fmt17._decimal(np.array(AMBIGUOUS))
    assert slow.tolist() == [0, 1, 2, 3]
    assert_writes_like_percent(AMBIGUOUS, 1)
    # Far from a tie, the fast path certifies.
    _, _, slow = _fmt17._decimal(np.array([1 / 3, 2.5e-30, -7.25]))
    assert slow.size == 0


FAMILY_SEED_1 = [
    "family", "--type", "parabolic-mt", "--a=-0.50031193338506286",
    "--b=-0.009129825816118098", "--c=1.208367865364175", "--sign", "plus",
    "--section", "A=-0.20154636616860183,B=-1.271150605405849,"
                 "C=-1.1692844665672597,root=minus",
    "--u", "0.8833074019827101:2.3032170147256643:100",
    "--v", "0.48785665652414756:6.2744907416394184:100"]


def test_fast_path_certifies_the_family_table(tmp_path):
    # The benchmark's family-csv invocation at seed 1.
    path = tmp_path / "family.csv"
    assert run_cli([*FAMILY_SEED_1, "--csv", str(path)]) == 0
    body = path.read_text().split("\n", 1)[1]
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (10000, 20)
    assert body == by_percent(table)
    _, _, slow = _fmt17._decimal(table.ravel())
    assert slow.size <= 0.01 * table.size

