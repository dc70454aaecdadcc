"""Tables of float64 written as ``'%.17g'`` would write them, in numpy passes.

:func:`table_text` gives the text of ``lead + sep.join('%.17g' % x for x
in row) + "\\n"`` for every row of a table, without one ``dtoa`` call per
value.  The digits come from a certified fixed-precision scaling, the
technique of Grisu (Loitsch, *Printing Floating-Point Numbers Quickly and
Accurately*, PLDI 2010), done in uint64 array arithmetic:

* |x| = m 2^e with the 53-bit significand shifted to 64 bits, and
  X = floor(log10 |x|) is estimated with ``log10``.
* m is multiplied by the 64-bit cached power c, the nearest integer to
  10^(16 - X) 2^-b, exactly to 128 bits (four 32 x 32 products).  The
  high bits are the 17-digit integer D and the low bits its fraction.
* |c - 10^(16 - X) 2^-b| <= 1/2, and c is exact for 0 <= 16 - X <= 27, so
  the product is off by less than m/2 units.  Rounding D to nearest is
  certified unless the fraction lies within that bound of 1/2 (exact
  ties included) or D sits at 10^16 or 10^17 - 1, where the rounded
  value may change its exponent.  A D outside [10^16, 10^17) means X
  was off by one; those elements alone are scaled again with X +- 1.

Every value that this does not certify, and every value that is not
zero, normal and within [1e-60, 1e60), is formatted with ``'%.17g' %
x``; zeros are laid out directly.  The text is byte-identical to ``%``
for every float64.

Formatting is two steps.  :func:`fields` lays values out as field
words: six little-endian uint64 words per value, with NUL for absent
bytes (see :data:`_FIELD_WORDS`).  The sign and ``0.000`` prefix and 17
(digit, dot slot) pairs come from a table of 4-digit groups masked by a
row table, then an ``e+XX`` suffix and the field's separator (``sep``,
or a newline and the next row's ``lead``).  :func:`_text` then joins an
array of field words into text: ``tobytes().translate`` drops the NULs.
Field words can be copied between rows before they are joined, which is
how :class:`GridText` formats each distinct value of an export once.
:func:`int_text` lays out ``%d`` fields the same way, for the OBJ faces.

A table is formatted in chunks of at most :data:`CHUNK_VALUES` values,
about 40 numpy passes each.  Smaller chunks pay more per-pass overhead;
larger ones make each temporary outgrow the caches and, past ~16k
values, glibc's default 128 KiB mmap threshold.  On the 200k values of a
100 x 100 invariant table in 1000-row blocks (Python 3.11, numpy 2.4,
2-core x86-64 VM), the median of 15 runs was 45 ms with chunks of 4096,
49 ms with 8192, 54 ms with 2048 and 65 ms with 16384, against 125 ms
for one ``%`` per block.

The tables here are built at import; the exporters import this module
on their first write, so a run that writes no table never builds them.
"""

from __future__ import annotations

import numpy as np

# Most fields per formatting pass (see the module docstring).
CHUNK_VALUES = 4096

# Decimal exponents X of the cached powers: the fast path takes
# 1e-60 <= |x| < 1e60, whose X may be estimated one off either way.
_X_LO, _X_HI = -61, 60
_FAST_LO, _FAST_HI = 1e-60, 1e60

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_HALF = _U64(1 << 63)
_D_LO = _U64(10 ** 16)
_D_HI = _U64(10 ** 17)


def _cached_power(k: int) -> tuple[int, int, bool]:
    """(c, b, exact): c = round(10^k / 2^b) with 2^63 <= c < 2^64."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    b = num.bit_length() - den.bit_length() - 64
    while True:
        n, d = (num, den << b) if b >= 0 else (num << -b, den)
        c = (2 * n + d) // (2 * d)      # n / d is never a half-integer
        if c >= 1 << 64:
            b += 1
        elif c < 1 << 63:
            b -= 1
        else:
            return c, b, c * d == n


_POWERS = [_cached_power(16 - x) for x in range(_X_LO, _X_HI + 1)]
# The halves of c, and 1022 - b: the product of c and the shifted
# significand of a biased binary exponent E has 64 + r fraction bits,
# r = 1022 - b - E.
_C_LOW = np.array([c & 0xFFFFFFFF for c, _, _ in _POWERS], dtype=np.uint64)
_C_HIGH = np.array([c >> 32 for c, _, _ in _POWERS], dtype=np.uint64)
_R_BASE = np.array([1022 - b for _, b, _ in _POWERS], dtype=np.uint64)
# A shift that takes the product error bound 2^63 >> r to 0 when c is exact.
_EXACT_SHIFT = np.array([63 if exact else 0 for _, _, exact in _POWERS],
                        dtype=np.uint64)

_WORD = np.dtype("<u8")     # eight output bytes, first byte lowest


def _words(strings: list[str], width: int) -> np.ndarray:
    """ASCII strings, NUL-padded to ``width`` bytes, as output words."""
    return np.frombuffer(b"".join(s.encode("ascii").ljust(width, b"\0")
                                  for s in strings),
                         dtype=_WORD).reshape(len(strings), -1)


# A field is six words.  Words 0-4 are 20 two-byte slots: slots 0-2 hold
# the prefix and slot 3 + j digit j, with the dot slot after it in its
# high byte.  Word 5 holds the exponent suffix, then the separator.
_FIELD_WORDS = 6
_SLOT = np.dtype("<u2")
_G = np.arange(10000, dtype=_SLOT)
# _GROUPS[g]: the four digits of g < 10^4, each with 0xFF in its dot slot;
# _GROUPS[_LEAD + g]: digit g in slot 3, after prefix slots of 0xFF.
_LEAD = 10000
_GROUPS = np.concatenate([
    _G[:, None] // np.array([1000, 100, 10, 1], dtype=_SLOT) % 10
    + (0xFF00 | ord("0")),
    [[0xFFFF] * 3 + [0xFF00 | ord("0") + g] for g in range(10)],
]).astype(_SLOT).view(_WORD)[:, 0]
# _TRAILING[g]: trailing zeros of the four digits of g.
_TRAILING = sum(_G % 10 ** k == 0 for k in (1, 2, 3, 4)).astype(np.int8)

# Layouts (dot, z): a dot after digit ``dot`` (17: none) and a "0." prefix
# with z - 1 zeros.  %.17g writes -4 <= X < 17 in fixed notation, with
# the dot after digit X for X >= 0 and z = -X for X < 0; exponential
# notation has its dot after digit 0, as X = 0 does.
_LAYOUTS = [(dot, 0) for dot in range(17)] + [(17, z) for z in range(1, 5)]


def _layout(x: int) -> int:
    """The index in _LAYOUTS of decimal exponent x."""
    if 0 <= x < 17:
        return x
    return 16 - x if -4 <= x < 0 else 0


def _masks() -> np.ndarray:
    """Words 0-4 by (negative, layout, keep): the prefix, then slots that
    keep the first ``keep`` digits, with the layout's dot if a kept digit
    follows it."""
    prefixes = _words([sign + ("0." + "0" * (z - 1) if z else "")
                       for sign in ("", "-") for _, z in _LAYOUTS], 8)
    j = np.arange(17)
    keep = np.arange(18)[:, None]
    dot = np.array([dot for dot, _ in _LAYOUTS])[:, None, None]
    slots = np.empty((2, len(_LAYOUTS), 18, 17), dtype=_SLOT)
    slots[...] = (np.where(j < keep, 0xFF, 0)
                  | np.where((j == dot) & (j < keep - 1), ord(".") << 8, 0))
    out = np.empty((2, len(_LAYOUTS), 18, 20), dtype=_SLOT)
    out[..., :3] = prefixes.view(_SLOT)[:, :3].reshape(2, -1, 1, 3)
    out[..., 3:] = slots
    return out.view(_WORD).reshape(-1, 5)


# _MASKS[_NEGATIVE * negative + 18 * layout + keep]
_MASKS = _masks()
_NEGATIVE = 18 * len(_LAYOUTS)
# By X - _X_LO: the first mask row of its layout, the digits %g keeps at
# least (those before the dot) and the suffix of exponential notation.
_XS = range(_X_LO, _X_HI + 1)
_LAYOUT_ROW = np.array([18 * _layout(x) for x in _XS])
_MIN_KEEP = np.array([x + 1 if 0 <= x < 17 else 0 for x in _XS])
_SUFFIX = _words(["" if -4 <= x < 17 else "e%+03d" % x for x in _XS],
                 8)[:, 0]
# _DIGITS4[g]: the four digits of g < 10^4 as one four-byte word.
_DIGITS4 = (_G[:, None] // np.array([1000, 100, 10, 1], dtype=_SLOT) % 10
            + ord("0")).astype(np.uint8).view("<u4")[:, 0]
# An int a in [0, 10^16) has searchsorted(_POW10, a, "right") + 1 digits,
# and row n of _DIGIT_MASKS keeps the last n of 16 digit bytes.
_POW10 = 10 ** np.arange(1, 16, dtype=np.int64)
_DIGIT_MASKS = np.where(np.arange(16) >= 16 - np.arange(17)[:, None],
                        0xFF, 0).astype(np.uint8)


def _mul128(a: np.ndarray, b0: np.ndarray, b1: np.ndarray):
    """The high and low 64 bits of the exact products a (b1 2^32 + b0),
    for uint64 a and 32-bit halves b0, b1."""
    a0, a1 = a & _M32, a >> _U64(32)
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _U64(32)) + (p01 & _M32) + (p10 & _M32)
    hi = p11 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    lo = (mid << _U64(32)) | (p00 & _M32)
    return hi, lo


def _scaled(m: np.ndarray, biased: np.ndarray, i: np.ndarray):
    """floor(|x| 10^(16 - X)) as uint64, whether it rounds up, and whether
    that rounding is certified, for shifted significands m, biased binary
    exponents and X = _X_LO + i."""
    hi, lo = _mul128(m, _C_LOW.take(i), _C_HIGH.take(i))
    # 2 <= r <= 15 while X is within one of floor(log10 |x|).
    r = _R_BASE.take(i) - biased
    d = hi >> r
    frac = (hi << (_U64(64) - r)) | (lo >> r)     # top 64 fraction bits
    # The product error (< m/2 units, so < 2^63 >> r here, and 0 when c
    # is exact) plus 2 for the truncated fraction bits.
    tol = (_HALF >> (r + _EXACT_SHIFT.take(i))) + _U64(2)
    # |frac - 2^63| > tol, the difference taken modulo 2^64.
    sure = ((frac ^ _HALF) + tol) > (tol << _U64(1))
    return d, frac > _HALF, sure


def _decimal(x: np.ndarray):
    """(D, X - _X_LO, slow) for a flat float64 array: |x| rounds to
    D 10^(X - 16) with 10^16 <= D < 10^17, and D = X = 0 for a zero,
    except at the indices ``slow``, which the fast path does not
    certify."""
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= _FAST_LO) & (ax < _FAST_HI)
    ax = np.where(fast, ax, 1.0)
    bits = ax.view(np.uint64)
    m = ((bits & _U64((1 << 52) - 1)) | _U64(1 << 52)) << _U64(11)
    biased = bits >> _U64(52)
    i = np.floor(np.log10(ax)).astype(np.intp) - _X_LO

    d, up, sure = _scaled(m, biased, i)
    off = np.flatnonzero((d < _D_LO) | (d >= _D_HI))
    if off.size:
        i[off] += np.where(d[off] < _D_LO, -1, 1)
        d[off], up[off], sure[off] = _scaled(m[off], biased[off], i[off])
    slow = ~zero & ~(fast & sure & (d > _D_LO) & (d < _D_HI - _U64(1)))
    zero |= slow    # laid out as zeros, to be overwritten
    i[zero] = -_X_LO
    return (np.where(zero, _U64(0), d + up).view(np.int64), i,
            np.flatnonzero(slow))


def _separators(ncols: int, sep: str, lead: str) -> np.ndarray:
    """Word 5 of each column's fields: ``sep``, or a newline and the next
    row's ``lead`` after the last column."""
    return _words([sep] * (ncols - 1) + ["\n" + lead], 8)[:, 0] << _U64(32)


def fields(x: np.ndarray, out: np.ndarray | None = None,
           seps=_U64(0)) -> np.ndarray:
    """The field words of each value of the float64 array ``x``, as
    ``'%.17g'`` writes it, followed by its separator word from ``seps``
    (see :func:`_separators`; broadcast against ``x``, none by default):
    ``out[i]`` holds ``x[i]``.

    ``out`` (new if None) has the shape ``x.shape + (6,)`` and any strides
    whose last axis is contiguous, so a table's columns can be laid out
    straight into the rows that hold them.
    """
    if out is None:
        out = np.empty(x.shape + (_FIELD_WORDS,), dtype=_WORD)
    flat = x.ravel()
    d, xi, slow = _decimal(flat)

    # The 17 digits as a lead digit and four groups of four.
    lead = d // 10 ** 16
    rest = d - lead * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    groups = np.empty((flat.size, 5), dtype=np.intp)
    groups[:, 0] = lead + _LEAD
    groups[:, 1] = high // 10 ** 4
    groups[:, 2] = high - groups[:, 1] * 10 ** 4
    groups[:, 3] = low // 10 ** 4
    groups[:, 4] = low - groups[:, 3] * 10 ** 4
    trailing = _TRAILING.take(groups[:, 1:])
    zeros = trailing[:, 0]
    for col in (1, 2, 3):
        zeros = trailing[:, col] + (trailing[:, col] == 4) * zeros
    keep = np.maximum(17 - zeros, _MIN_KEEP.take(xi))
    row = _LAYOUT_ROW.take(xi) + keep + _NEGATIVE * np.signbit(flat)

    words = x.shape + (5,)
    np.bitwise_and(_GROUPS.take(groups).reshape(words),
                   _MASKS.take(row, axis=0).reshape(words), out=out[..., :5])
    out[..., 5] = _SUFFIX.take(xi).reshape(x.shape) | seps
    if slow.size:
        at = np.unravel_index(slow, x.shape)
        text = ["%.17g" % v for v in flat[slow].tolist()]
        out[at + (slice(0, 5),)] = np.array(text, "S40").view(_WORD).reshape(
            -1, 5)
        out[at + (5,)] = np.broadcast_to(seps, x.shape)[at]
    return out


def _text(words: np.ndarray, lead: str) -> str:
    """``lead`` and the rows of an array of field words, without the
    ``lead`` that the last row's separator starts."""
    rows = words.tobytes().translate(None, b"\0")
    return lead + str(memoryview(rows)[:len(rows) - len(lead)], "ascii")


def table_text(table, sep: str = ",", lead: str = "") -> str:
    """``lead``, the fields of a row as ``'%.17g'`` joined by ``sep``, and
    a newline, for each row of a 2-D table of reals.  ``sep`` and ``lead``
    are ASCII; ``lead`` has at most three characters."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    nrows, ncols = table.shape
    seps = _separators(ncols, sep, lead)
    step = max(1, CHUNK_VALUES // ncols)
    return "".join(_text(fields(table[i:i + step], seps=seps), lead)
                   for i in range(0, nrows, step))


class GridText:
    """The CSV rows and the OBJ vertex lines of a grid, a chunk of points
    at a time, with each distinct value formatted once.

    A CSV row is u, v, x1..x4 and the further columns of a point: u and v
    are formatted once per grid, with their separators, and copied into
    the rows.  An OBJ vertex is the projected point; where a projected
    coordinate has the bits of x1, x2 or x3 (as under the default
    projection, except on -0.0), its field is copied from the CSV row.
    """

    def __init__(self, us, vs, csv_columns: int, obj: bool):
        """``us``, ``vs``: the u and v samples; ``csv_columns``: the CSV's
        column count, 0 for no CSV; ``obj``: whether to write vertex
        lines."""
        self.nv = len(vs)
        self.obj_seps = _separators(3, " ", "v ") if obj else None
        self.csv_seps = None
        if csv_columns:
            seps = self.csv_seps = _separators(csv_columns, ",", "")
            self.u_fields = fields(np.array(us), seps=seps[0])
            self.v_fields = fields(np.array(vs), seps=seps[1])
        # A chunk holds at most CHUNK_VALUES fields of CSV rows (of
        # vertices without a CSV).
        self.step = max(1, CHUNK_VALUES // (csv_columns or 3))

    def chunks(self, first: int, table: np.ndarray, xyz):
        """The CSV rows and the vertex lines of the grid's points from
        row-major index ``first`` on, as (rows, vertices) text per chunk of
        points.  ``table`` holds each point's x1..x4 and further CSV
        columns, and ``xyz`` its projected vertex; a text that was not
        asked for is empty."""
        csv, obj = self.csv_seps is not None, self.obj_seps is not None
        for i in range(0, len(table), self.step):
            x = table[i:i + self.step]
            rows = vertices = ""
            if csv:
                line, at = np.divmod(np.arange(first + i, first + i + len(x)),
                                     self.nv)
                words = np.empty((len(x), 2 + x.shape[1], _FIELD_WORDS),
                                 dtype=_WORD)
                words[:, 0] = self.u_fields.take(line, axis=0)
                words[:, 1] = self.v_fields.take(at, axis=0)
                fields(x, words[:, 2:], self.csv_seps[2:])
            if obj:
                p = xyz[i:i + self.step]
                if csv:
                    vertex = words[:, 2:5].copy()
                    vertex[..., 5] &= _M32     # the CSV's separators off
                    vertex[..., 5] |= self.obj_seps
                    fresh = p.view(np.uint64) != x[:, :3].view(np.uint64)
                    if fresh.any():
                        vertex[fresh] = fields(p[fresh], seps=np.broadcast_to(
                            self.obj_seps, p.shape)[fresh])
                else:
                    vertex = fields(p, seps=self.obj_seps)
                vertices = _text(vertex, "v ")
            if csv:
                rows = _text(words, "")
            yield rows, vertices


def int_text(ints, sep: str, lead: str) -> str:
    """``lead``, the fields of a row as ``'%d'`` writes them joined by
    ``sep``, and a newline, for each row of a non-empty 2-D array of ints
    in [0, 10^16).  ``sep`` and ``lead`` are ASCII; ``lead`` has at most
    three characters."""
    ints = np.asarray(ints, dtype=np.int64)
    ndigits = np.searchsorted(_POW10, ints, side="right") + 1
    groups = (int(ndigits.max()) + 3) // 4
    # Per int, the digit groups, most significant first, then the
    # separator: four-byte words, NUL for the leading zeros.
    words = np.empty(ints.shape + (groups + 1,), dtype="<u4")
    for j in range(groups):
        words[..., groups - 1 - j] = _DIGITS4.take(
            ints // 10 ** (4 * j) % 10 ** 4)
    digits = words[..., :groups].view(np.uint8)
    digits &= _DIGIT_MASKS[:, 16 - 4 * groups:].take(ndigits, axis=0)
    words[..., groups] = np.frombuffer(
        b"".join(s.encode("ascii").ljust(4, b"\0")
                 for s in [sep] * (ints.shape[1] - 1) + ["\n" + lead]),
        dtype="<u4")
    return _text(words, lead)


def face_text(nv: int, first: int, stop: int) -> str:
    """The OBJ face lines of the grid cells between u lines i and i + 1,
    for first <= i < stop, on a grid with nv samples per u line.

    The cell at v sample j has the 1-based corners a = i*nv + j + 1,
    b = a + 1, c = a + nv and d = c + 1, and becomes the triangles
    (a, b, d) and (a, d, c).
    """
    a = np.arange(first, stop)[:, None] * nv + np.arange(1, nv)
    corners = a[..., None] + np.array([0, 1, nv + 1, 0, nv + 1, nv])
    return int_text(corners.reshape(-1, 3), " ", "f ")
