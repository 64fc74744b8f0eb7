"""The text of '%.17g' % x for every float of an array, built by numpy.

records(values) gives each value a 32-byte record holding exactly the bytes
that CPython's '%.17g' % x writes, with NULs between its parts; deleting the
NULs (bytes.translate(None, b"\\0")) leaves the text. Byte 0 is NUL, a slot
for a separator before the field. Byte 1 is the sign, '-' or NUL, so XOR-ing
word 0 with SIGN gives the text of -x, except for nan, which '%' never signs.

The digits are exact, as in Grisu (Loitsch, PLDI 2010): with
X = floor(log10|x|), the 17-digit mantissa is |x|·10^(16-X) rounded to an
integer, and that product is formed as a double-double, Dekker's exact
product against a double-double table of 10^k built from Python ints, with
an error below 1e-14 of a unit in the 17th digit. A value goes to '%'
itself when that leaves the rounding undecided (the fraction within
_TIE_BAND of 1/2, ties included); when the product's floor, or its rounding,
lies outside [1e16, 1e17) (log10 misjudged X, or the rounding carries into
the next decade); when |x| lies outside [1e_X_MIN, 1e(_X_MAX+1)), subnormals
among them; and for inf and nan. Zero is written as '0'.

Text: the digits come from a table of 4-digit ASCII words, and one layout
table, keyed by the exponent's form and the number of significant digits,
gives %g's layout: fixed notation for -4 <= X <= 16 and exponent form
otherwise, trailing zeros and a bare point stripped, the exponent with a sign
and at least two digits. Each record is four little-endian uint64 words:
separator slot, sign and the "0.000" prefix of a small fixed number in word
0, the digits with their point in words 1-3, the exponent after them in
bytes 26..30 of word 3.
"""

from __future__ import annotations

import functools

import numpy as np

WORDS = 4  # uint64 words per record (32 bytes)
SIGN = np.uint64(ord("-") << 8)  # the sign's bits in word 0

# The exact path handles 1e_X_MIN <= |x| < 1e(_X_MAX+1): its tables hold
# 10^(16-X) for every X = floor(log10|x|) there, one more on each side for
# log10's rounding, and Dekker's splits of |x| and of 10^(16-X) stay in range.
_X_MIN, _X_MAX = -290, 290
# A product whose fraction lies this close to 1/2 is left to '%': its error is
# below 1e-14 (the table's 2^-106 relative, one rounding of |x|·lo and one of
# the final sum, each under 2e-15 at a product below 1e17), so the exact path
# never rounds a value the wrong way.
_TIE_BAND = 1e-6
_SPLIT = float(2**27 + 1)  # Veltkamp's splitter for 53-bit doubles
_LO, _HI = 10**16, 10**17  # the range of a 17-digit mantissa


def records(values) -> np.ndarray:
    """values.shape + (WORDS,) uint64 ('<u8'): the '%.17g' record of each float (see module)."""
    v = np.asarray(values, dtype=float)
    flat = v.ravel()
    n, x, exact = _mantissas(flat)
    out = np.empty((flat.size, WORDS), dtype="<u8")
    _write_digits(out, n, x, np.signbit(flat) * SIGN)  # nan's record is rewritten below
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        text = out.view(np.uint8).reshape(-1, 8 * WORDS)
        for i, value in zip(inexact.tolist(), flat[inexact].tolist()):
            body = ("%.17g" % value).encode("ascii")
            text[i] = 0
            if body[:1] == b"-":
                text[i, 1], body = body[0], body[1:]
            text[i, 2 : 2 + len(body)] = np.frombuffer(body, np.uint8)
    return out.reshape(v.shape + (WORDS,))


def _mantissas(flat: np.ndarray):
    """For each value: the 17-digit mantissa N, the exponent X, and whether both are exact.

    |x| = N·10^(X-16) after rounding to 17 significant digits; zero is
    exact, with N = 0 and X = 0. Where the exact path cannot decide (see
    module), N is 10^16 and X meaningless, but within the tables' range.
    """
    mag = np.abs(flat)
    exact = (mag >= 10.0**_X_MIN) & (mag < 10.0 ** (_X_MAX + 1))
    mag[~exact] = 1.0
    x = np.floor(np.log10(mag)).astype(np.int64)
    # |x|·10^(16-X) = p + r up to the table's rounding: p = fl(|x|·hi) and r
    # the rest, Dekker's exact error of that product plus |x|·lo.
    index = _X_MAX + 1 - x
    hi, lo, hi_h = (row[index] for row in _powers())
    p = mag * hi
    mag_h = mag * _SPLIT
    mag_h -= mag_h - mag
    mag_l = mag - mag_h
    hi -= hi_h  # hi_l
    r = mag_h * hi_h
    r -= p
    r += mag_h * hi
    r += mag_l * hi_h
    r += mag_l * hi
    r += mag * lo
    floor = np.floor(r)
    r -= floor
    n = p.astype(np.int64)
    n += floor.astype(np.int64)
    exact &= (np.abs(r - 0.5) > _TIE_BAND) & (n >= _LO)
    n += r > 0.5
    exact &= n < _HI  # also where the rounding carries into the next decade
    zero = flat == 0.0  # |x| was set to 1, so X is 0
    n = np.where(exact, n, np.where(zero, 0, _LO))
    exact |= zero
    return n, x, exact


def _write_digits(out: np.ndarray, n: np.ndarray, x: np.ndarray, signs: np.ndarray) -> None:
    """Write the record of each N·10^(X-16), with its sign bits, into the rows of out; N = 0 is "0"."""
    top = n // 10**9  # digits d0..d7
    low = n - top * 10**9
    mid = low // 10  # d8..d15
    last = low - mid * 10  # d16
    c0, c2 = top // 10**4, mid // 10**4
    chunks = (c0, top - c0 * 10**4, c2, mid - c2 * 10**4)
    ascii4, zeros4 = _digits()
    s = (
        ascii4[chunks[0]] | ascii4[chunks[1]] << np.uint64(32),
        ascii4[chunks[2]] | ascii4[chunks[3]] << np.uint64(32),
        (last + ord("0")).astype(np.uint64),
    )
    t = zeros4[chunks[0]]
    for chunk in chunks[1:]:  # trailing zeros of the 16 digits d0..d15
        t = np.where(chunk == 0, t + 4, zeros4[chunk])
    t = np.where(last == 0, t + 1, 0)  # 17 only for N = 0
    forms, suffixes = _exponents()
    xi = x - (_X_MIN - 1)
    key = forms[xi] - t
    layout = _layouts()
    out[:, 0] = layout[0][key] | signs
    carried = np.uint64(0)
    for k in range(3):  # the digits after the point move one byte up to make room for it
        kept = layout[1 + k][key]
        kept &= s[k]
        after = s[k] ^ kept
        word = after << np.uint64(8)
        word |= kept
        word |= carried
        word |= layout[7 + k][key]
        word &= layout[4 + k][key]
        out[:, k + 1] = word
        carried = after >> np.uint64(56)
    out[:, 3] |= suffixes[xi]


@functools.cache
def _powers() -> np.ndarray:
    """Rows hi, lo, hi_h: 10^k = hi + lo for k = 16 - X, X from _X_MAX + 1 down to _X_MIN - 1.

    hi is 10^k rounded and lo the rest rounded; hi_h is the high half of
    Veltkamp's split of hi, formed on hi's mantissa so that no product
    overflows.
    """
    hi, lo = [], []
    for k in range(15 - _X_MAX, 18 - _X_MIN):
        if k >= 0:
            h = float(10**k)
            rest = float(10**k - int(h))
        else:
            q = 10**-k
            h = 1 / q  # int true division rounds correctly
            m, e = h.as_integer_ratio()
            rest = (e - m * q) / (e * q)
        hi.append(h)
        lo.append(rest)
    mant, exp = np.frexp(hi)
    c = mant * _SPLIT
    return _frozen(np.stack([hi, lo, np.ldexp(c - (c - mant), exp)]))


@functools.cache
def _digits() -> tuple[np.ndarray, np.ndarray]:
    """For every c < 10^4: its 4 ASCII digits as a little-endian word, and its trailing zeros.

    Zero has 4 trailing zeros.
    """
    c = np.arange(10**4)
    ascii4 = sum((c // 10 ** (3 - k) % 10 + ord("0")) << (8 * k) for k in range(4))
    zeros = sum((c % 10**k == 0).astype(np.int64) for k in range(1, 5))
    return _frozen(ascii4.astype(np.uint64)), _frozen(zeros)


@functools.cache
def _layouts() -> np.ndarray:
    """%g's layout of 17 digits, one column per (form, significant digits): (10, 22 * 18) uint64.

    Column form * 18 + sig; form 0 is exponent form, form X + 5 fixed
    notation at exponent X in [-4, 16]. Rows: word 0 of the record (the
    "0.000" prefix of X < 0 in bytes 2..6); the mask of the digits before the
    point, 3 words; the mask of the digits kept, point included, 3 words; the
    point, 3 words, kept only if digits follow it. Sig 0 is zero, "0".
    """
    form, sig = np.divmod(np.arange(22 * 18), 18)
    point = np.select([form == 0, form >= 5], [1, form - 4], 17)  # 17: no point
    size = np.select([form == 0, form >= 5], [sig, np.maximum(sig, point)], sig) + (sig > point)
    size[sig == 0] = 0
    prefixes = np.zeros(22, dtype=np.uint64)
    prefixes[1:5] = [int.from_bytes(b"0." + b"0" * (4 - f), "little") << 16 for f in range(1, 5)]
    word0 = np.where(sig == 0, np.uint64(ord("0") << 16), prefixes[form])
    first = 64 * np.arange(3)[:, None]  # the first bit of each digit word
    one = np.uint64(1)

    def below(count):  # the words of the mask of bytes [0, count)
        shift = np.clip(8 * count - first, 0, 64).astype(np.uint64)
        return np.where(shift == 64, ~np.uint64(0), (one << shift % np.uint64(64)) - one)

    dot = 8 * point - first
    dots = np.where((dot >= 0) & (dot < 64), np.uint64(ord(".")) << (dot % 64).astype(np.uint64), 0)
    return _frozen(np.concatenate([word0[None], below(point), below(size), dots]))


@functools.cache
def _exponents() -> tuple[np.ndarray, np.ndarray]:
    """For X from _X_MIN - 1 to _X_MAX + 1: its _layouts column at 17 digits, and word 3's exponent.

    The exponent ("e-05" in bytes 26..30) is 0 in fixed notation.
    """
    xs = range(_X_MIN - 1, _X_MAX + 2)
    fixed = [-4 <= x <= 16 for x in xs]
    forms = [18 * (x + 5 if f else 0) + 17 for x, f in zip(xs, fixed)]
    exps = [0 if f else int.from_bytes(b"e%+03d" % x, "little") << 16 for x, f in zip(xs, fixed)]
    return _frozen(np.array(forms)), _frozen(np.array(exps, dtype=np.uint64))


def _frozen(table: np.ndarray) -> np.ndarray:
    """table, made read-only: each cached table is shared by every call."""
    table.flags.writeable = False
    return table
