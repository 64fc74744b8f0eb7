"""The text of '%.17g' % x, or of float.__repr__(x), for every float of an array, built by numpy.

records(values) gives each value a 32-byte record holding exactly the bytes
that CPython's '%.17g' % x writes, and repr_records(values) one holding those
of float.__repr__(x), with NULs between their parts; deleting the NULs
(bytes.translate(None, b"\\0")) leaves the text. Byte 0 is NUL, a slot for a
separator before the field. Byte 1 is the sign, '-' or NUL, so XOR-ing word 0
with SIGN gives the text of -x, except for nan, which neither ever signs.

The digits are exact, as in Grisu (Loitsch, PLDI 2010), and one routine,
_mantissas, forms them for both formats: with X = floor(log10|x|),
|x|·10^(16-X) = N + f, N the integer part and f the fraction, is formed as a
double-double, Dekker's exact product against a double-double table of 10^k
built from Python ints, with an error below 1e-14 of a unit in the 17th
digit. '%.17g' takes N + f rounded. repr takes the shortest digits that
read back as x (Ryū: Adams, PLDI 2018): in the same units, x's rounding
interval is N + f ± u, u = 2^(e-54)·10^(16-X) half its ulp (e from frexp),
between 0.555 and 11.1. The nearest multiple of 100 to N + f is taken if it
lies within u (15 digits), else the nearest multiple of 10 (16), else N + f
rounded (17, always within); among the shortest, repr's is the nearest.

A value goes to '%' or repr itself when the exact path cannot decide it:
when a comparison falls within _TIE_BAND of a tie (f against 1/2, a
distance against u, the two multiples of 10 at the same distance), ties
included; when the product's floor, or its rounding, lies outside
[1e16, 1e17) (log10 misjudged X, or the rounding carries into the next
decade); when |x| lies outside [1e_X_MIN, 1e(_X_MAX+1)), subnormals among
them; and for inf and nan. repr also leaves to itself a power of two, whose
interval is narrower below it, and a value whose interval holds a multiple
of 1000 (14 digits or fewer), which is about 0.6 % of an observable's
entries. Zero is written as '0' by records and as '0.0' by repr_records;
±0 was 8 % of the entries of the calculus benchmark's outputs. '%' wrote
3 of the 2.2 million fields of one benchmark run's evolve trajectories.

Text: the digits come from a table of 4-digit ASCII words, and one layout
table, keyed by the exponent's form and the number of significant digits,
gives the layout. %g's: fixed notation for -4 <= X <= 16, exponent form
otherwise, trailing zeros and a bare point stripped. repr's: fixed notation
for -4 <= X <= 15, with ".0" after a point no digit follows. Both write the
exponent with a sign and at least two digits. Each record is four
little-endian uint64 words: separator slot, sign and the "0.000" prefix of a
small fixed number in word 0, the digits with their point in words 1-3, the
exponent after them in bytes 26..30 of word 3.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import readonly

WORDS = 4  # uint64 words per record (32 bytes)
SIGN = np.uint64(ord("-") << 8)  # the sign's bits in word 0

# The exact path handles 1e_X_MIN <= |x| < 1e(_X_MAX+1): its tables hold
# 10^(16-X) for every X = floor(log10|x|) there, one more on each side for
# log10's rounding, and Dekker's splits of |x| and of 10^(16-X) stay in range.
_X_MIN, _X_MAX = -290, 290
# A product whose fraction lies this close to 1/2 is left to '%': its error is
# below 1e-14 (the table's 2^-106 relative, one rounding of |x|·lo and one of
# the final sum, each under 2e-15 at a product below 1e17), so the exact path
# never rounds a value the wrong way. repr's comparisons add one rounding of
# a sum below 1000 (under 6e-14) and u's (under 2e-15): the band holds them too.
_TIE_BAND = 1e-6
_SPLIT = float(2**27 + 1)  # Veltkamp's splitter for 53-bit doubles
_LO, _HI = 10**16, 10**17  # the range of a 17-digit mantissa
_MODULI = np.array([[10.0], [100.0], [1000.0]])  # for dropping 1, 2 or 3 of the 17 digits
_MODULI_HALVES = _MODULI / 2


def records(values) -> np.ndarray:
    """values.shape + (WORDS,) uint64 ('<u8'): the '%.17g' record of each float (see module)."""
    return _records(values, shortest=False)


def repr_records(values) -> np.ndarray:
    """values.shape + (WORDS,) uint64 ('<u8'): the float.__repr__ record of each float (see module)."""
    return _records(values, shortest=True)


def _records(values, shortest: bool) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    flat = v.ravel()
    n, x, exact, zeros = _mantissas(flat, shortest)
    out = np.empty((flat.size, WORDS), dtype="<u8")
    _write_digits(out, n, x, np.signbit(flat) * SIGN, shortest, zeros)  # nan's is rewritten below
    inexact = np.flatnonzero(~exact)
    if inexact.size:  # '%' or repr writes these: the sign in byte 1, the rest from byte 2
        fmt = float.__repr__ if shortest else "%.17g".__mod__
        bodies = [fmt(value).encode("ascii") for value in flat[inexact].tolist()]
        fields = [b"\0" + (b if b[:1] == b"-" else b"\0" + b) for b in bodies]
        rows = b"".join(f.ljust(8 * WORDS, b"\0") for f in fields)
        out[inexact] = np.frombuffer(rows, dtype="<u8").reshape(-1, WORDS)
    return out.reshape(v.shape + (WORDS,))


def _mantissas(flat: np.ndarray, shortest: bool):
    """For each value: its mantissa N, the exponent X, whether both are exact, and N's trailing zeros.

    |x| = N·10^(X-16), N x rounded to 17 significant digits or, if shortest,
    the shortest digits that round back to x, padded to 17 (see module).
    Zero is exact, with N = 0 and X = 0. Where the exact path cannot decide,
    N is 10^16 and X meaningless, but within the tables' range. The trailing
    zeros are None for 17 digits (_write_digits counts them). The shortest
    search knows them: no multiple of 1000 fits where it decides, so N has 2
    if a multiple of 100 fits, 1 if one of 10 does, else 0 (17 for zero).
    """
    mag = np.abs(flat)
    exact = (mag >= 10.0**_X_MIN) & (mag < 10.0 ** (_X_MAX + 1))
    mag[~exact] = 1.0  # so X is 0 there, zero included
    x = np.floor(np.log10(mag)).astype(np.int64)
    # |x|·10^(16-X) = p + r up to the table's rounding: p = fl(|x|·hi) and r
    # the rest, Dekker's exact error of that product plus |x|·lo.
    hi, lo, hi_h, hi_l = _powers().take(_X_MAX + 1 - x, axis=1)
    p = mag * hi
    mag_h = mag * _SPLIT
    mag_h -= mag_h - mag
    mag_l = mag - mag_h
    r = mag_h * hi_h
    r -= p
    r += mag_h * hi_l
    r += mag_l * hi_h
    r += mag_l * hi_l
    r += mag * lo
    floor = np.floor(r)
    r -= floor
    n = p.astype(np.int64)
    n += floor.astype(np.int64)
    exact &= (n >= _LO) & (n < _HI)
    del p, mag_h, mag_l, floor  # freed first, the search takes about 5 % less time at 2048 floats
    zero = flat == 0.0
    zeros = None
    if shortest:
        mant, e = np.frexp(mag)
        e -= 54  # |x| = mant·2^e with 1/2 <= mant < 1, so half its ulp is 2^(e-54)
        u = np.ldexp(hi, e)  # 2^(e-54)·10^(16-X) to hi's rounding, below 2e-15
        q = n - n // 1000 * 1000  # N mod 1000 (faster than %)
        below, base = _rests().take(q, axis=1).reshape(2, 3, -1)
        below += r  # N + f less the multiple of 10, 100, 1000 at or below it
        up = below > _MODULI_HALVES
        bands = np.empty((5, flat.size))  # each comparison, to be decided outside _TIE_BAND
        gaps = np.subtract(_MODULI, below, out=bands[:3])
        np.minimum(gaps, below, out=gaps)  # to the nearest multiple
        gaps -= u
        fits = gaps < 0
        # u may exceed 5, where two multiples of 10 fit: repr takes the nearer
        np.subtract(below[0], 5, out=bands[3])
        np.subtract(r, 0.5, out=bands[4])
        exact &= (np.abs(bands, out=bands) > _TIE_BAND).all(axis=0)
        exact &= (mant != 0.5) & ~fits[2]  # power of two: its interval below is half as wide
        base += _MODULI * up  # the nearest multiple of each m, less N - q
        n -= q
        n += np.where(fits[1], base[1], np.where(fits[0], base[0], q + (r > 0.5))).astype(np.int64)
        zeros = np.where(zero, 17, fits[0] + fits[1].astype(np.int8))  # 17: zero's "0.0"
    else:
        exact &= np.abs(r - 0.5) > _TIE_BAND
        n += r > 0.5
    exact &= n < _HI  # a carry into the next decade (for repr, a multiple of 1000 fits there too)
    n = np.where(exact, n, np.where(zero, 0, _LO))
    exact |= zero
    return n, x, exact, zeros


def _write_digits(
    out: np.ndarray, n: np.ndarray, x: np.ndarray, signs: np.ndarray, shortest: bool, zeros
) -> None:
    """Write the record of each N·10^(X-16), with its sign bits, into the rows of out.

    zeros holds the trailing zeros of each N, counted here if None (17 for
    N = 0); the record of a value with 17 is zero's, whatever its N.
    """
    halves = np.empty((2, n.size), dtype=np.int64)
    top = np.floor_divide(n, 10**9, out=halves[0])  # d0..d7
    low = n - top * 10**9
    mid = np.floor_divide(low, 10, out=halves[1])  # d8..d15
    last = low - mid * 10  # d16
    high = halves // 10**4  # d0..d3, d8..d11
    halves -= high * 10**4  # d4..d7, d12..d15
    ascii4, zeros4 = _digits()
    digits = np.empty((3, n.size), dtype=np.uint64)  # words 1-3 before the point goes in
    digits[:2] = ascii4[halves]
    digits[:2] <<= np.uint64(32)
    digits[:2] |= ascii4[high]
    digits[2] = last + ord("0")
    if zeros is None:
        # those of each 4-digit chunk (4 for a 0 chunk), added up from the
        # last chunk of d0..d15 while the chunks are 0, then d16's
        z_high, z_low = zeros4[high], zeros4[halves]
        zeros = z_low[0] + (z_low[0] == 4) * z_high[0]
        zeros = z_high[1] + (z_high[1] == 4) * zeros
        zeros = z_low[1] + (z_low[1] == 4) * zeros
        zeros = (last == 0) * (zeros + 1)
    forms, suffixes = _exponents(shortest)
    xi = x - (_X_MIN - 1)
    layout = _layouts(shortest).take(forms[xi] - zeros, axis=1)
    out[:, 0] = layout[0] | signs
    kept = np.bitwise_and(layout[1:4], digits, out=layout[1:4])  # the digits before the point
    digits ^= kept  # and those after it, which move one byte up to make room for it
    carried = digits[:2] >> np.uint64(56)
    digits <<= np.uint64(8)
    digits[1:] |= carried
    digits |= kept
    digits |= layout[7:10]
    digits &= layout[4:7]
    digits[2] |= suffixes[xi]
    out[:, 1:] = digits.T


@functools.cache
def _powers() -> np.ndarray:
    """Rows hi, lo, hi_h, hi_l: 10^k = hi + lo for k = 16 - X, X from _X_MAX + 1 down to _X_MIN - 1.

    hi is 10^k rounded and lo the rest rounded; hi_h + hi_l = hi is
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
    hi_h = np.ldexp(c - (c - mant), exp)
    return readonly(np.stack([hi, lo, hi_h, hi - hi_h]))


@functools.cache
def _rests() -> np.ndarray:
    """For every q < 1000, as floats: q mod 10, 100 and 1000, then q less each of those.

    Columns of a (6, 1000) table, so that one take reads all six for a stack of q.
    """
    q = np.arange(1000.0)
    rest = np.fmod(q, _MODULI)
    return readonly(np.concatenate([rest, q - rest]))


@functools.cache
def _digits() -> tuple[np.ndarray, np.ndarray]:
    """For every c < 10^4: its 4 ASCII digits as a little-endian word, and its trailing zeros.

    Zero has 4 trailing zeros.
    """
    digit = np.arange(10, dtype=np.uint32)
    ascii4 = ord("0") + digit  # the numbers below 10, each digit in byte 0
    zeros = (digit == 0).astype(np.int8)
    for k in range(1, 4):  # append a digit on the right, in byte k, along a new last axis
        ascii4 = ascii4[..., None] | (ord("0") + digit) << np.uint32(8 * k)
        zeros = (digit == 0) * (zeros[..., None] + 1)
    return readonly(ascii4.ravel()), readonly(zeros.ravel())


@functools.cache
def _layouts(shortest: bool) -> np.ndarray:
    """The layout of 17 digits, one column per (form, significant digits): (10, 22 * 18) uint64.

    Column form * 18 + sig; form 0 is exponent form, form X + 5 fixed
    notation at exponent X in [-4, 16]. Rows: word 0 of the record (the
    "0.000" prefix of X < 0 in bytes 2..6); the mask of the digits before the
    point, 3 words; the mask of the digits kept, point included, 3 words; the
    point, 3 words, kept only if digits follow it. Sig 0 is zero. %g's
    layout (not shortest) strips a bare point and writes zero as "0"; repr's
    (shortest) keeps one digit, a 0, after the point of fixed X >= 0 and
    writes zero as "0.0".
    """
    form, sig = np.divmod(np.arange(22 * 18), 18)
    point = np.select([form == 0, form >= 5], [1, form - 4], 17)  # 17: no point
    digits = np.select([form == 0, form >= 5], [sig, np.maximum(sig, point + shortest)], sig)
    size = digits + (digits > point)
    size[sig == 0] = 0
    prefixes = np.zeros(22, dtype=np.uint64)
    prefixes[1:5] = [int.from_bytes(b"0." + b"0" * (4 - f), "little") << 16 for f in range(1, 5)]
    zero = int.from_bytes(b"0.0" if shortest else b"0", "little") << 16
    word0 = np.where(sig == 0, np.uint64(zero), prefixes[form])
    first = 64 * np.arange(3)[:, None]  # the first bit of each digit word
    one = np.uint64(1)

    def below(count):  # the words of the mask of bytes [0, count)
        shift = np.clip(8 * count - first, 0, 64).astype(np.uint64)
        return np.where(shift == 64, ~np.uint64(0), (one << shift % np.uint64(64)) - one)

    dot = 8 * point - first
    dots = np.where((dot >= 0) & (dot < 64), np.uint64(ord(".")) << (dot % 64).astype(np.uint64), 0)
    return readonly(np.concatenate([word0[None], below(point), below(size), dots]))


@functools.cache
def _exponents(shortest: bool) -> tuple[np.ndarray, np.ndarray]:
    """For X from _X_MIN - 1 to _X_MAX + 1: its _layouts column at 17 digits, and word 3's exponent.

    Fixed notation is %g's for -4 <= X <= 16 and repr's (shortest) for
    -4 <= X <= 15. The exponent ("e-05" in bytes 26..30) is 0 in fixed
    notation.
    """
    xs = range(_X_MIN - 1, _X_MAX + 2)
    fixed = [-4 <= x <= 16 - shortest for x in xs]
    forms = [18 * (x + 5 if f else 0) + 17 for x, f in zip(xs, fixed)]
    exps = [0 if f else int.from_bytes(b"e%+03d" % x, "little") << 16 for x, f in zip(xs, fixed)]
    return readonly(np.array(forms)), readonly(np.array(exps, dtype=np.uint64))
