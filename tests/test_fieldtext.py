"""fieldtext.records and repr_records against their oracles, CPython's '%.17g' % x and
float.__repr__(x), field by field."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from effectdyn import fieldtext

PERCENT = (fieldtext.records, "%.17g".__mod__)
REPR = (fieldtext.repr_records, float.__repr__)


def _texts(values, negated=False, kernel=fieldtext.records) -> list[str]:
    """The text of each value's record, or of the record with its sign toggled."""
    words = kernel(values).reshape(-1, fieldtext.WORDS)
    if negated:
        words[:, 0] ^= np.where(np.isnan(values), np.uint64(0), fieldtext.SIGN)
    words[:, 0] |= np.uint64(ord("\n"))  # the separator slot
    return words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[1:]


def _mismatches(values, kernel_and_oracle=PERCENT) -> list:
    """The first values whose text, or whose sign-toggled text, is not the oracle's text of it."""
    kernel, oracle = kernel_and_oracle
    values = np.asarray(values, dtype=float).ravel()
    floats = values.tolist()
    misses = []
    for sign, negated in ((1.0, False), (-1.0, True)):
        texts = _texts(values, negated, kernel)
        assert len(texts) == len(floats)
        misses += [(x, t) for x, t in zip(floats, texts) if t != oracle(sign * x)][:5]
    return misses


def test_records_match_percent_on_random_bit_patterns(rng):
    # uniform uint64 patterns cover every exponent, both signs, subnormals,
    # inf and nan payloads
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert _mismatches(bits.view(float)) == []


def test_records_match_percent_on_adversarial_values():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += powers
    values += [float(np.nextafter(p, side)) for p in powers for side in (0.0, np.inf)]
    # just below a power of ten, rounding at 17 digits into the next decade
    values += [1e-14, 1e98, 1e-79, 1e220, 9.9999999999999999e22]
    values += [2.0**53 - 1, 2.0**53, 2.0**53 + 2, float(2**63), 0.5, 0.1, 1 / 3]
    # where %g switches between fixed and exponent form, and either side
    for switch in (1e16, 1e17, 1e-4, 1e-5):
        values += [switch, float(np.nextafter(switch, 0.0)), float(np.nextafter(switch, np.inf))]
    values += [123.5, 100.0, 1e15 + 0.5, 0.00012, 1.5e-5, 12345678901234567.0]
    values += [np.inf, -np.inf, np.nan, -np.nan]
    assert _mismatches(values + [-v for v in values]) == []


def test_each_fallback_branch_is_taken_and_matches_percent():
    tie = 1234567890123456.25  # 18 significant digits, ending in 5: an exact tie at 17
    assert Decimal(tie).as_tuple().digits[-1] == 5 and len(Decimal(tie).as_tuple().digits) == 18
    # no tie, but 2^-36 past one: x·10^16 has the fraction 1/2 + 2^-36
    near_tie = ((2**35 + 1) * pow(5**16, -1, 2**36) % 2**36 + 2**52) / 2**52
    assert Fraction(near_tie) * 10**16 % 1 == Fraction(2**35 + 1, 2**36)
    below = 1e-280  # below 10^-280, so its exponent is -281, and log10 says -280
    assert np.floor(np.log10(below)) == -280 and ("%.17g" % below).endswith("e-281")
    out_of_range = [5e-324, 1e-300, 1e300, 1.7976931348623157e308]
    values = np.array([tie, near_tie, below, *out_of_range, np.inf, -np.inf, np.nan])
    exact = fieldtext._mantissas(values, False)[2]
    assert not exact.any()
    assert _mismatches(values) == []
    # zero and ordinary values take the exact path
    exact = fieldtext._mantissas(np.array([0.0, -0.0, 0.1, -1234567890123456.5]), False)[2]
    assert exact.all()


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_a_misjudged_exponent_falls_back_to_percent(rng, monkeypatch, error):
    # with log10 off by one, every product's floor lies outside [1e16, 1e17):
    # each nonzero value goes to '%', and its text is still exact
    values = rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)
    values[::50] = 0.0
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda m: log10(m) + error)
    exact = fieldtext._mantissas(values, False)[2]
    assert np.array_equal(exact, values == 0.0)
    assert _mismatches(values) == []


def test_records_keep_the_shape_of_the_values(rng):
    values = rng.standard_normal((3, 5))
    words = fieldtext.records(values)
    assert words.shape == (3, 5, fieldtext.WORDS)
    assert np.array_equal(words.reshape(15, -1), fieldtext.records(values.ravel()))


# -- repr_records: the text of float.__repr__ --------------------------------


def _decided(values) -> np.ndarray:
    """Whether the vectorized path writes each value itself (not float.__repr__)."""
    return fieldtext._mantissas(np.array(values, dtype=float), True)[2]


def test_repr_records_match_repr_on_random_bit_patterns(rng):
    # every exponent, both signs, subnormals, inf and nan payloads
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert _mismatches(bits.view(float), REPR) == []


def test_repr_records_match_repr_on_adversarial_values():
    powers = [float(f"1e{k}") for k in range(-323, 309)] + [2.0**k for k in range(-1074, 1024)]
    values = [float(np.nextafter(p, side)) for p in powers for side in (0.0, np.inf)] + powers
    # where repr switches between fixed and exponent form, and either side
    for switch in (1e16, 1e-4, 1e-5):
        values += [switch, float(np.nextafter(switch, 0.0)), float(np.nextafter(switch, np.inf))]
    values += [9999999999999998.0, 999999999999999.9, 123456789012345.6, 0.0001, 0.00012]
    values += [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    values += [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 0.1, 1 / 3, 2 / 3, 0.30000000000000004]
    assert _mismatches(values + [-v for v in values], REPR) == []


def test_repr_records_match_repr_on_short_decimals(rng):
    # values with 1 to 15 significant digits, at exponents across the range:
    # their rounding intervals hold a multiple of 1000 in the 17th digit
    values = []
    for digits in range(1, 16):
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, 200)
        exponents = rng.integers(-300, 300, 200)
        values += [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    assert _mismatches(values + [-v for v in values], REPR) == []


def test_repr_records_write_zeros_and_ordinary_values_themselves(rng):
    # 15 to 17 significant digits, in fixed and exponent form
    values = [0.0, -0.0, 1 / 3, -0.7071067811865476, 123.45678901234567, 0.123456789012345]
    values += [1e-5 * np.pi, 1e20 / 3]
    assert _decided(values).all()
    assert _texts([0.0, -0.0], kernel=fieldtext.repr_records) == ["0.0", "-0.0"]
    # in an observable's entries, almost every value is decided
    entries = rng.standard_normal(10**4) * 0.3
    assert _decided(entries).mean() > 0.98


def test_each_repr_fallback_branch_is_taken_and_matches_repr():
    # 18 significant digits, ending in 5: a tie at 17, fraction exactly 1/2
    tie17 = 1234567890123456.25
    # 60000000000000025 in units of the 17th digit, and u = 6.25: the multiples
    # of 10 on both sides lie within the interval, at the same distance
    tie10 = 600000000000000.25
    # x + half its ulp (128) is 16000·m, a multiple of 10 in the 17th digit:
    # that multiple lies exactly on the boundary of the rounding interval
    m = 72057594037929
    boundary = float(16000 * m - 128)
    assert boundary == 16000 * m - 128 and np.spacing(boundary) == 256
    power_of_two = 2.0**-30  # 16 digits; its interval below is half as wide
    short = [0.5, 123.25, 1e-5, 1e23]  # a multiple of 1000 fits: 14 digits or fewer
    out_of_range = [5e-324, 1e-300, 1e300, 1.7976931348623157e308]
    values = [tie17, tie10, boundary, power_of_two, *short, *out_of_range, np.inf, -np.inf, np.nan]
    assert not _decided(values).any()
    assert _mismatches(values + [-v for v in values], REPR) == []


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_a_misjudged_exponent_falls_back_to_repr(rng, monkeypatch, error):
    values = rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)
    values[::50] = 0.0
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda m: log10(m) + error)
    assert np.array_equal(_decided(values), values == 0.0)
    assert _mismatches(values, REPR) == []


def test_repr_records_keep_the_shape_of_the_values(rng):
    values = rng.standard_normal((3, 5))
    words = fieldtext.repr_records(values)
    assert words.shape == (3, 5, fieldtext.WORDS)
    assert np.array_equal(words.reshape(15, -1), fieldtext.repr_records(values.ravel()))
    assert fieldtext.repr_records(np.empty(0)).shape == (0, fieldtext.WORDS)
