"""fieldtext.records against its oracle, CPython's '%.17g' % x, field by field."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from effectdyn import fieldtext


def _texts(values, negated=False) -> list[str]:
    """The text of each value's record, or of the record with its sign toggled."""
    words = fieldtext.records(values)
    if negated:
        words[:, 0] ^= np.where(np.isnan(values), np.uint64(0), fieldtext.SIGN)
    words[:, 0] |= np.uint64(ord("\n"))  # the separator slot
    return words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[1:]


def _mismatches(values) -> list:
    """The first values whose text, or whose sign-toggled text, is not '%' of it."""
    values = np.asarray(values, dtype=float).ravel()
    floats = values.tolist()
    misses = []
    for sign, texts in ((1.0, _texts(values)), (-1.0, _texts(values, negated=True))):
        misses += [(x, t) for x, t in zip(floats, texts) if t != "%.17g" % (sign * x)][:5]
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
    _, _, exact = fieldtext._mantissas(values)
    assert not exact.any()
    assert _mismatches(values) == []
    # zero and ordinary values take the exact path
    _, _, exact = fieldtext._mantissas(np.array([0.0, -0.0, 0.1, -1234567890123456.5]))
    assert exact.all()


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_a_misjudged_exponent_falls_back_to_percent(rng, monkeypatch, error):
    # with log10 off by one, every product's floor lies outside [1e16, 1e17):
    # each nonzero value goes to '%', and its text is still exact
    values = rng.standard_normal(500) * 10.0 ** rng.integers(-30, 30, 500)
    values[::50] = 0.0
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda m: log10(m) + error)
    _, _, exact = fieldtext._mantissas(values)
    assert np.array_equal(exact, values == 0.0)
    assert _mismatches(values) == []


def test_records_keep_the_shape_of_the_values(rng):
    values = rng.standard_normal((3, 5))
    words = fieldtext.records(values)
    assert words.shape == (3, 5, fieldtext.WORDS)
    assert np.array_equal(words.reshape(15, -1), fieldtext.records(values.ravel()))
