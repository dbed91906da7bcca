"""precision.sig_str, the one decimal formatter of reported numbers,
against mpmath's to_str, which the records printed before: random
dyadic values at the scales the root reports use, exact ties, carries
into a new digit, and both layouts (fixed point and exponent)."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath.libmp import from_man_exp, to_str

from pellzero.precision import sig_str


def test_random_dyadics_match_to_str():
    rng = random.Random(7)
    for _ in range(20000):
        P = rng.choice([20, 53, 144, 272, 406])
        man = rng.randrange(-(1 << (P + 8)), 1 << (P + 8))
        exp = rng.randrange(-P - 40, 40)
        n = rng.choice([1, 2, 4, 6, 12, 20, 40, 80])
        assert sig_str(Fraction(man) * Fraction(2) ** exp, n) == \
            to_str(from_man_exp(man, exp), n), (man, exp, n)


@pytest.mark.parametrize("value, n, text", [
    (0, 12, "0.0"),
    (Fraction(1, 8), 2, "0.13"),  # an exact tie rounds up, as to_str does
    (Fraction(-5, 2), 1, "-3.0"),
    (Fraction(9995, 1000), 3, "10.0"),  # the carry adds a digit
    (Decimal("99999.95"), 6, "100000.0"),
    (Decimal("999999.5"), 6, "1.0e+6"),
    (100, 20, "100.0"),
    (Decimal("0.000012345"), 3, "1.23e-5"),
    (Decimal("0.00012345"), 3, "0.000123"),
    (Fraction(1, 3), 20, "0.33333333333333333333"),
    (10 ** 30, 6, "1.0e+30"),
])
def test_edge_cases(value, n, text):
    assert sig_str(value, n) == text


def test_more_digits_than_str_allows():
    # str(int) refuses more than 4300 digits (Python 3.11+).
    assert sig_str(10 ** 5000 + 1, 5002) == str(Decimal(10 ** 5000 + 1)) + ".0"
    assert sig_str(Fraction(1, 3), 5000) == "0." + "3" * 5000
