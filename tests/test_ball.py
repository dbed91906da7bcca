"""Soundness tests for the ball arithmetic layer.

The contract under test: every Ball produced from exact inputs encloses
the exact (Fraction) value of the same expression.  Random inputs are
dyadic so the reference arithmetic is exact end to end.
"""

import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from pellzero.ball import (
    PREC_CEILING,
    PREC_START,
    Ball,
    DomainError,
    IndeterminateComparison,
    PrecisionExhausted,
    ZeroDivisionEnclosure,
    escalate,
)


def rand_dyadic(rng, scale=40):
    num = rng.randrange(-(1 << scale), (1 << scale) + 1)
    return Fraction(num, 1 << rng.randrange(0, scale))


def test_exact_int_has_zero_radius():
    b = Ball.exact(7)
    assert b.to_disk(0) == (7, 0, 0, 0)
    assert b.contains(7)
    assert b.fr_mid() == 7


def test_exact_fraction_nonrepresentable_keeps_enclosure():
    b = Ball.exact(Fraction(1, 3))
    assert b.fr_lo() < b.fr_hi()
    assert b.contains(Fraction(1, 3))


def test_exact_mpf_passthrough():
    with mp.workprec(256):
        x = mp.mpf(2) ** -200 + 1
        z = Ball.exact(mp.mpc(x, -x), 256)
    b = Ball.exact(x, 256)
    assert b.fr_lo() == b.fr_hi() == Fraction(1) + Fraction(1, 2 ** 200)
    assert not b.is_complex
    assert z.is_complex and z.to_disk(200) == ((1 << 200) + 1, -(1 << 200) - 1, 0, 200)
    assert Ball.exact(mp.mpc(3, 0)).is_complex


def test_from_disk_and_to_disk_round_trip():
    rng = random.Random(0xD15C)
    for _ in range(500):
        P = rng.randrange(0, 300)
        X, Y = (rng.choice([0, rng.randrange(-(1 << 200), 1 << 200)]) for _ in range(2))
        R = rng.randrange(0, 1 << 40)
        b = Ball.from_disk(X, Y, R, P, 128)
        assert b.is_complex == bool(Y) and b.prec == 128
        assert b.to_disk(P) == (X, Y, R, P)
        # Asked for a coarser scale, the midpoint keeps its finest bit
        # and the radius rounds up.
        Xq, Yq, Rq, Q = b.to_disk(0)
        assert (Fraction(Xq, 1 << Q), Fraction(Yq, 1 << Q)) == (Fraction(X, 1 << P),
                                                              Fraction(Y, 1 << P))
        assert Rq - 1 < Fraction(R << Q, 1 << P) <= Rq


def test_exact_rejects_strings():
    with pytest.raises(TypeError):
        Ball.exact("1.5")
    for value in (mp.inf, mp.nan, mp.mpc(1, mp.inf)):
        with pytest.raises(ValueError):
            Ball.exact(value)


def test_repr_shows_both_parts_of_a_complex_ball():
    assert repr(Ball.from_disk(3, -1, 1, 1, 64)) == "Ball(1.5 + -0.5i +/- 0.5 @64b)"
    assert repr(Ball.from_disk(3, 0, 1, 1, 64)) == "Ball(1.5 +/- 0.5 @64b)"


def test_arithmetic_soundness_random():
    rng = random.Random(20240901)
    for _ in range(400):
        fa, fb = rand_dyadic(rng), rand_dyadic(rng)
        a, b = Ball.exact(fa), Ball.exact(fb)
        assert (a + b).contains(fa + fb)
        assert (a - b).contains(fa - fb)
        assert (a * b).contains(fa * fb)
        if fb != 0:
            assert (a / b).contains(Fraction(fa, fb))


def test_scalar_coercion_both_sides():
    a = Ball.exact(Fraction(3, 4))
    assert (a + 2).contains(Fraction(11, 4))
    assert (2 + a).contains(Fraction(11, 4))
    assert (2 - a).contains(Fraction(5, 4))
    assert (a * 3).contains(Fraction(9, 4))
    assert (3 * a).contains(Fraction(9, 4))
    assert (3 / a).contains(4)


def test_pow_int_matches_fraction_powers():
    rng = random.Random(7)
    for _ in range(120):
        f = rand_dyadic(rng, scale=12)
        b = Ball.exact(f)
        n = rng.randrange(0, 9)
        assert b.pow_int(n).contains(f ** n)
        if f != 0:
            assert b.pow_int(-n if n else -1).contains(f ** (-n if n else -1))


def test_pow_zero_is_exact_one():
    b = Ball.exact(Fraction(22, 7))
    p = b.pow_int(0)
    assert p.fr_lo() == p.fr_hi() == 1


def test_division_by_zero_enclosure_raises():
    wide = Ball.exact(0) + Ball.from_disk(0, 0, 1, 1, 64)
    with pytest.raises(ZeroDivisionEnclosure):
        Ball.exact(1) / wide


def test_neg_preserves_high_precision_mid():
    # mpmath's own unary minus re-rounds to the ambient 53-bit context;
    # Ball negation must not lose the low bits of a 256-bit mid.
    with mp.workprec(256):
        x = mp.mpf(1) + mp.mpf(2) ** -200
    b = -Ball.exact(x, 256)
    assert b.fr_mid() == -(Fraction(1) + Fraction(1, 2 ** 200))


def test_conjugate_preserves_high_precision_mid():
    with mp.workprec(256):
        z = mp.mpc(mp.mpf(1) + mp.mpf(2) ** -180, mp.mpf(3) + mp.mpf(2) ** -180)
    ball = Ball.exact(z, 256)
    X, Y, R, Q = ball.to_disk(0)
    assert (Q, R) == (180, 0) and Y > 0
    assert ball.conjugate().to_disk(0) == (X, -Y, 0, Q)


def test_complex_magnitude_encloses_modulus():
    rng = random.Random(99)
    for _ in range(60):
        re, im = rand_dyadic(rng, 12), rand_dyadic(rng, 12)
        if re == 0 and im == 0:
            continue
        P = max(re.denominator, im.denominator).bit_length() - 1
        z = Ball(int(re * 2 ** P), int(im * 2 ** P), 0, P, PREC_START, True)
        mag_sq = z.magnitude().pow_int(2)
        assert mag_sq.contains(re * re + im * im)


def test_sqrt_enclosure_squares_back():
    rng = random.Random(13)
    for _ in range(80):
        f = abs(rand_dyadic(rng, 20)) + 1
        s = Ball.exact(f).sqrt()
        assert s.pow_int(2).contains(f)


def test_sqrt_of_possibly_negative_enclosure_raises():
    b = Ball.from_disk(1, 0, 8, 10, 64)  # 2^-10 +/- 2^-7
    with pytest.raises(DomainError):
        b.sqrt()


def test_log_touching_zero_raises():
    with pytest.raises(DomainError):
        Ball.from_disk(1, 0, 10, 17, 64).log()


def test_arg_quarter_turn():
    z = Ball.exact(mp.mpc(1, 1), 128)
    a = z.arg()
    quarter = Fraction(math.pi / 4)
    assert a.fr_lo() - Fraction(1, 10 ** 15) <= quarter <= a.fr_hi() + Fraction(1, 10 ** 15)


def test_arg_rejects_zero_enclosure():
    with pytest.raises(DomainError):
        Ball.exact(mp.mpc(0, 0), 64).add_error(Fraction(1, 10)).arg()


def test_arg_rejects_branch_cut_crossing():
    z = Ball.exact(mp.mpc(-1, 0), 128).add_error(Fraction(1, 10 ** 6))
    with pytest.raises(DomainError):
        z.arg()


def test_certified_comparisons():
    lo = Ball.exact(Fraction(1, 3))
    hi = Ball.exact(Fraction(2, 3))
    assert hi.gt(lo)
    assert lo.lt(hi)
    assert hi.gt(Fraction(1, 2))
    assert not hi.gt(1)
    wide = Ball.exact(Fraction(1, 2), 64).add_error(Fraction(2, 5))
    with pytest.raises(IndeterminateComparison):
        wide.gt(Fraction(1, 2))
    with pytest.raises(IndeterminateComparison):
        wide.lt(lo)


def test_escalate_doubles_then_exhausts():
    assert escalate(128) == 256
    with pytest.raises(PrecisionExhausted):
        escalate(PREC_CEILING)


def test_endpoint_order():
    rng = random.Random(31)
    for _ in range(50):
        f = rand_dyadic(rng, 16)
        b = Ball.exact(f) + Ball.exact(Fraction(1, 3))
        assert b.fr_lo() <= b.fr_mid() <= b.fr_hi()


def test_pi_enclosure():
    b = Ball.pi(128)
    # 3.14159265358979 < pi < 3.1415926535898
    assert b.fr_lo() < Fraction("3.1415926535898")
    assert b.fr_hi() > Fraction("3.14159265358979")


def test_deep_expression_stays_sound():
    # A longer mixed expression, checked against exact rationals.
    rng = random.Random(101)
    for _ in range(40):
        fs = [rand_dyadic(rng, 14) for _ in range(6)]
        bs = [Ball.exact(f) for f in fs]
        expr = (bs[0] + bs[1]) * (bs[2] - bs[3]) + bs[4] * bs[5]
        want = (fs[0] + fs[1]) * (fs[2] - fs[3]) + fs[4] * fs[5]
        assert expr.contains(want)
        den = fs[5] * fs[5] + 1
        expr2 = expr / (bs[5] * bs[5] + 1)
        assert expr2.contains(want / den)


def test_integer_paths_load_no_mpmath():
    # Ring operations, comparisons and conversions run on ints: the even
    # chain check at L_6 = 163 and a Binet term rebuild load no mpmath in
    # a fresh interpreter, while Ball.log does.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from pellzero import effbounds, spectra\n"
            "rs = spectra.solve_roots(6)\n"
            "assert effbounds.refined_even_bound(rs) == 163\n"
            "assert effbounds.even_case_chain_check(rs, 163)\n"
            "assert spectra.binet_reconstruct(5, -20, spectra.solve_roots(5)).contains(-74)\n"
            "print('mpmath' in sys.modules)\n"
            "from pellzero.ball import Ball\n"
            "Ball.exact(2).log()\n"
            "print('mpmath' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    assert out == ["False", "True"]

