"""Soundness tests for the ball arithmetic layer.

The contract under test: every Ball produced from exact inputs encloses
the exact (Fraction) value of the same expression.  Random inputs are
dyadic so the reference arithmetic is exact end to end.
"""

import math
import random
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
    ball_sum,
    conj_exact,
    escalate,
    mpf_to_fraction,
    neg_exact,
)


def rand_dyadic(rng, scale=40):
    num = rng.randrange(-(1 << scale), (1 << scale) + 1)
    return Fraction(num, 1 << rng.randrange(0, scale))


def test_exact_int_has_zero_radius():
    b = Ball.exact(7)
    assert b.rad == 0
    assert b.contains(7)
    assert b.fr_mid() == 7


def test_exact_fraction_nonrepresentable_keeps_enclosure():
    b = Ball.exact(Fraction(1, 3))
    assert b.rad > 0
    assert b.contains(Fraction(1, 3))


def test_exact_mpf_passthrough():
    with mp.workprec(256):
        x = mp.mpf(2) ** -200 + 1
    b = Ball.exact(x, 256)
    assert b.rad == 0
    assert b.fr_mid() == Fraction(1) + Fraction(1, 2 ** 200)


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
    assert p.rad == 0 and p.fr_mid() == 1


def test_division_by_zero_enclosure_raises():
    wide = Ball.exact(0) + Ball(mp.mpf(0), mp.mpf("0.5"), 64)
    with pytest.raises(ZeroDivisionEnclosure):
        Ball.exact(1) / wide


def test_neg_preserves_high_precision_mid():
    # mpmath's own unary minus re-rounds to the ambient 53-bit context;
    # Ball negation must not lose the low bits of a 256-bit mid.
    with mp.workprec(256):
        x = mp.mpf(1) + mp.mpf(2) ** -200
    b = -Ball.exact(x, 256)
    assert b.fr_mid() == -(Fraction(1) + Fraction(1, 2 ** 200))
    assert mpf_to_fraction(neg_exact(x)) == -mpf_to_fraction(x)


def test_conjugate_preserves_high_precision_mid():
    with mp.workprec(256):
        z = mp.mpc(mp.mpf(1) + mp.mpf(2) ** -180, mp.mpf(3) + mp.mpf(2) ** -180)
    c = conj_exact(z)
    assert mpf_to_fraction(c.real) == mpf_to_fraction(z.real)
    assert mpf_to_fraction(c.imag) == -mpf_to_fraction(z.imag)
    ball = Ball.exact(z, 256).conjugate()
    assert mpf_to_fraction(ball.mid.imag) < 0


def test_complex_magnitude_encloses_modulus():
    rng = random.Random(99)
    for _ in range(60):
        re, im = rand_dyadic(rng, 12), rand_dyadic(rng, 12)
        if re == 0 and im == 0:
            continue
        with mp.workprec(PREC_START):
            z = mp.mpc(mp.mpf(re.numerator) / re.denominator,
                       mp.mpf(im.numerator) / im.denominator)
        if mpf_to_fraction(z.real) != re or mpf_to_fraction(z.imag) != im:
            continue
        mag_sq = Ball.exact(z).magnitude().pow_int(2)
        assert mag_sq.contains(re * re + im * im)


def test_sqrt_enclosure_squares_back():
    rng = random.Random(13)
    for _ in range(80):
        f = abs(rand_dyadic(rng, 20)) + 1
        s = Ball.exact(f).sqrt()
        assert s.pow_int(2).contains(f)


def test_sqrt_of_possibly_negative_enclosure_raises():
    b = Ball(mp.mpf("0.001"), mp.mpf("0.01"), 64)
    with pytest.raises(DomainError):
        b.sqrt()


def test_log_touching_zero_raises():
    with pytest.raises(DomainError):
        Ball(mp.mpf("1e-5"), mp.mpf("1e-4"), 64).log()


def test_arg_quarter_turn():
    z = Ball.exact(mp.mpc(1, 1), 128)
    a = z.arg()
    quarter = math.pi / 4
    assert abs(float(a.mid) - quarter) <= float(a.rad) + 1e-15


def test_arg_rejects_zero_enclosure():
    with pytest.raises(DomainError):
        Ball(mp.mpc(0, 0), mp.mpf("0.1"), 64).arg()


def test_arg_rejects_branch_cut_crossing():
    z = Ball(mp.mpc(-1, 0), mp.mpf("1e-6"), 128)
    with pytest.raises(DomainError):
        z.arg()


def test_certified_comparisons():
    lo = Ball.exact(Fraction(1, 3))
    hi = Ball.exact(Fraction(2, 3))
    assert hi.gt(lo)
    assert lo.lt(hi)
    assert hi.gt(Fraction(1, 2))
    assert not hi.gt(1)
    wide = Ball(mp.mpf("0.5"), mp.mpf("0.4"), 64)
    with pytest.raises(IndeterminateComparison):
        wide.gt(Fraction(1, 2))
    with pytest.raises(IndeterminateComparison):
        wide.lt(lo)


def test_ball_sum_empty_and_order():
    z = ball_sum([])
    assert z.rad == 0 and z.fr_mid() == 0
    parts = [Ball.exact(Fraction(1, 2 ** i)) for i in range(10)]
    total = ball_sum(parts)
    assert total.contains(sum(Fraction(1, 2 ** i) for i in range(10)))


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
