"""The integer log, arg and pi of pellzero.ball against mpmath.

Each value is compared with mpmath at three times the ball's precision
plus 64 bits, with |value| 2^-(2 prec) to spare for that evaluation.
Besides enclosing the value, each leaf must be tight: its radius is at
most its input term (what the input radius alone forces) plus
2^(4 - prec) of |mid| and of that term, so a cover that is sound but
loose fails here before it can shorten a certified continued fraction.
The cases are planted where the argument reduction of each leaf has an
edge: arg on the diagonal |Y| = |X| and on the negative real axis, log
at exact powers of two, near 1, and with Q far from the bit length of
the endpoint, where (b - Q) ln 2 is most of the value.  tau and mu of
the odd reduction are checked the same way for odd k = 5..99 at 3000
bits.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from pellzero.ball import Ball, DomainError
from pellzero.reduction import DEFAULT_M, odd_k_instance, working_prec_for
from pellzero.spectra import eval_gk, refine_root, solve_roots

PRECS = (64, 128, 390, 4096)


def frac(x):
    """The exact value of an mpf, as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def mp_of(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def check(out, f, prec, input_term=Fraction(0)):
    """out encloses f(), evaluated by mpmath at 3 prec + 64 bits, and its
    radius is at most input_term plus 2^(4 - prec) of |mid| and of
    input_term."""
    with mp.workprec(3 * prec + 64):
        val = f()
        slack = abs(val) * mp.mpf(2) ** (-2 * prec)
        lo, hi = frac(val - slack), frac(val + slack)
    assert out.fr_lo() <= lo and hi <= out.fr_hi(), (out, val)
    rad = (out.fr_hi() - out.fr_lo()) / 2
    bound = input_term + (abs(out.fr_mid()) + input_term) * Fraction(2) ** (4 - prec)
    assert rad <= bound, (out, float(rad / bound))


def arg_input_term(b):
    """2 R / (|m|_lo - R), the arg radius that the input radius forces."""
    X, Y, R = b.X, b.Y, b.R
    if not R:
        return Fraction(0)
    return Fraction(2 * R, math.isqrt(X * X + Y * Y) - R)


def log_input_term(b):
    """(ln hi - ln lo) / 2 over the ball's endpoints, from mpmath."""
    with mp.workprec(3 * b.prec + 64):
        return frac((mp.log(mp.ldexp(b.X + b.R, -b.Q)) - mp.log(mp.ldexp(b.X - b.R, -b.Q))) / 2)


def mid_parts(b):
    """The exact real and imaginary parts of a ball's midpoint."""
    X, Y, _, Q = b.to_disk(max(b.Q, 0))
    return Fraction(X, 1 << Q), Fraction(Y, 1 << Q)


def check_arg(b):
    X, Y = mid_parts(b)
    check(b.arg(), lambda: mp.atan2(mp_of(Y), mp_of(X)), b.prec, arg_input_term(b))


def check_log(b):
    check(b.log(), lambda: mp.log(mp.ldexp(b.X, -b.Q)), b.prec, log_input_term(b))


@pytest.mark.parametrize("prec", PRECS)
def test_pi_is_tight(prec):
    check(Ball.pi(prec), lambda: +mp.pi, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_arg_on_the_diagonal(prec):
    # |Y| = |X|: the octant reduction gives y/x = 1, the largest angle
    # the halvings start from, in each quadrant and at scales far apart.
    for n, Q in ((1, 0), (3, 1), ((1 << prec) - 1, prec + 7), (5, -40), (7, 3000)):
        for sx in (1, -1):
            for sy in (1, -1):
                for R in (0, 1):
                    check_arg(Ball(sx * n << 8, sy * n << 8, R, Q + 8, prec, True))


@pytest.mark.parametrize("prec", PRECS)
def test_arg_of_a_negative_real_ball_encloses_pi(prec):
    for X, R, Q in ((-1, 0, 0), (-3, 1, 4), (-(1 << prec) + 1, 5, prec), (-7, 0, -900)):
        out = Ball(X, 0, R, Q, prec, False).arg()
        check(out, lambda: +mp.pi, prec, arg_input_term(Ball(X, 0, R, Q, prec, False)))
    # On the axis a complex ball reaches both branches.
    with pytest.raises(DomainError):
        Ball(-5, 0, 0, 0, prec, True).arg()


@pytest.mark.parametrize("prec", PRECS)
def test_arg_at_small_and_near_axis_angles(prec):
    # A tiny first-octant angle needs its relative precision; near +-pi/2
    # and pi the angle is taken from pi.
    big = (1 << prec) - 3
    for X, Y in ((big, 1), (big, -1), (1, big), (-big, 1), (-big, -1), (-1, big),
                 (big << 500, 3)):
        check_arg(Ball(X, Y, 0, prec, prec, True))
    assert Ball(5, 0, 0, 3, prec, True).arg().fr_hi() == 0


@pytest.mark.parametrize("prec", PRECS)
def test_arg_at_the_turning_angles(prec):
    # At y/x = 2^-k one turn by -atan(2^-k) lands z on the real axis, so
    # the angle is the cached atan(2^-k) alone; 7 + 6i = (2 + i)(4 + i)
    # lands after two turns.
    for k in (1, 2, 3, 7, 11):
        for X, Y in ((1 << k, 1), (1 << k, -1), (-1, 1 << k), (-(1 << k), -1)):
            check_arg(Ball(X, Y, 0, 0, prec, True))
    check_arg(Ball(7, 6, 0, 0, prec, True))


@pytest.mark.parametrize("prec", PRECS)
def test_log_at_exact_powers_of_two(prec):
    for e in (0, 1, -1, 7, -64, 1000, -5000):
        b = Ball.exact(Fraction(2) ** e, prec)
        out = b.log()
        check(out, lambda: e * mp.log(2), prec)
        if e == 0:
            assert out.fr_lo() == out.fr_hi() == 0


@pytest.mark.parametrize("prec", PRECS)
def test_log_with_q_far_from_the_bit_length(prec):
    # The endpoint v 2^-Q with Q far from bitlen(v): (b - Q) ln 2 is most
    # of the value, and its error grows with |b - Q|.
    v = (1 << prec) - 12345
    for Q in (-100000, -(1 << 20), prec - 1, prec + 1, 3 * prec, 1 << 20):
        for R in (0, 9):
            check_log(Ball(v, 0, R, Q, prec, False))


@pytest.mark.parametrize("prec", PRECS)
def test_log_near_one(prec):
    # ln x for x within 2^-m of 1 has about m leading zero bits, which the
    # scale must add so the relative error stays near 2^-prec.
    for m in (1, 2, 10, prec // 2, prec + 5):
        for sign in (1, -1):
            check_log(Ball((1 << m) + sign, 0, 0, m, prec, False))
    check_log(Ball((1 << prec) + 1, 0, 1, prec, prec, False))


@pytest.mark.parametrize("prec", (64, 128, 390))
def test_leaves_on_random_balls(prec):
    rng = random.Random(prec)
    for _ in range(60):
        X = rng.getrandbits(rng.randint(1, prec)) * rng.choice((1, -1))
        Y = rng.getrandbits(rng.randint(1, prec)) * rng.choice((1, -1))
        Q = rng.randint(-60, 3 * prec)
        R = rng.choice((0, 1, rng.getrandbits(max(1, min(X.bit_length(), Y.bit_length()) - 8))))
        b = Ball(X, Y, R, Q, prec, True)
        if math.isqrt(X * X + Y * Y) > R and not (X < 0 and abs(Y) <= R):
            check_arg(b)
        if abs(X) > R:
            check_log(Ball(abs(X), 0, R, Q, prec, False))


@pytest.mark.parametrize("k", range(5, 100, 2))
def test_tau_and_mu_against_mpmath_at_3000_bits(k):
    # tau = -2 arg(gamma_s) / pi and mu = 2 arg(g) / pi, from the same
    # refined root and its weight that odd_k_instance reads.
    rs, prec = solve_roots(k), working_prec_for(DEFAULT_M)
    inst = odd_k_instance(rs, DEFAULT_M, prec)
    gamma_s = refine_root(rs, k - 1, prec)
    g = eval_gk(k, gamma_s)
    for out, z, scale in ((inst.tau, gamma_s, -2), (inst.mu, g, 2)):
        X, Y = mid_parts(z)
        with mp.workprec(3000):
            val = scale * mp.atan2(mp_of(Y), mp_of(X)) / mp.pi
            lo, hi = frac(val - mp.ldexp(1, -2900)), frac(val + mp.ldexp(1, -2900))
        assert out.fr_lo() <= lo and hi <= out.fr_hi(), (k, out)
        # Its radius is the arg's input term over pi/2, and 2^(8 - prec).
        rad = (out.fr_hi() - out.fr_lo()) / 2
        term = arg_input_term(z) * Fraction(2, 3)
        assert rad <= term + abs(out.fr_mid()) * Fraction(2) ** (8 - out.prec), (k, out)
