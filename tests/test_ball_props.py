"""Property tests for the ball kernel against an exact Fraction oracle.

Inputs are random real and complex enclosures at 64, 128 and 390 bits,
mixed within one operation, with midpoint exponents out to +-2000 and
radii from zero up to the size of the midpoint; a complex input may
have imaginary part 0.  For each operation, exact points inside the
inputs (including the real endpoints) are pushed through Fraction
arithmetic, and the exact result must lie in the output ball.  Complex
values are (re, im) pairs of Fractions; membership in a disc is decided
on squared distances, and sqrt by squaring the output endpoints, so no
step of these oracles rounds.  log, arg and pi have no rational oracle:
each is checked against mpmath evaluated at three times the ball's
precision, compared as Fractions with 2^-(2 prec) of the value to
spare.  Disjointness of two enclosures is decided by the root sweep's
integer pair test (spectra._disjoint) on the enclosures as integer
disks at one scale (Ball.to_disk), and must match the exact distance
of the midpoints.
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpc_abs, round_ceiling

from pellzero import spectra
from pellzero.ball import (
    Ball,
    DomainError,
    IndeterminateComparison,
    ZeroDivisionEnclosure,
)

PRECS = (64, 128, 390)
EXP = 2000
UNIT = 1 << 16


def _ball(X, Y, R, p, is_complex):
    """The Ball of (X + iY +/- R) for dyadic Fractions X, Y, R, exactly."""
    Q = max(0, *(v.denominator.bit_length() - 1 for v in (X, Y, R)))
    X, Y, R = (int(v * (1 << Q)) for v in (X, Y, R))
    return Ball(X, Y, R, Q, p, is_complex)


def _dyadic(man, exp):
    return Fraction(man) * Fraction(2) ** exp


def frac(x):
    """The exact value of an mpf, as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return _dyadic(-man if sign else man, exp)


def parts(b):
    """The exact (re, im, rad) of a ball, as Fractions."""
    X, Y, R, Q = b.to_disk(max(b.Q, 0))
    return tuple(Fraction(v, 1 << Q) for v in (X, Y, R))


@st.composite
def real_parts(draw, exp_lo=-EXP, exp_hi=EXP, nonneg=False):
    """(p, mid, rad): a p-bit midpoint, radius zero or a 30-bit
    mantissa between 2^-(p+40) and 1 times the midpoint's size."""
    p = draw(st.sampled_from(PRECS))
    man = draw(st.integers(1, (1 << p) - 1))
    if not nonneg and draw(st.booleans()):
        man = -man
    top = draw(st.integers(exp_lo, exp_hi))
    mid = _dyadic(man, top - man.bit_length())
    if draw(st.integers(0, 3)) == 0:
        rad = Fraction(0)
    else:
        rman = draw(st.integers(1, (1 << 30) - 1))
        rtop = top - draw(st.integers(1, p + 40))
        rad = _dyadic(rman, rtop - rman.bit_length())
    return p, mid, rad


@st.composite
def reals(draw, exp_lo=-EXP, exp_hi=EXP, nonneg=False):
    p, mid, rad = draw(real_parts(exp_lo, exp_hi, nonneg))
    return _ball(mid, Fraction(0), rad, p, False)


@st.composite
def complexes(draw):
    _, re, r_re = draw(real_parts())
    _, im, r_im = draw(real_parts())
    if draw(st.integers(0, 4)) == 0:
        im = Fraction(0)
    return _ball(re, im, max(r_re, r_im), draw(st.sampled_from(PRECS)), True)


balls = st.one_of(reals(), complexes())

# Offsets (u, v) with |u| + |v| <= 1, so mid + (u + iv) rad lies in the
# disc; the corners +-1 hit the real endpoints exactly.
offsets = st.tuples(st.integers(-UNIT, UNIT), st.integers(-UNIT, UNIT)).map(
    lambda uv: (Fraction(uv[0], UNIT),
                Fraction((1 if uv[1] >= 0 else -1) * min(abs(uv[1]), UNIT - abs(uv[0])), UNIT)))
offsets = st.one_of(st.sampled_from([(Fraction(-1), Fraction(0)),
                                     (Fraction(1), Fraction(0)),
                                     (Fraction(0), Fraction(0))]), offsets)


def point(b, off):
    """An exact point of b: mid + (u + iv) rad, with v dropped for a real
    ball (its enclosure is an interval)."""
    re, im, r = parts(b)
    u, v = off
    if not b.is_complex:
        return re + u * r, Fraction(0)
    return re + u * r, im + v * r


def c_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def c_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def c_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def c_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def norm2(z):
    return z[0] * z[0] + z[1] * z[1]


def assert_in(ball, z):
    if not ball.is_complex:
        assert z[1] == 0, "real ball for a nonreal value"
        assert ball.contains(z[0])
    else:
        re, im, r = parts(ball)
        assert norm2(c_sub(z, (re, im))) <= r * r


def assert_abs_in(lo, hi, sq):
    """lo <= sqrt(sq) <= hi for exact Fractions, sq >= 0."""
    assert hi >= 0 and hi * hi >= sq
    assert lo <= 0 or lo * lo <= sq


def modulus_bounds(b):
    """spectra._modulus_bounds of b's disk, as Fractions: every point of
    b has modulus in [lo, hi]."""
    X, Y, R, Q = b.to_disk(max(b.Q, 0))
    return tuple(Fraction(v, 1 << Q) for v in spectra._modulus_bounds(X, Y, R))


@given(balls, balls, offsets, offsets)
def test_add_sub_mul(a, b, oa, ob):
    x, y = point(a, oa), point(b, ob)
    assert_in(a + b, c_add(x, y))
    assert_in(a - b, c_sub(x, y))
    assert_in(a * b, c_mul(x, y))


@given(balls, balls, offsets, offsets)
def test_div(a, b, oa, ob):
    try:
        q = a / b
    except ZeroDivisionEnclosure:
        assert modulus_bounds(b)[0] <= 0
        return
    assert_in(q, c_div(point(a, oa), point(b, ob)))


@given(balls, st.integers(0, 255), offsets)
def test_scalar_operands(a, n, oa):
    x = point(a, oa)
    m = (n, Fraction(0))
    assert_in(a + n, c_add(x, m))
    assert_in(n - a, c_sub(m, x))
    assert_in(n * a, c_mul(m, x))
    assert_in(a * Fraction(n, 7), c_mul(x, (Fraction(n, 7), Fraction(0))))


@given(st.one_of(reals(-40, 40), complexes()), st.integers(-6, 6), offsets)
def test_pow_int(a, n, oa):
    x = point(a, oa)
    try:
        p = a.pow_int(n)
    except ZeroDivisionEnclosure:
        assert n < 0
        return
    want = (Fraction(1), Fraction(0))
    base = x if n >= 0 else c_div(want, x)
    for _ in range(abs(n)):
        want = c_mul(want, base)
    assert_in(p, want)


@given(balls, offsets, st.integers(-6, 6))
def test_exact_moves(a, oa, shift):
    # Negation, conjugation, the real part, add_error and the disk
    # round trip are exact: each result holds the image of every point.
    x = point(a, oa)
    assert_in(-a, (-x[0], -x[1]))
    assert_in(a.conjugate(), (x[0], -x[1]))
    assert_in(a.real(), (x[0], Fraction(0)))
    extra = Fraction(3, 7) * Fraction(2) ** shift
    u, v = oa if a.is_complex else (oa[0], 0)
    assert_in(a.add_error(extra), c_add(x, (extra * u, extra * v)))
    X, Y, R, Q = a.to_disk(0)
    if Y or not a.is_complex:  # from_disk makes a disk with Y = 0 real
        assert_in(Ball.from_disk(X, Y, R, Q, a.prec), x)


@given(balls, offsets)
def test_magnitude_and_abs_bounds(a, oa):
    # magnitude() and the integer modulus bounds that divisions and arg
    # read (spectra._modulus_bounds on the ball's disk).
    sq = norm2(point(a, oa))
    m = a.magnitude()
    assert not m.is_complex
    assert_abs_in(m.fr_lo(), m.fr_hi(), sq)
    assert_abs_in(*modulus_bounds(a), sq)


def test_abs_upper_bound_where_truncated_square_sum_undershoots():
    # |1 + 2^-40 i|^2 = 1 + 2^-80 needs 81 bits.  mpc_abs rounds the sum
    # by truncation at p + 4 = 68 bits before its square root, so even
    # with round_ceiling it returns exactly 1, below the true modulus.
    z = (from_man_exp(1, 0), from_man_exp(1, -40))
    sq = Fraction(1) + Fraction(1, 1 << 80)
    assert frac(mp.mpf(mpc_abs(z, 64, round_ceiling))) ** 2 < sq
    b = Ball.from_disk(1 << 40, 1, 0, 40, 64)
    assert modulus_bounds(b)[1] ** 2 >= sq
    m = b.magnitude()
    assert_abs_in(m.fr_lo(), m.fr_hi(), sq)


def test_complex_ball_with_zero_imaginary_part_stays_complex():
    # (2^200 + i)^2 = 2^400 - 1 + 2^201 i: at 64 bits the imaginary part
    # rounds to 0, and the result is still a complex disk.
    z = Ball.from_disk(1 << 200, 1, 0, 0, 64)
    sq = z * z
    assert sq.is_complex and sq.to_disk(0)[1] == 0
    assert_in(sq, ((1 << 400) - 1, Fraction(1 << 201)))
    for real_only in (sq.fr_lo, sq.fr_hi, sq.fr_mid, sq.sqrt, sq.log,
                      lambda: sq.contains(0), lambda: sq.gt(0), lambda: sq.lt(0)):
        with pytest.raises(TypeError):
            real_only()
    assert not sq.real().is_complex


def expected_order(lo_a, hi_a, lo_b, hi_b):
    if lo_a > hi_b:
        return True
    if hi_a <= lo_b:
        return False
    return None


@given(reals(-60, 60), reals(-60, 60), st.booleans())
def test_gt_lt_balls_match_exact_endpoints(a, b, near):
    if near:
        # Shift b onto a so that overlaps and touching endpoints occur.
        b = _ball(a.fr_mid(), Fraction(0), parts(b)[2], b.prec, False)
    la, ha, lb, hb = a.fr_lo(), a.fr_hi(), b.fr_lo(), b.fr_hi()
    for got, want in ((lambda: a.gt(b), expected_order(la, ha, lb, hb)),
                      (lambda: a.lt(b), expected_order(lb, hb, la, ha))):
        if want is None:
            with pytest.raises(IndeterminateComparison):
                got()
        else:
            assert got() is want


@given(reals(-60, 60), st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 40))
def test_gt_lt_fraction_match_exact_endpoints(a, num, den):
    lo, hi = a.fr_lo(), a.fr_hi()
    for v in (Fraction(num, den), lo, hi):
        want_gt = True if lo > v else (False if hi <= v else None)
        want_lt = True if hi < v else (False if lo >= v else None)
        for got, want in ((lambda: a.gt(v), want_gt), (lambda: a.lt(v), want_lt)):
            if want is None:
                with pytest.raises(IndeterminateComparison):
                    got()
            else:
                assert got() is want
        assert a.contains(v) == (lo <= v <= hi)


@given(reals(nonneg=True), offsets)
def test_sqrt(a, oa):
    x = point(a, oa)[0]
    try:
        s = a.sqrt()
    except DomainError:
        assert a.fr_lo() < 0
        return
    assert_abs_in(s.fr_lo(), s.fr_hi(), x)


def _check_against_mpmath(out, val, prec):
    """val, computed by mpmath at 3 prec bits, lies in the output with
    |val| 2^-(2 prec) to spare for that evaluation's error."""
    with mp.workprec(3 * prec):
        slack = abs(val) * mp.mpf(2) ** (-2 * prec)
        lo, hi = val - slack, val + slack
    assert out.fr_lo() <= frac(lo)
    assert frac(hi) <= out.fr_hi()


def _mpf(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


@given(reals(nonneg=True), offsets)
def test_log(a, oa):
    x = point(a, oa)[0]
    try:
        out = a.log()
    except DomainError:
        assert a.fr_lo() <= 0
        return
    assume(x > 0)
    with mp.workprec(3 * a.prec):
        val = mp.log(_mpf(x))
    _check_against_mpmath(out, val, a.prec)


@given(balls, offsets)
def test_arg(a, oa):
    re, im = point(a, oa)
    try:
        out = a.arg()
    except DomainError:
        X, Y, R = parts(a)
        assert modulus_bounds(a)[0] <= 0 or (a.is_complex and X < 0 and abs(Y) <= R)
        return
    assert not out.is_complex
    assume(re or im)
    with mp.workprec(3 * a.prec):
        val = mp.atan2(_mpf(im), _mpf(re))
    _check_against_mpmath(out, val, a.prec)


@pytest.mark.parametrize("prec", PRECS)
def test_pi(prec):
    with mp.workprec(3 * prec):
        val = +mp.pi
    _check_against_mpmath(Ball.pi(prec), val, prec)


@given(balls, balls, st.booleans())
def test_disjoint_matches_exact_distance(a, b, near):
    """The root sweep's pair test (spectra._disjoint) on two enclosures
    as integer disks at one scale against the exact distance of the
    midpoints."""
    (re_a, im_a, r_a), (_, _, r_b) = parts(a), parts(b)
    if near:
        # Centres exactly ra + rb apart: the discs touch.
        b = _ball(re_a + r_a + r_b, im_a, r_b, b.prec, a.is_complex)
    P = max(a.Q, b.Q, 0)
    fa, fb = a.to_disk(P)[:3], b.to_disk(P)[:3]
    re_b, im_b, r_b = parts(b)
    dist2 = norm2((re_a - re_b, im_a - im_b))
    reach = r_a + r_b
    assert spectra._disjoint(fa, fb) == (dist2 > reach * reach)
