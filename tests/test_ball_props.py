"""Property tests for the ball kernel against an exact Fraction oracle.

Inputs are random real and complex enclosures at 64, 128 and 390 bits,
mixed within one operation, with midpoint exponents out to +-2000 and
radii from zero up to the size of the midpoint.  For each operation,
exact points inside the inputs (including the real endpoints) are
pushed through Fraction arithmetic, and the exact result must lie in
the output ball.  Complex values are (re, im) pairs of Fractions;
membership in a disc is decided on squared distances, and sqrt by
squaring the output endpoints, so no step of these oracles rounds.
log has no rational oracle: it is checked against mpmath
evaluated 200 bits past the ball's precision, compared as Fractions
with 2^10 of its ulps to spare.  Disjointness of two enclosures is
decided by the root sweep's integer pair test (spectra._disjoint) on
the enclosures converted exactly to fixed point, and must match the
exact distance of the midpoints.
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero, mpc_abs, mpf_add, round_ceiling

from pellzero import spectra
from pellzero.ball import (
    Ball,
    DomainError,
    IndeterminateComparison,
    ZeroDivisionEnclosure,
    _raw_c,
    mpf_to_fraction,
)

PRECS = (64, 128, 390)
EXP = 2000
UNIT = 1 << 16


def _mpf(man, exp):
    return mp.make_mpf(from_man_exp(man, exp))


@st.composite
def reals(draw, exp_lo=-EXP, exp_hi=EXP, nonneg=False):
    """A real Ball: p-bit midpoint, radius zero or a 30-bit mantissa
    between 2^-(p+40) and 1 times the midpoint's size."""
    p = draw(st.sampled_from(PRECS))
    man = draw(st.integers(1, (1 << p) - 1))
    if not nonneg and draw(st.booleans()):
        man = -man
    top = draw(st.integers(exp_lo, exp_hi))
    mid = _mpf(man, top - man.bit_length())
    if draw(st.integers(0, 3)) == 0:
        rad = mp.mpf(0)
    else:
        rman = draw(st.integers(1, (1 << 30) - 1))
        rtop = top - draw(st.integers(1, p + 40))
        rad = _mpf(rman, rtop - rman.bit_length())
    return Ball(mid, rad, p)


@st.composite
def complexes(draw):
    re, im = draw(reals()), draw(reals())
    p = draw(st.sampled_from(PRECS))
    rad = max(re.rad, im.rad)
    return Ball(mp.make_mpc((re.mid._mpf_, im.mid._mpf_)), rad, p)


balls = st.one_of(reals(), complexes())

# Offsets (u, v) with |u| + |v| <= 1, so mid + (u + iv) rad lies in the
# disc; the corners +-1 hit the real endpoints exactly.
offsets = st.tuples(st.integers(-UNIT, UNIT), st.integers(-UNIT, UNIT)).map(
    lambda uv: (Fraction(uv[0], UNIT),
                Fraction((1 if uv[1] >= 0 else -1) * min(abs(uv[1]), UNIT - abs(uv[0])), UNIT)))
offsets = st.one_of(st.sampled_from([(Fraction(-1), Fraction(0)),
                                     (Fraction(1), Fraction(0)),
                                     (Fraction(0), Fraction(0))]), offsets)


def raw_fraction(t):
    return mpf_to_fraction(mp.make_mpf(t))


def frac_mid(b):
    if b.is_complex:
        return mpf_to_fraction(b.mid.real), mpf_to_fraction(b.mid.imag)
    return mpf_to_fraction(b.mid), Fraction(0)


def point(b, off):
    """An exact point of b: mid + (u + iv) rad, with v dropped for a real
    ball (its enclosure is an interval)."""
    re, im = frac_mid(b)
    r = mpf_to_fraction(b.rad)
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
        r = mpf_to_fraction(ball.rad)
        assert norm2(c_sub(z, frac_mid(ball))) <= r * r


def assert_abs_in(lo, hi, sq):
    """lo <= sqrt(sq) <= hi for exact Fractions, sq >= 0."""
    assert hi >= 0 and hi * hi >= sq
    assert lo <= 0 or lo * lo <= sq


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
        assert raw_fraction(b._lb()) <= 0
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


@given(balls, offsets)
def test_magnitude_and_abs_bounds(a, oa):
    # magnitude() and the raw bounds that divisions and arg read: _lb()
    # below |value|, and the midpoint bound _mag(1) plus the radius above.
    sq = norm2(point(a, oa))
    m = a.magnitude()
    assert not m.is_complex
    assert_abs_in(m.fr_lo(), m.fr_hi(), sq)
    assert_abs_in(raw_fraction(a._lb()),
                  raw_fraction(a._mag(1)) + mpf_to_fraction(a.rad), sq)


def test_abs_upper_bound_where_truncated_square_sum_undershoots():
    # |1 + 2^-40 i|^2 = 1 + 2^-80 needs 81 bits.  mpc_abs rounds the sum
    # by truncation at p + 4 = 68 bits before its square root, so even
    # with round_ceiling it returns exactly 1, below the true modulus.
    z = mp.make_mpc((_mpf(1, 0)._mpf_, _mpf(1, -40)._mpf_))
    sq = Fraction(1) + Fraction(1, 1 << 80)
    assert mpf_to_fraction(mp.make_mpf(mpc_abs(z._mpc_, 64, round_ceiling))) ** 2 < sq
    b = Ball.exact(z, 64)
    assert raw_fraction(b._mag(1)) ** 2 >= sq
    m = b.magnitude()
    assert_abs_in(m.fr_lo(), m.fr_hi(), sq)


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
        b = Ball(a.mid, b.rad, b.prec)
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


def _check_against_mpmath(out, fn, x, prec):
    """fn(x) computed by mpmath 200 bits past the ball's precision lies
    in the output with room to spare for that evaluation's error."""
    with mp.workprec(prec + 200):
        val = fn(mp.mpf(x.numerator) / x.denominator)
        slack = abs(val) * mp.mpf(2) ** (-prec - 190)
        lo, hi = val - slack, val + slack
    assert out.fr_lo() <= mpf_to_fraction(lo)
    assert mpf_to_fraction(hi) <= out.fr_hi()


@given(reals(nonneg=True), offsets)
def test_log(a, oa):
    x = point(a, oa)[0]
    try:
        out = a.log()
    except DomainError:
        assert a.fr_lo() <= 0
        return
    assume(x > 0)
    _check_against_mpmath(out, mp.log, x, a.prec)


@given(balls, balls, st.booleans())
def test_disjoint_matches_exact_distance(a, b, near):
    """The root sweep's pair test (spectra._disjoint) on two enclosures,
    converted exactly to (X, Y, R) at one fixed point, against the
    exact distance of the midpoints."""
    if near:
        # Centers exactly ra + rb apart: the discs touch.
        re, im = a.mid._mpc_ if a.is_complex else (a.mid._mpf_, fzero)
        re = mpf_add(re, mpf_add(a.rad._mpf_, b.rad._mpf_))
        b = Ball(mp.make_mpc((re, im)) if a.is_complex else mp.make_mpf(re),
                 b.rad, b.prec)
    raws = [(*_raw_c(x.mid), x.rad._mpf_) for x in (a, b)]
    P = max([0] + [-t[2] for r in raws for t in r if t[1]])
    fa, fb = [tuple(int(mpf_to_fraction(mp.make_mpf(t)) * (1 << P)) for t in r)
              for r in raws]
    dist2 = norm2(c_sub(frac_mid(a), frac_mid(b)))
    reach = mpf_to_fraction(a.rad) + mpf_to_fraction(b.rad)
    assert spectra._disjoint(fa, fb) == (dist2 > reach * reach)
