"""The Binet weight g_k from the fixed-point evaluator.

spectra.eval_gk encloses g_k(x) = (x - 1) / ((k+1) x^2 - 3k x + (k-1))
over a Ball x on Gaussian integers (X + iY) 2^-P.  The oracle here is
exact Gaussian-rational arithmetic.  The tests check that the weight
ball contains g_k at the centre and at points on the edge of the input
disk, at the root balls of k = 2..40 at 128 and 390 bits and at
Hypothesis-drawn balls; that the radius covers the stated bound |mid -
N0/D0| + (R |D0| + |N0| eD) / (|D0| (|D0| - eD)) for the evaluator's own
centre values; that conjugate inputs give conjugate weights bit for bit;
and that the exact dyadic zeros of the denominator raise
ZeroDivisionEnclosure.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellzero import spectra
from pellzero.ball import Ball, ZeroDivisionEnclosure

# Edge directions of unit modulus with rational parts.
_UNIT = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
         (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)),
         (Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)),
         (Fraction(-5, 13), Fraction(-12, 13)), (Fraction(12, 13), Fraction(-5, 13))]


def _parts(b):
    """The exact (re, im, rad) of a Ball, as Fractions: at the Ball's own
    scale Q, to_disk moves nothing."""
    X, Y, R, Q = b.to_disk(max(b.Q, 0))
    return tuple(Fraction(v, 1 << Q) for v in (X, Y, R))


def _fball(re, im, rad, prec, is_complex):
    """The Ball of the disk (re + i im, rad), dyadic Fractions, exactly."""
    Q = max(v.denominator.bit_length() - 1 for v in (re, im, rad))
    return Ball(*(int(v * (1 << Q)) for v in (re, im, rad)), Q, prec, is_complex)


def _gk(k, zr, zi):
    """g_k at zr + i zi, exactly."""
    nr, ni = zr - 1, zi
    sr, si = zr * zr - zi * zi, 2 * zr * zi
    dr = (k + 1) * sr - 3 * k * zr + (k - 1)
    di = (k + 1) * si - 3 * k * zi
    d2 = dr * dr + di * di
    return (nr * dr + ni * di) / d2, (ni * dr - nr * di) / d2


def _contains(ball, gr, gi):
    mr, mi, rad = _parts(ball)
    return (mr - gr) ** 2 + (mi - gi) ** 2 <= rad * rad


def _assert_encloses(k, x):
    """eval_gk(k, x) holds g_k at the centre of x and at edge points."""
    w = spectra.eval_gk(k, x)
    cr, ci, rad = _parts(x)
    points = [(cr, ci)] + [(cr + rad * ur, ci + rad * ui) for ur, ui in _UNIT]
    if not x.is_complex:
        points = [(zr, zi) for zr, zi in points if zi == 0]
    for zr, zi in points:
        assert _contains(w, *_gk(k, zr, zi)), (k, x, zr, zi)


@pytest.mark.parametrize("prec", [128, 390])
@pytest.mark.parametrize("k", range(2, 41))
def test_weight_contains_gk_at_root_balls(k, prec):
    for root in spectra.solve_roots(k, prec).roots:
        _assert_encloses(k, root)


def _dyadic(man, exp):
    return Fraction(man) * Fraction(2) ** exp


@st.composite
def balls(draw):
    """Balls with dyadic parts in (-4, 4), real or complex, with radii
    from far below to well above the grid of their precision."""
    prec = draw(st.sampled_from([64, 128, 390]))
    bits = draw(st.integers(prec - 8, prec + 40))
    re = _dyadic(draw(st.integers(-(1 << (bits + 2)), 1 << (bits + 2))), -bits)
    if draw(st.booleans()):
        im = Fraction(0)
    else:
        im = _dyadic(draw(st.integers(1, 1 << (bits + 2))) * draw(st.sampled_from([1, -1])),
                     -bits)
    rad = _dyadic(draw(st.integers(0, (1 << 30) - 1)),
                  draw(st.integers(-prec - 40, -40)))
    return _fball(re, im, rad, prec, bool(im))


def _eval_or_none(k, x):
    try:
        return spectra.eval_gk(k, x)
    except ZeroDivisionEnclosure:
        return None


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 60), balls())
def test_weight_contains_gk_on_drawn_balls(k, x):
    if _eval_or_none(k, x) is not None:
        _assert_encloses(k, x)


def _sqrt_lo(q: Fraction) -> Fraction:
    """A lower bound on sqrt(q) within 2^-256 relative."""
    s = 512 + max(0, q.denominator.bit_length() - q.numerator.bit_length())
    return Fraction(math.isqrt((q.numerator << 2 * s) // q.denominator), 1 << s)


def _sqrt_hi(q: Fraction) -> Fraction:
    return _sqrt_lo(q) * (1 + Fraction(1, 1 << 250))


def _assert_covers(k, x):
    """The radius of eval_gk(k, x) covers |mid - N0/D0| + (R |D0| + |N0|
    eD) / (|D0| (|D0| - eD)), with X, Y, R the exact conversion of x and
    z^2 from _fmul, as eval_gk computes them."""
    w = _eval_or_none(k, x)
    if w is None:
        return
    # The exact conversion: P = prec + 16, or finer when the midpoint
    # has finer bits, and R = ceil(rad 2^P).
    cr, ci, rad = _parts(x)
    P = max([x.prec + 16] + [v.denominator.bit_length() - 1 for v in (cr, ci)])
    X, Y = int(cr * (1 << P)), int(ci * (1 << P))
    R = math.ceil(rad * (1 << P))
    if Y < 0:
        Y, w = -Y, w.conjugate()
    one = 1 << P
    zzX, zzY, ezz = spectra._fmul(P, X, Y, R, X, Y, R)
    nr, ni = X - one, Y
    dr = (k + 1) * zzX - 3 * k * X + (k - 1) * one
    di = (k + 1) * zzY - 3 * k * Y
    eD = (k + 1) * ezz + 3 * k * R
    d2 = dr * dr + di * di
    mr, mi, w_rad = (v * one for v in _parts(w))
    qr, qi = Fraction((nr * dr + ni * di) * one, d2), Fraction((ni * dr - nr * di) * one, d2)
    # The bound, taken from below so that the test never asks for more
    # than its exact value.
    d_lo, d_hi = _sqrt_lo(Fraction(d2)), _sqrt_hi(Fraction(d2))
    err = one * (R * d_lo + _sqrt_lo(Fraction(nr * nr + ni * ni)) * eD) / (d_hi * (d_hi - eD))
    need = _sqrt_lo((mr - qr) ** 2 + (mi - qi) ** 2) + err
    assert w_rad >= need, (k, x)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 60), balls())
def test_radius_covers_the_quotient_bound(k, x):
    _assert_covers(k, x)


def test_radius_covers_the_quotient_bound_with_small_radii():
    # Radii of a few units of 2^-P, where the quotient's two floors are
    # a large part of the bound: a fixed sample, so that a radius short
    # by a fraction of a unit fails every run.
    rng = random.Random(2)
    for _ in range(2000):
        prec = rng.choice([64, 128, 390])
        P = prec + 16
        re = _dyadic(rng.randint(-(1 << (P + 2)), 1 << (P + 2)), -P)
        im = _dyadic(rng.randint(1, 1 << (P + 2)), -P)
        rad = _dyadic(rng.randint(0, 1 << 20), -P - rng.randint(0, 30))
        _assert_covers(rng.randint(2, 60), _fball(re, im, rad, prec, True))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60), balls())
def test_conjugate_balls_give_conjugate_weights(k, x):
    w = _eval_or_none(k, x)
    if w is None:
        return
    mirror = spectra.eval_gk(k, x.conjugate())
    expected = w.conjugate()
    assert ((mirror.to_disk(mirror.Q), mirror.prec, mirror.is_complex)
            == (expected.to_disk(expected.Q), expected.prec, expected.is_complex))


@pytest.mark.parametrize("k, zero", [(3, Fraction(2)), (3, Fraction(1, 4)),
                                     (21, Fraction(5, 2))])
def test_denominator_zero_raises(k, zero):
    assert (k + 1) * zero ** 2 - 3 * k * zero + (k - 1) == 0
    for prec in (64, 128, 390):
        x = Ball.exact(zero, prec)
        with pytest.raises(ZeroDivisionEnclosure):
            spectra.eval_gk(k, x)
        with pytest.raises(ZeroDivisionEnclosure):
            spectra.eval_gk(k, _fball(zero, Fraction(0), Fraction(0), prec, True))
