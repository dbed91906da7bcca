"""Newton on fixed-point Gaussian integers.

spectra runs Newton on delta_k with z = (X + iY) 2^-P for Python ints X
and Y.  The conversion tests check that mpf and mpc values go to and
from that form exactly (signs included) and that bits below 2^-P are
truncated towards zero.  The polish tests check each polished centre,
and each seed, against the matching root of a certified 512-bit system,
that real seeds stay real with Y exactly 0, and that seeds with a
negative real part polish to their own root and not to the node at 1.
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from pellzero import spectra
from pellzero.ball import mpf_to_fraction

ORDERS = list(range(2, 61)) + [86]
P = 144  # the polish at 128 bits runs at prec + 16 fraction bits


@pytest.fixture(autouse=True)
def cold_cache():
    spectra.clear_cache()
    yield
    spectra.clear_cache()


def _dyadic(man, exp):
    return mp.make_mpf(from_man_exp(man, exp))


mantissas = st.integers(-(1 << 200), 1 << 200).filter(bool)
fitting = st.integers(-P, 60)


@given(mantissas, fitting)
def test_real_round_trip_is_exact(man, exp):
    x = _dyadic(man, exp)
    X, Y = spectra._to_fixed(x, P)
    assert Y == 0
    assert Fraction(X, 1 << P) == mpf_to_fraction(x)
    back = spectra._from_fixed(X, Y, P)
    assert isinstance(back, mp.mpf) and back._mpf_ == x._mpf_


@given(mantissas, fitting, mantissas | st.just(0), fitting)
def test_complex_round_trip_is_exact(im_man, im_exp, re_man, re_exp):
    z = mp.make_mpc((from_man_exp(re_man, re_exp), from_man_exp(im_man, im_exp)))
    X, Y = spectra._to_fixed(z, P)
    assert Fraction(X, 1 << P) == mpf_to_fraction(z.real)
    assert Fraction(Y, 1 << P) == mpf_to_fraction(z.imag)
    back = spectra._from_fixed(X, Y, P)
    assert isinstance(back, mp.mpc) and back._mpc_ == z._mpc_


@given(mantissas, st.integers(-P - 80, -P - 1))
def test_bits_below_the_fixed_point_are_truncated(man, exp):
    x = _dyadic(man, exp)
    exact = mpf_to_fraction(x) * (1 << P)
    X, _ = spectra._to_fixed(x, P)
    assert X == int(exact)  # int() truncates towards zero


def _match(centres, roots):
    """For each centre, the certified root Ball nearest to it; every root
    is matched once."""
    with mp.workprec(600):
        matched = [min(roots, key=lambda b: abs(c - b.mid)) for c in centres]
    assert len({id(b) for b in matched}) == len(roots)
    return matched


def _within(centres, roots, prec):
    with mp.workprec(600):
        for c, b in zip(centres, _match(centres, roots)):
            assert abs(c - b.mid) + b.rad <= abs(c) * mp.ldexp(1, 8 - prec), (c, b)


@pytest.mark.parametrize("k", ORDERS)
def test_polished_centres_and_seeds_lie_near_their_roots(k):
    ref = spectra.solve_roots(k, 512)
    assert ref.prec == 512
    seeds = spectra._initial_seeds(k)
    _within(seeds, ref.roots, spectra._SEED_PREC)
    for prec in (128, 390):
        _within(spectra._polish(k, seeds, prec), ref.roots, prec)


@pytest.mark.parametrize("k", ORDERS)
def test_real_seeds_stay_real(k):
    seeds = spectra._initial_seeds(k)
    centres = spectra._polish(k, seeds, P - 16)
    for seed, c in zip(seeds, centres):
        if not isinstance(seed, mp.mpf):
            continue
        assert isinstance(c, mp.mpf)
        X, Y = spectra._newton(k, *spectra._to_fixed(seed, P), P, P - 16)
        assert Y == 0
        assert spectra._from_fixed(X, Y, P)._mpf_ == c._mpf_


@pytest.mark.parametrize("k", [4, 5, 6, 9, 10, 30, 86])
def test_negative_real_part_seeds_polish_to_their_own_root(k):
    seeds = spectra._initial_seeds(k)
    negative = [i for i, z in enumerate(seeds) if mp.re(z) < 0]
    assert negative
    for i in negative:
        assert spectra._to_fixed(seeds[i], 64)[0] < 0
    centres = spectra._polish(k, seeds, 128)
    with mp.workprec(200):
        for i in negative:
            assert mp.re(centres[i]) < 0, (k, i, centres[i])
            assert abs(centres[i] - seeds[i]) < mp.mpf(2) ** -40, (k, i)
    rs = spectra._certify(k, centres, 128)
    assert rs.prec == 128
