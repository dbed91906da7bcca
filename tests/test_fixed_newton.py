"""Newton on fixed-point Gaussian integers.

spectra runs Newton on delta_k with z = (X + iY) 2^-P for Python ints X
and Y.  The conversion tests check that mpf and mpc values go to and
from that form exactly (signs included) and that bits below 2^-P are
truncated towards zero.  The polish tests check each polished centre,
and each seed, against the matching root of a certified 512-bit system,
that real seeds stay real with Y exactly 0, and that seeds with a
negative real part polish to their own root and not to the node at 1.
Newton evaluates delta_k without error bounds: those values must equal
the value parts of the error-tracking _delta_fixed bit for bit.  The
seed tests check the float Newton stage at orders whose gamma^k leaves
the double range, its fallback to the closed-form point, and the number
of fixed-point Newton steps a cold solve takes.
"""

import cmath
import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given
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


@given(st.integers(2, 600), st.sampled_from([64, 144, 406]),
       st.integers(-(1 << 410), 1 << 410) | st.just(0),
       st.integers(-(1 << 410), 1 << 410) | st.just(0))
@example(2, 64, 3 << 63, 0)
@example(3, 144, -(5 << 140), 7 << 139)
@example(3, 406, 0, 0)
def test_values_only_evaluation_matches_the_tracked_values(k, p, x, y):
    # X and Y reach |z| up to 2^(410 - p), on either side of the unit
    # circle; k = 2 and 3 have no power loop.
    X, Y = x >> (406 - p), y >> (406 - p)
    DX, DY, eD, SX, SY, eS = spectra._delta_fixed(k, X, Y, p, spectra._fmul_values)
    full = spectra._delta_fixed(k, X, Y, p)
    assert (DX, DY, SX, SY) == (full[0], full[1], full[3], full[4])
    assert eD == eS == 0
    norm = SX * SX + SY * SY
    if norm:
        want = (((DX * SX + DY * SY) << p) // norm, ((DY * SX - DX * SY) << p) // norm)
        assert spectra._newton_step(k, X, Y, p) == want


def test_cold_solves_keep_their_newton_step_counts(monkeypatch):
    # Fixed-point Newton steps by fraction bits over cold solves of odd
    # k = 5..53: the float stage leaves one 64-bit step per conjugate
    # class (375 classes) and the 144-bit polish two, plus one.
    step = spectra._newton_step
    steps = Counter()

    def counting(k, X, Y, p):
        steps[p] += 1
        return step(k, X, Y, p)

    monkeypatch.setattr(spectra, "_newton_step", counting)
    for k in range(5, 54, 2):
        spectra.clear_cache()
        assert spectra.solve_roots(k).prec == 128
    assert set(steps) == {spectra._SEED_P, P}
    assert steps[spectra._SEED_P] <= 375
    assert steps[P] <= 751


PHI2 = (3 + math.sqrt(5)) / 2


def _fixed_only_seed(k, z):
    X, Y = spectra._newton(k, int(math.ldexp(z.real, spectra._SEED_P)),
                           int(math.ldexp(z.imag, spectra._SEED_P)),
                           spectra._SEED_P, spectra._SEED_PREC)
    return spectra._from_fixed(X, Y, spectra._SEED_P)


@pytest.mark.parametrize("k", [738, 1000, 2000])
def test_gamma_float_seed_is_finite_past_the_double_range(k):
    # gamma^k overflows a double past k = 737; the scaled step does not.
    w = spectra._float_newton(k, PHI2)
    assert isinstance(w, float) and math.isfinite(w)
    seed, fixed = spectra._seed(k, PHI2), _fixed_only_seed(k, PHI2)
    assert isinstance(seed, mp.mpf)
    with mp.workprec(128):
        assert abs(seed - fixed) <= abs(fixed) * mp.ldexp(1, -40)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 1.0)])
def test_non_finite_float_seed_falls_back_to_the_closed_form_point(bad, monkeypatch):
    z = complex(0.3, 0.8)
    want = _fixed_only_seed(5, z)
    monkeypatch.setattr(spectra, "_float_newton", lambda k, z: bad)
    assert spectra._seed(5, z)._mpc_ == want._mpc_
    assert spectra._seed(5, PHI2)._mpf_ == _fixed_only_seed(5, PHI2)._mpf_
    rs = spectra.solve_roots(5)
    assert rs.prec == 128 and len(rs.roots) == 5


@pytest.mark.parametrize("z", [0.0, 0.5, complex(0.0, 0.0), complex(0.01, 0.01)])
def test_float_newton_overflow_gives_nan(z):
    # z^-(k-2) overflows (or divides by zero) far inside the unit circle.
    assert not cmath.isfinite(spectra._float_newton(2000, z))
