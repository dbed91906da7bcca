"""Newton on fixed-point Gaussian integers.

spectra runs Newton on delta_k with z = (X + iY) 2^-P for Python ints X
and Y.  The conversion tests check that the Ball midpoints built from
that form (spectra._ball) are exact, signs included, and that bits of a
float seed below 2^-P are truncated towards zero.  The polish tests check each polished centre,
and each float seed, with the mirror of each pair's, against the
matching root of a certified 512-bit system, that real seeds stay real with Y exactly 0, and that seeds with
a negative real part polish to their own root and not to the node at 1.
_delta_fixed takes its products inline: its output must equal, bit for
bit, the same evaluation composed from _fmul, and Newton reads its
values.  The seed tests check the float Newton stage at orders whose
gamma^k leaves the double range, its fallback to the closed-form point,
and the number of Newton steps and radii a cold odd reduction takes.
The guard-bit tests check that the fixed point keeps P = prec + 16
below k = 512 and grows past it, so that k = 1460 and 2000 certify at
128 bits.
"""

import cmath
import math
import time
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from pellzero import spectra
from pellzero.reduction import odd_k_reduce

ORDERS = list(range(2, 61)) + [86]
P = 144  # the polish at 128 bits runs at prec + 16 fraction bits
# Relative accuracy of the float seeds: each lies within |seed| 2^-50 of
# its root.  Measured: the worst seed over ORDERS is off by |seed|
# 2^-52.6 (k = 7), and gamma's by 2^-55.4 at k = 738, 1000 and 2000.
SEED_BITS = 50


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
    X = man << (exp + P)
    back = spectra._ball(X, 0, 0, P, 128)
    assert not back.is_complex and back.to_disk(P) == (X, 0, 0, P)
    assert back.fr_lo() == back.fr_hi() == Fraction(man) * Fraction(2) ** exp


@given(mantissas, fitting, mantissas | st.just(0), fitting)
def test_complex_round_trip_is_exact(im_man, im_exp, re_man, re_exp):
    X, Y = re_man << (re_exp + P), im_man << (im_exp + P)
    back = spectra._ball(X, Y, 0, P, 128)
    assert back.is_complex and back.to_disk(P) == (X, Y, 0, P)
    assert back.real().fr_mid() == Fraction(re_man) * Fraction(2) ** re_exp
    assert back.conjugate().to_disk(P) == (X, -Y, 0, P)


@given(mantissas, st.integers(-P - 80, -P - 1))
def test_bits_below_the_fixed_point_are_truncated(man, exp):
    t = float(_dyadic(man, exp))
    # int() truncates towards zero
    assert spectra._fix_float(t, P) == int(Fraction(t) * (1 << P))


def _mid_rad(b):
    """The midpoint and radius of a Ball as mpmath values, exactly at 600
    bits (its integer disk at its own scale)."""
    X, Y, R, Q = b.to_disk(b.Q)
    return mp.mpc(mp.ldexp(X, -Q), mp.ldexp(Y, -Q)), mp.ldexp(R, -Q)


def _match(centres, roots):
    """For each centre, the certified root Ball nearest to it; every root
    is matched once."""
    with mp.workprec(600):
        matched = [min(roots, key=lambda b: abs(c - _mid_rad(b)[0])) for c in centres]
    assert len({id(b) for b in matched}) == len(roots)
    return matched


def _within(centres, Q, roots, prec):
    """Each class centre (X, Y) at Q, and the mirror (X, -Y) of each pair
    centre, lies within |centre| 2^(8 - prec) of its root, radius
    included."""
    centres = centres + [(X, -Y) for X, Y in centres if Y]
    with mp.workprec(600):
        zs = [mp.mpc(mp.ldexp(X, -Q), mp.ldexp(Y, -Q)) for X, Y in centres]
        for c, b in zip(zs, _match(zs, roots)):
            mid, rad = _mid_rad(b)
            assert abs(c - mid) + rad <= abs(c) * mp.ldexp(1, 8 - prec), (c, b)


@pytest.mark.parametrize("k", ORDERS)
def test_polished_centres_and_seeds_lie_near_their_roots(k):
    ref = spectra.solve_roots(k, 512)
    assert ref.prec == 512
    _within(spectra._initial_seeds(k, P), P, ref.roots, SEED_BITS + 8)
    for prec in (128, 390):
        seeds = spectra._initial_seeds(k, prec + 16)
        _within(spectra._polish(k, seeds, prec), prec + 16, ref.roots, prec)


@pytest.mark.parametrize("k", ORDERS)
def test_real_seeds_stay_real(k):
    seeds = spectra._initial_seeds(k, P)
    centres = spectra._polish(k, seeds, P - 16)
    for seed, c in zip(seeds, centres):
        if seed[1]:
            continue
        assert c[1] == 0
        assert spectra._newton(k, *seed, P, P - 16) == c


@pytest.mark.parametrize("k", [4, 5, 6, 9, 10, 30, 86])
def test_negative_real_part_seeds_polish_to_their_own_root(k):
    seeds = spectra._initial_seeds(k, P)
    negative = [i for i, (X, _) in enumerate(seeds) if X < 0]
    assert negative
    coarse = spectra._initial_seeds(k, 64)
    for i in negative:
        assert coarse[i][0] < 0
    centres = spectra._polish(k, seeds, 128)
    for i in negative:
        (X, Y), (U, V) = centres[i], seeds[i]
        assert X < 0, (k, i, centres[i])
        assert (X - U) ** 2 + (Y - V) ** 2 < 1 << 2 * (P - 40), (k, i)
    rs = spectra._certify(k, centres, 128)
    assert rs.prec == 128


def _fmul_delta(k, X, Y, P):
    """The evaluation _delta_fixed inlines, composed from spectra._fmul:
    z^(k-2) by binary powering, z^2, d = z (z^2 - 3z + 1) and s, and
    d, s times z^(k-2)."""
    mul = spectra._fmul
    one = 1 << P
    w = None
    b = (X, Y, 0)
    n = k - 2
    while n:
        if n & 1:
            w = b if w is None else mul(P, *w, *b)
        n >>= 1
        if n:
            b = mul(P, *b, *b)
    zzX, zzY, ezz = mul(P, X, Y, 0, X, Y, 0)
    d = mul(P, X, Y, 0, zzX - 3 * X + one, zzY - 3 * Y, ezz)
    s = ((k + 1) * zzX - 3 * k * X + (k - 1) * one, (k + 1) * zzY - 3 * k * Y,
         (k + 1) * ezz)
    if w is not None:
        d, s = mul(P, *w, *d), mul(P, *w, *s)
    return d[0] + one, d[1], d[2], *s


@given(st.integers(2, 600), st.sampled_from([64, 144, 406]),
       st.integers(-(1 << 410), 1 << 410) | st.just(0),
       st.integers(-(1 << 410), 1 << 410) | st.just(0))
@example(2, 64, 3 << 63, 0)
@example(2, 144, -(5 << 140), 7 << 139)
@example(3, 144, -(5 << 140), 7 << 139)
@example(3, 406, 0, 0)
@example(3, 64, 1 << 409, 0)
@example(499, 144, (3 << 405) + (math.isqrt(5 << 812) >> 1), 0)  # phi^2, near gamma
@example(600, 406, -(1 << 409) + 1, 1 << 400)
def test_inlined_evaluation_matches_the_fmul_reference(k, p, x, y):
    # X and Y reach |z| up to 2^(410 - p), on either side of the unit
    # circle; k = 2 and 3 have no power loop.
    X, Y = x >> (406 - p), y >> (406 - p)
    out = spectra._delta_fixed(k, X, Y, p)
    assert out == _fmul_delta(k, X, Y, p)
    DX, DY, _, SX, SY, _ = out
    norm = SX * SX + SY * SY
    if norm:
        want = (((DX * SX + DY * SY) << p) // norm, ((DY * SX - DX * SY) << p) // norm)
        assert spectra._newton_step(k, X, Y, p) == want


def test_cold_solves_keep_their_newton_step_counts(monkeypatch):
    # Evaluations of delta_k over cold odd reductions, odd k = 5..53:
    # each of the 375 conjugate classes of the 128-bit solves takes two
    # Newton steps at 144 bits and one radius, and each gamma_s refined
    # to 390 bits takes two steps at 406 bits and one radius.  No step
    # runs at any other precision: the seeds are floats.
    step, radius = spectra._newton_step, spectra._inclusion_radius
    steps, radii = Counter(), Counter()

    def counting_step(k, X, Y, p):
        steps[p] += 1
        return step(k, X, Y, p)

    def counting_radius(k, X, Y, p):
        radii[p] += 1
        return radius(k, X, Y, p)

    monkeypatch.setattr(spectra, "_newton_step", counting_step)
    monkeypatch.setattr(spectra, "_inclusion_radius", counting_radius)
    for k in range(5, 54, 2):
        spectra.clear_cache()
        odd_k_reduce(k)
    assert set(steps) == {P, 406}
    assert steps[P] <= 750
    assert steps[406] <= 50
    assert radii == {P: 375, 406: 25}


def test_stop_margin_holds_at_the_range_end(monkeypatch):
    # The quadratic stop keeps the iterate of a step with |dz| about
    # |z| 2^-(prec/2 + 8 + bitlen(k)).  At the largest orders the paper
    # treats, cold solves must still certify at 128 bits and gamma_s must
    # still refine to 390 bits without a precision doubling, and every
    # radius must stay below |centre| 2^-prec (measured: 2^-130.2 at
    # k = 499 and 500, 2^-394.3 for the refinement at k = 499).
    def no_escalation(prec):
        raise AssertionError(f"escalated from {prec} bits")

    def tight(ball, prec):
        X, Y, R, _ = ball.to_disk(0)
        return (R << prec) ** 2 < X * X + Y * Y

    monkeypatch.setattr(spectra, "escalate", no_escalation)
    for k in (97, 250, 499, 500):
        spectra.clear_cache()
        rs = spectra.solve_roots(k)
        assert rs.prec == 128
        assert all(tight(r, 128) for r in rs.roots), k
        if k % 2:
            ball, _ = spectra.refine_root(rs, k - 1, 390)
            assert ball.prec == 390 and tight(ball, 390), k


def test_guard_bits_grow_only_past_k_511():
    # Every k < 512 keeps P = prec + 16, so its systems are bit for bit
    # the ones of a fixed 16 guard bits; past that, one more bit per bit
    # of k past 9.
    assert {spectra._scale(k, 128) for k in range(2, 512)} == {P}
    assert [spectra._scale(k, 128) for k in (512, 1023, 1024, 2047, 2048)] == [
        P + 1, P + 1, P + 2, P + 2, P + 3]
    assert spectra.solve_roots(511).P == P


@pytest.mark.parametrize("k", [1460, 2000])
def test_orders_past_1460_certify_at_128_bits(k, monkeypatch):
    # With 16 fixed guard bits the radius floor of _delta_fixed misses the
    # label from about k = 1460 on, and every precision doubling missed it
    # again; here a doubling fails at once.  Measured: 0.1 s at k = 1460,
    # 0.15 s at k = 2000 (2-vCPU machine).
    def no_escalation(prec):
        raise AssertionError(f"escalated from {prec} bits")

    monkeypatch.setattr(spectra, "escalate", no_escalation)
    start = time.perf_counter()
    rs = spectra.solve_roots(k)
    assert time.perf_counter() - start < 5
    assert rs.prec == 128 and rs.P == spectra._scale(k, 128) > P
    assert len(rs.disks) == k and rs.real_roots == [0, k - 1]


PHI2 = (3 + math.sqrt(5)) / 2


def _gamma_512(k):
    """gamma at 512 bits, from the scaled equation z (z^2 - 3z + 1) +
    z^-(k-2) = 0, with its sign change 2^-500 either side checked."""
    with mp.workprec(512):
        def f(x):
            return x * (x * x - 3 * x + 1) + x ** -(k - 2)
        g = mp.findroot(f, mp.mpf(PHI2))
        eps = mp.ldexp(g, -500)
        assert f(g - eps) < 0 < f(g + eps)
        return g


@pytest.mark.parametrize("k", [738, 1000, 2000])
def test_gamma_float_seed_is_finite_past_the_double_range(k):
    # gamma^k overflows a double past k = 737; the scaled step does not.
    w = spectra._float_newton(k, PHI2)
    assert isinstance(w, float) and math.isfinite(w)
    seed = spectra._seed(k, PHI2, P)
    assert seed == (int(Fraction(w) * (1 << P)), 0)
    gamma = _gamma_512(k)
    with mp.workprec(600):
        assert abs(mp.ldexp(seed[0], -P) - gamma) <= gamma * mp.ldexp(1, -SEED_BITS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 1.0)])
def test_non_finite_float_seed_falls_back_to_the_closed_form_point(bad, monkeypatch):
    monkeypatch.setattr(spectra, "_float_newton", lambda k, z: bad)
    z = complex(0.3, 0.8)
    assert spectra._seed(5, z, P) == (int(Fraction(0.3) * (1 << P)),
                                      int(Fraction(0.8) * (1 << P)))
    assert spectra._seed(5, PHI2, P) == (int(Fraction(PHI2) * (1 << P)), 0)
    for k in (5, 499):
        spectra.clear_cache()
        rs = spectra.solve_roots(k)
        assert rs.prec == 128 and len(rs.roots) == k


@pytest.mark.parametrize("z", [0.0, 0.5, complex(0.0, 0.0), complex(0.01, 0.01)])
def test_float_newton_overflow_gives_nan(z):
    # z^-(k-2) overflows (or divides by zero) far inside the unit circle.
    assert not cmath.isfinite(spectra._float_newton(2000, z))
