"""Newton inclusion radii from the last Newton step.

spectra._step_radius bounds (k+1) |delta_k(z') / delta_k'(z')| at z' =
z - h, the iterate of one Newton step from z = (X + iY) 2^-P, from the
bounded evaluation _delta_fixed at z, which carries an integer error
bound per value and a bound W on |z|^(k-2), and from the floored step H
that evaluation gave.  The oracle here is exact: delta_k and delta_k' at
the dyadic z' in Gaussian-integer arithmetic, with no rounding at all.
The tests check that each radius is at least the exact one: on the
polished class disks for k = 2..60, 86, 200 and 500 at 128 bits and k =
2..40 and odd 41..53 at 390 bits, on the refined gamma_s, after a step from
centres moved into bits below the fixed point, after a step from centres
drawn near the roots, where the remainder term |h|^2 M / 2 dominates, and
from centres drawn away from them.  A planted step shows that the
remainder term is needed: without it the bound misses the exact radius.
The evaluator tests check that each error bound of _delta_fixed, W
included, and of the floored product _fmul holds, and that the radius
is at least its four bounds, evaluated exactly, for any evaluator output
and step.  On polished centres the radius is no looser than the
Ball-arithmetic bound it replaced, and a centre where delta_k' vanishes
gets no disk.  Every Newton evaluation carries its error bounds: the
first is at the given centre, a first step that passes the stop returns
the disk of that one evaluation, and the disk is centred on the last
step's iterate.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from pellzero import spectra
from pellzero.ball import Ball
from pellzero.spectra import CertificationFailure

@pytest.fixture(autouse=True)
def cold_cache():
    spectra.clear_cache()
    yield
    spectra.clear_cache()


def _dyadic(man, exp):
    return mp.make_mpf(from_man_exp(man, exp))


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gpow(a, n):
    """a^n for a Gaussian integer a, by binary powering."""
    out = (1, 0)
    while n:
        if n & 1:
            out = _gmul(out, a)
        n >>= 1
        if n:
            a = _gmul(a, a)
    return out


def _fraction(t):
    """The exact value of an mpf, as a Fraction."""
    sign, man, exp, _ = t._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _scaled(z):
    """(X, Y, Q) with z = (X + iY) 2^-Q exactly, from the exact rational
    parts of z (not from spectra's conversion)."""
    parts = [_fraction(t) for t in ((z.real, z.imag) if isinstance(z, mp.mpc)
                                          else (z, mp.mpf(0)))]
    Q = max(p.denominator.bit_length() - 1 for p in parts)
    return int(parts[0] * (1 << Q)), int(parts[1] * (1 << Q)), Q


def _exact_pair(k, X, Y, Q):
    """delta_k(z) 2^((k+1)Q) and delta_k'(z) 2^(kQ) as exact Gaussian
    integers, z = (X + iY) 2^-Q."""
    one = 1 << Q
    zn = {k - 2: _gpow((X, Y), k - 2)}  # zn[i] = (X + iY)^i
    for i in range(k - 1, k + 2):
        zn[i] = _gmul(zn[i - 1], (X, Y))
    d = [zn[k + 1][j] - 3 * one * zn[k][j] + one ** 2 * zn[k - 1][j] for j in (0, 1)]
    d[0] += one ** (k + 1)
    s = [(k + 1) * zn[k][j] - 3 * k * one * zn[k - 1][j] + (k - 1) * one ** 2 * zn[k - 2][j]
         for j in (0, 1)]
    return d, s


def _norm(v):
    return v[0] * v[0] + v[1] * v[1]


def _covers(R, k, D2, S2):
    """Exactly whether R sqrt(S2) >= (k+1) sqrt(D2), both sides >= 0."""
    return R * R * S2 >= (k + 1) ** 2 * D2


def _at(z, prec):
    """(X, Y, P) with z = (X + iY) 2^-P exactly, at P = prec + 16 or
    finer when z has bits below 2^-(prec+16)."""
    X, Y, Q = _scaled(z)
    P = max(Q, prec + 16)
    return X << (P - Q), Y << (P - Q), P


def _step(k, X, Y, P):
    """One bounded Newton step from z = (X + iY) 2^-P, as Newton takes
    it: (X', Y', R') at P, z' = z - H 2^-P, with R' from _step_radius
    (None when it certifies no disk)."""
    ev = spectra._delta_fixed(k, X, Y, P)
    DX, DY, _, SX, SY, _, _ = ev
    norm = SX * SX + SY * SY
    if not norm:
        return X, Y, None
    HX, HY = ((DX * SX + DY * SY) << P) // norm, ((DY * SX - DX * SY) << P) // norm
    return X - HX, Y - HY, spectra._step_radius(k, X, Y, HX, HY, P, ev)


def _assert_above_exact(k, X, Y, R, P):
    """R 2^-P is at least the exact (k+1) |delta_k / delta_k'| at z =
    (X + iY) 2^-P."""
    assert R is not None, (k, X, Y, P)
    d, s = _exact_pair(k, X, Y, P)
    # delta_k / delta_k' = (d / s) 2^-P
    assert _covers(R, k, _norm(d), _norm(s)), (k, X, Y, R, P)


def _classes(k, prec):
    """The polished class disks at P = prec + 16: real classes and upper
    members of pairs."""
    return spectra._polish(k, spectra._initial_seeds(k, prec + 16), prec)


@pytest.mark.parametrize("prec", [128, 390])
@pytest.mark.parametrize("k", range(2, 41))
def test_radius_covers_the_exact_radius_at_polished_centres(k, prec):
    # Each polished class disk, and a step from each polished centre
    # moved by 3/4 of an ulp of the polish grid, into bits below
    # 2^-(prec+16), taken at that finer grid.
    P = prec + 16
    for X, Y, R in _classes(k, prec):
        _assert_above_exact(k, X, Y, R, P)
        for t in (3, -3):
            moved = [((X << 2) + t, Y << 2)] + ([(X << 2, (Y << 2) + t)] if Y else [])
            for x, y in moved:
                _assert_above_exact(k, *_step(k, x, y, P + 2), P + 2)


# Past the orders above: to k = 60, 86, 200 and 500 at 128 bits (P = 144
# for all of them), and the odd orders of the odd reduction at 390 bits.
@pytest.mark.parametrize("k, prec", [(k, 128) for k in list(range(41, 61)) + [86, 200, 500]]
                         + [(k, 390) for k in range(41, 54, 2)])
def test_polished_disks_cover_the_exact_radius(k, prec):
    P = spectra._scale(k, prec)
    for X, Y, R in spectra._polish(k, spectra._initial_seeds(k, P), prec):
        _assert_above_exact(k, X, Y, R, P)


@pytest.mark.parametrize("k", range(5, 54, 2))
def test_refined_disks_cover_the_exact_radius(k):
    rs = spectra.solve_roots(k)
    P = spectra._scale(k, 390)
    X, Y, R, Q = spectra.refine_root(rs, k - 1, 390).to_disk(P)
    assert Q == P
    _assert_above_exact(k, X, Y, R, P)


@st.composite
def near_roots(draw):
    """A polished class centre of Psi_k at P = prec + 16, moved by about
    |z| 2^-e for e in [12, prec]: the step from it is about that long,
    so for small e its remainder term |h|^2 M / 2 dominates the radius."""
    prec = draw(st.sampled_from([128, 390]))
    k = draw(st.integers(2, 40))
    X, Y, _ = draw(st.sampled_from(_classes(k, prec)))
    e = draw(st.integers(12, prec))
    lead = max(abs(X), abs(Y)) >> e
    dx, dy = (draw(st.integers(-lead, lead)) for _ in range(2))
    return k, X + dx, Y + dy, prec + 16


@given(near_roots())
def test_step_near_a_root_covers_the_exact_radius(case):
    k, X, Y, P = case
    _assert_above_exact(k, *_step(k, X, Y, P), P)


def test_remainder_term_is_needed_for_a_planted_step():
    # gamma of Psi_9 moved by about 2^-30: the step lands within about
    # 2^-60 of gamma, off by delta_k'' h^2 / 2 delta_k', far above the
    # evaluation error.  The same evaluation with H = 0 keeps eD,
    # eS |D| / |S| and the floor term and drops |h|^2 M / 2 and |h| M;
    # that bound misses the exact radius at z', and the full one holds.
    k, P = 9, 144
    X, _, _ = _classes(k, 128)[0]
    X += X >> 30
    x1, y1, R = _step(k, X, 0, P)
    _assert_above_exact(k, x1, y1, R, P)
    ev = spectra._delta_fixed(k, X, 0, P)
    without = spectra._step_radius(k, X, 0, 0, 0, P, ev)
    d, s = _exact_pair(k, x1, y1, P)
    assert not _covers(without, k, _norm(d), _norm(s))


def _ball_delta_pair(k, z):
    """(delta_k(z), delta_k'(z)) in Ball arithmetic, from the one power
    z^(k-2): the evaluation the fixed-point radius replaced."""
    w = z.pow_int(k - 2)
    zz = z * z
    return (w * (z * (zz - 3 * z + 1)) + 1,
            w * ((k + 1) * zz - 3 * k * z + (k - 1)))


@pytest.mark.parametrize("prec", [128, 390])
@pytest.mark.parametrize("k", range(2, 41))
def test_radius_is_no_looser_than_the_ball_radius(k, prec):
    P = prec + 16
    for X, Y, R in _classes(k, prec):
        c = Ball.from_disk(X, Y, 0, P, prec)
        delta, slope = _ball_delta_pair(k, c)
        ball = (delta / slope * (k + 1)).magnitude()
        assert Fraction(R, 1 << P) <= ball.fr_hi(), (k, c, prec)


@st.composite
def centres(draw):
    """Dyadic centres away from the roots: negative real parts, real
    centres, centres with bits far below 2^-(prec+16), and centres
    near the node at 1."""
    prec = draw(st.sampled_from([128, 390]))
    kind = draw(st.sampled_from(["negative", "real", "fine", "near_one"]))
    low = prec + 16 + (draw(st.integers(1, 200)) if kind == "fine" else 0)

    def part(lo, hi):
        # A dyadic value in about [lo, hi]: a 20-bit lead and a tail with
        # bits down to 2^-low.
        lead = draw(st.integers(int(lo * (1 << 20)), int(hi * (1 << 20))))
        return _dyadic((lead << (low - 20)) + draw(st.integers(0, 1 << (low - 20))), -low)

    if kind == "negative":
        z = mp.make_mpc((part(-1.6, 0)._mpf_, part(-1.2, 1.2)._mpf_))
    elif kind == "real":
        z = part(-1.6, 3)
    elif kind == "fine":
        z = mp.make_mpc((part(-1.6, 3)._mpf_, part(-1.2, 1.2)._mpf_))
    else:
        e = draw(st.integers(24, prec + 40))
        offset = st.integers(-(1 << 20), 1 << 20)
        z = mp.make_mpc((from_man_exp((1 << e) + draw(offset), -e),
                         from_man_exp(draw(offset), -e)))
    return draw(st.integers(2, 40)), z, prec


@given(centres())
def test_radius_covers_the_exact_radius_at_drawn_centres(case):
    # Away from the roots a step can be too long for the remainder bound,
    # or delta_k' not certified nonzero; no disk is sound either way.
    k, z, prec = case
    X, Y, P = _at(z, prec)
    x1, y1, R = _step(k, X, Y, P)
    if R is not None:
        _assert_above_exact(k, x1, y1, R, P)


def _case(k, X, Y, Q, prec=128):
    """A drawn case at z = (X + iY) 2^-Q, with X or Y odd so that Q is
    the exact denominator."""
    if not Y:
        return k, _dyadic(X, -Q), prec
    return k, mp.make_mpc((from_man_exp(X, -Q), from_man_exp(Y, -Q))), prec


# phi^2 rounded up to an odd multiple of 2^-144: gamma for k = 499 agrees
# with phi^2 far past 144 bits.
PHI2_144 = ((3 << 144) + math.isqrt(5 << 288) >> 1) | 1
# The closed-form position of root 1 of Psi_499, near the unit circle.
T_499 = 2 * math.pi / 499
UNIT_499 = (int(math.ldexp(3 ** (-1 / 499) * math.cos(T_499), 144)) | 1,
            int(math.ldexp(3 ** (-1 / 499) * math.sin(T_499), 144)))


# Dropping any one term of the bounds (a +2 for the floors, a cross term
# e e' of the power loop, a |factor| e term, (k+1) e_zz) fails one of
# these examples.  They lie near gamma and near the unit circle at
# k = 499 and P = 144, or were found by search: at small P with |z| near
# 1 the bounds of the power loop are nearly attained.  The cross terms
# of the last two products, ew ed and ew es, are the exception: the
# floors' slack covers them (a search found errors at most 0.55 of the
# bound without them), so only the bit-for-bit comparison with the
# _fmul composition in test_fixed_newton pins them.
@given(centres())
@example(_case(499, PHI2_144, 0, 144))
@example(_case(499, *UNIT_499, 144))
@example(_case(16, 81473993756257465, 81473993756249886, 64))
@example(_case(238, 528547228048216521788284438585947109,
               528547228048216519754979083857802000, 118))
@example(_case(576, 4, -1, 2))
@example(_case(547, 3, 0, 1))
@example(_case(3, -55393462611953945333690394091253,
               41975507259333241476054290289943956, 144))
@example(_case(2, 138522, 138523, 23))
@example(_case(10, -21, 0, 5))
def test_delta_fixed_error_bounds_hold(case):
    k, z, prec = case
    X, Y, Q = _scaled(z)
    d, s = _exact_pair(k, X, Y, Q)
    DX, DY, eD, SX, SY, eS, W = spectra._delta_fixed(k, X, Y, Q)
    # d 2^-((k+1)Q) against (DX + iDY) 2^-Q, s 2^-(kQ) against (SX + iSY) 2^-Q
    for exact, shift, fx, fy, e in ((d, k * Q, DX, DY, eD), (s, (k - 1) * Q, SX, SY, eS)):
        err = (exact[0] - (fx << shift), exact[1] - (fy << shift))
        assert _norm(err) <= (e << shift) ** 2, (case, e)
    # |z|^(k-2) 2^Q <= W: (X^2 + Y^2)^(k-2) 2^(2Q) <= W^2 2^(2Q(k-2))
    assert _norm((X, Y)) ** (k - 2) << 2 * Q <= W * W << 2 * Q * (k - 2), case


@given(centres())
@example((10, mp.make_mpc((from_man_exp(-7, -3), from_man_exp(1, -200))), 128))
def test_radius_evaluates_at_the_centre_itself(case):
    # A centre moved to a coarser grid would polish another point, and a
    # disk centred off the last step's iterate would certify another
    # point than the one returned.  Newton's first evaluation is at the
    # given centre itself, every evaluation carries its bounds, and the
    # disk's centre is the last evaluated point less the floored step
    # that evaluation gave.
    k, z, prec = case
    centre = _at(z, prec)
    fixed = spectra._delta_fixed
    seen = []

    def recording(kk, X, Y, P):
        out = fixed(kk, X, Y, P)
        seen.append(((X, Y, P), out))
        return out

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(spectra, "_delta_fixed", recording)
        X1, Y1, R = spectra._newton_disk(k, *centre, prec)
    assert seen[0][0] == centre
    assert all(P == centre[2] for (_, _, P), _ in seen)
    for _, (_, _, eD, _, _, eS, W) in seen:
        assert all(type(e) is int and e >= 0 for e in (eD, eS, W))
    (X, Y, P), (DX, DY, _, SX, SY, _, _) = seen[-1]
    norm = SX * SX + SY * SY
    if R is not None:
        assert (X - X1, Y - Y1) == (((DX * SX + DY * SY) << P) // norm,
                                    ((DY * SX - DX * SY) << P) // norm)


def test_a_first_step_that_passes_the_stop_returns_its_own_disk(monkeypatch):
    # From a polished centre the first step already passes the stop, and
    # its evaluation carries its bounds, so Newton returns after that one
    # evaluation, with the disk of one bounded step.
    k, prec = 21, 128
    X, Y, _ = _classes(k, prec)[3]
    fixed = spectra._delta_fixed
    seen = []

    def recording(kk, x, y, p):
        seen.append((x, y, p))
        return fixed(kk, x, y, p)

    monkeypatch.setattr(spectra, "_delta_fixed", recording)
    disk = spectra._newton_disk(k, X, Y, prec + 16, prec)
    assert seen == [(X, Y, prec + 16)]
    assert disk == _step(k, X, Y, prec + 16)


P_SMALL = 24
small = st.integers(-(1 << (P_SMALL + 6)), 1 << (P_SMALL + 6))
errors = st.integers(0, 1 << (P_SMALL + 6))


@given(small, small, errors, small, small, errors,
       st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
       st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
@example(0, 0, 1 << 30, 0, 0, 1 << 30, (1, 0), (1, 0))
@example(3, 5, 0, 7, 11, 0, (1, 0), (1, 0))
def test_fmul_error_bound_holds(a, b, ea, c, d, ec, ua, uc):
    # The exact factors are A + ea ua and C + ec uc, on the edges of
    # the error disks.
    x, y, e = spectra._fmul(P_SMALL, a, b, ea, c, d, ec)
    exact = _gmul((a + ea * ua[0], b + ea * ua[1]), (c + ec * uc[0], d + ec * uc[1]))
    err = (exact[0] - (x << P_SMALL), exact[1] - (y << P_SMALL))
    assert _norm(err) <= (e << P_SMALL) ** 2


def _sqrt_hi(n, T=600):
    """sqrt(n) rounded up to 2^-T, as a Fraction."""
    return Fraction(math.isqrt(n << 2 * T) + 1, 1 << T)


def _sqrt_lo(n, T=600):
    return Fraction(math.isqrt(n << 2 * T), 1 << T)


def _four_bounds(k, X, Y, HX, HY, P, ev, loose=False):
    """(k+1) |delta_k(z')|_hi 2^P / |delta_k'(z')|_lo from the four bounds
    of the module docstring, in units of 2^-P, on exact rationals, every
    modulus an exact sqrt rounded in its safe direction to 2^-600, or
    None when the lower bound on |delta_k'(z')| is not positive or the
    step is too long for the remainder bound.  With loose, the moduli
    take the integer bounds of _step_radius instead (module docstring):
    |DX| + |DY|, |HX| + |HY|, [max(|X|, |Y|), |X| + |Y|], |S| from the
    top bits of |S|^2, and sqrt 2 (|S| + eS) through isqrt and 3/2; and
    the result is None also where the rounding of its integer terms
    could take the bound on |delta_k'(z')| to 0."""
    dX, dY, eD, sX, sY, eS, W = ev
    one = 1 << P
    norm = sX * sX + sY * sY
    if loose:
        d_hi, h = abs(dX) + abs(dY), abs(HX) + abs(HY)
        q = max(0, norm.bit_length() - 62) >> 1
        s_lo = math.isqrt(norm >> 2 * q) << q
        phi = math.isqrt(-(-2 * norm >> 2 * P)) + 1 + Fraction(3 * eS, 2 * one)
        z_lo, z_hi = max(abs(X), abs(Y)), abs(X) + abs(Y)
    else:
        d_hi, h = _sqrt_hi(dX * dX + dY * dY), _sqrt_hi(HX * HX + HY * HY)
        s_lo, s_hi = _sqrt_lo(norm), _sqrt_hi(norm)
        phi = _sqrt_hi(2) * (s_hi + eS) / one
        z_lo, z_hi = _sqrt_lo(X * X + Y * Y), _sqrt_hi(X * X + Y * Y)
    if s_lo <= eS or (k > 2 and (2 * (k - 2) * h > z_lo or h >= z_lo)):
        return None
    inner = Fraction(k * (k + 1) * (z_hi + h), one) + 3 * k * (k - 1)
    if k > 2:
        inner += (k - 1) * (k - 2) * Fraction(one) / (z_lo - h)
    M = 2 * W * inner  # |delta_k''| on the segment, in units of 2^-P
    num = eD + Fraction(eS * d_hi) / s_lo + phi + h * h * M / (2 * one * one)
    den = s_lo - eS - h * M / one
    # The integer M is at most one unit above 2 W inner, and each ceiling
    # adds at most a unit.
    if den <= (1 + Fraction(h, one) if loose else 0):
        return None
    return (k + 1) * num * one / den


P_ANY = 144
parts = st.integers(-(1 << (P_ANY + 1)), 1 << (P_ANY + 1))


@given(st.integers(-(1 << 80), 1 << 80), st.integers(-(1 << 80), 1 << 80),
       st.integers(0, 1 << 20), st.integers(-(1 << 154), 1 << 154),
       st.integers(-(1 << 154), 1 << 154), st.integers(0, 1 << 149),
       st.integers(0, 1 << (P_ANY + 30)), parts, parts,
       st.integers(-(1 << 60), 1 << 60), st.integers(-(1 << 60), 1 << 60),
       st.integers(2, 500))
@example(1, 1, 0, 1 << 144, 0, 0, 1 << 144, 1 << 144, 0, 0, 0, 9)
# At z = 1 a step of 2^-104 with W = 2^144 takes |h| M near half of |S|
# off the lower bound on |delta_k'(z')|.
@example(0, 0, 0, 362 << 42, 0, 0, 1 << 144, 1 << 144, 0, 1 << 40, 0, 9)
@example(0, 0, 3, 5 << 150, 7 << 150, 1 << 140, 3 << 150, 1 << 144, 1 << 143,
         1 << 50, -(1 << 50), 40)
def test_radius_bounds_any_evaluator_output(dX, dY, eD, sX, sY, eS, W, X, Y, HX, HY, k):
    ev = (dX, dY, eD, sX, sY, eS, W)
    R = spectra._step_radius(k, X, Y, HX, HY, P_ANY, ev)
    loose = _four_bounds(k, X, Y, HX, HY, P_ANY, ev, loose=True)
    if R is None:
        # No disk only where the integer bounds of the moduli give none.
        assert loose is None, ev
        return
    exact = _four_bounds(k, X, Y, HX, HY, P_ANY, ev)
    assert exact is not None and R >= exact, ev
    assert loose is None or R >= loose, ev


# delta_k'(x) = x^(k-2) ((k+1) x^2 - 3k x + (k-1)) vanishes at 0 for k >= 3
# and at the roots of the quadratic, dyadic for k = 3 (2 and 1/4) and k = 21
# (5/2).
@pytest.mark.parametrize("k, z", [(k, Fraction(0)) for k in (3, 4, 9, 40)]
                         + [(3, Fraction(2)), (3, Fraction(1, 4)), (21, Fraction(5, 2))])
def test_centre_where_the_derivative_vanishes_raises(k, z):
    # No disk, so certification raises.
    X = int(z * (1 << 144))
    assert spectra._step_radius(k, X, 0, 0, 0, 144, spectra._delta_fixed(k, X, 0, 144)) is None
    assert spectra._newton_disk(k, X, 0, 144, 128) == (X, 0, None)
    seeds = spectra._initial_seeds(k, 144)
    seeds[0] = X, 0
    with pytest.raises(CertificationFailure,
                       match=rf"no inclusion disk certified at \({X} \+ 0i\) 2\^-144"):
        spectra._certify(k, spectra._polish(k, seeds, 128), 128)
