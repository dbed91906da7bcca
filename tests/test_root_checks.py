"""Root checks read the certified root system.  The modulus-ratio floor
compares adjacent distinct moduli, and the off-dominant weight bound one
weight per conjugate class; each report matches an oracle over every
pair or root, whose holds comes from Balls and whose margin or largest
weight is an exact Fraction.  The ratio floors of item i and of the
even modulus gap, the dominant weight range, the weight bound and the
smallest-root caps are decided on integers exactly at their boundaries,
every item holds up to k = 500, and the root checks divide no Ball."""

import dataclasses
import math
from fractions import Fraction

import pytest
from mpmath.libmp import from_man_exp, to_str

from pellzero import spectra
from pellzero.ball import Ball


def _all_pairs_ratio_floor(rs):
    """The modulus-ratio floor over every pair of distinct moduli: holds
    on the Balls of the modulus intervals [mod_lo, mod_hi] 2^-P, and the
    least exact ratio lower bound less 1 + f 2^-P, f the floor
    1.59^(-k^3) 2^P rounded up, or 1 once k^3 >= 2P."""
    p, n = rs.prec, rs.k ** 3
    floor_ratio = (Ball.exact(1, p)
                   + Ball.exact(Fraction(159, 100), p).pow_int(-n))
    f = 1 if n >= 2 * rs.P else math.ceil(Fraction(100, 159) ** n * (1 << rs.P))
    partner = dict(rs.conj_pairs)
    moduli = [Ball.from_disk(lo + hi, 0, hi - lo, rs.P + 1, p)
              for lo, hi in zip(rs.mod_lo, rs.mod_hi)]
    holds = True
    min_margin = None
    for i in range(rs.k):
        for j in range(i + 1, rs.k):
            if partner.get(i) == j:
                continue
            a, b = moduli[i], moduli[j]
            if not (a / b).gt(floor_ratio):
                holds = False
            margin = a.fr_lo() / b.fr_hi() - 1 - Fraction(f, 1 << rs.P)
            if min_margin is None or margin < min_margin:
                min_margin = margin
    return {"holds": holds, "min_margin": float(min_margin)}


@pytest.mark.parametrize("k", list(range(2, 13)) + [40, 86])
def test_modulus_ratio_floor_matches_all_pairs(k):
    rs = spectra.solve_roots(k)
    report = spectra.check_root_bounds(rs)["modulus_ratio_floor"]
    assert report == _all_pairs_ratio_floor(rs)


def _upper_modulus(ball, P):
    """An exact upper bound on |value| over the Ball: ceil(|mid| 2^P)
    2^-P plus the radius, read exactly at 2^-P."""
    X, Y, R, Q = ball.to_disk(P)
    n = X * X + Y * Y
    return Fraction(math.isqrt(n - 1) + 1 + R if n else R, 1 << Q)


def _all_roots_weight_bound(rs):
    """The off-dominant weight bound over every root: holds on Balls, and
    the largest exact upper bound on a weight."""
    bound = Fraction(1) if rs.k <= 4 else Fraction(2, rs.k - 2)
    holds = True
    worst = None
    for i, g in enumerate(rs.weights):
        if i == rs.dominant:
            continue
        holds = holds and g.magnitude().lt(bound)
        m = _upper_modulus(g, rs.P)
        if worst is None or m > worst:
            worst = m
    return {"holds": holds, "bound": str(bound), "max_weight": float(worst)}


@pytest.mark.parametrize("k", list(range(2, 13)) + [40, 86])
def test_offdominant_weight_bound_matches_all_roots(k):
    rs = spectra.solve_roots(k)
    report = spectra.check_root_bounds(rs)["offdominant_weight_bound"]
    assert report == _all_roots_weight_bound(rs)


@pytest.mark.parametrize("k", [20, 200])
def test_root_checks_divide_a_constant_number_of_balls(k, monkeypatch):
    # A cold system, so that the check computes the weights too.
    spectra.clear_cache()
    rs = spectra.solve_roots(k)
    calls = []
    div = Ball.__truediv__

    def counting(a, b):
        calls.append(1)
        return div(a, b)

    monkeypatch.setattr(Ball, "__truediv__", counting)
    report = spectra.check_root_bounds(rs)
    assert all(item["holds"] for item in report.values())
    assert spectra.check_even_modulus_gap(rs) is True
    assert calls == []


@pytest.mark.parametrize("k", [150, 250, 499, 500])
def test_root_checks_hold_to_the_top_of_the_paper_range(k):
    report = spectra.check_root_bounds(spectra.solve_roots(k))
    assert all(item["holds"] for item in report.values()), report


def _system(k, prec):
    """A certified system at prec, kept out of the solve_roots cache."""
    seeds = spectra._initial_seeds(k, prec + 16)
    return spectra._certify(k, spectra._polish(k, seeds, prec), prec)


def _floor_units(P, floor):
    """(below, above): numerators over 2^P whose ratios lie at or under
    1 + floor and two units of 2^-P over it."""
    t = (1 << P) * (1 + floor)
    below = t.numerator // t.denominator
    return below, below + 2


# (k, prec): the floor 1.59^(-k^3) 2^P is exact below k^3 = 2P and 1
# from there (k = 7 at P = 144, k = 10 at P = 406); k = 8 at P = 406 has
# P < k^3 < 2P, where the floor is still far above one unit.
@pytest.mark.parametrize("k, prec", [(2, 128), (3, 128), (5, 128), (6, 128), (7, 128),
                                     (8, 390), (10, 390)])
def test_modulus_ratio_floor_decides_at_the_boundary(k, prec):
    # The dominant and the next distinct modulus sit at the floor; each
    # later distinct modulus halves.
    rs = _system(k, prec)
    P = rs.P
    partners = dict((b, a) for a, b in rs.conj_pairs)
    distinct = [i for i in range(k) if i not in partners]
    hi = [0] * k
    for m, i in enumerate(distinct[1:]):
        hi[i] = 1 << (P - m)
    for b, a in partners.items():
        hi[b] = hi[a]
    for top, holds in zip(_floor_units(P, Fraction(100, 159) ** k ** 3), (False, True)):
        moduli = [top] + hi[1:]
        report = spectra.check_root_bounds(dataclasses.replace(rs, mod_lo=moduli, mod_hi=moduli))
        assert report["modulus_ratio_floor"]["holds"] is holds, (k, top)


# (k, prec): the floor k^(-k^2) 2^P is exact up to k = 6 at P = 144 and 1
# from k = 8; at P = 368, k = 10 has k^2 log2 k < P <= k^2 bit_length(k).
@pytest.mark.parametrize("k, prec", [(2, 128), (4, 128), (6, 128), (8, 128), (10, 352)])
def test_even_modulus_gap_decides_at_the_boundary(k, prec):
    rs = _system(k, prec)
    lo, hi = list(rs.mod_lo), list(rs.mod_hi)
    hi[k - 1] = 1 << rs.P
    for second, holds in zip(_floor_units(rs.P, Fraction(1, k ** (k * k))), (False, True)):
        lo[k - 2] = second
        rs_at = dataclasses.replace(rs, mod_lo=lo, mod_hi=hi)
        assert spectra.check_even_modulus_gap(rs_at) is holds, k


def _with_weight_disk(rs, i, disk):
    """rs with the weight disk of root i replaced."""
    out = dataclasses.replace(rs)
    disks = list(rs.weight_disks)
    disks[i] = disk
    out.__dict__["weight_disks"] = disks
    return out


def _with_weight(rs, i, ball):
    """rs with the weight disk of root i replaced by the integer disk at
    rs.P that the Ball converts to exactly."""
    assert ball.Q <= rs.P
    return _with_weight_disk(rs, i, ball.to_disk(rs.P)[:3])


def _fball(re, im, rad):
    """The Ball of the disk (re + i im, rad), dyadic Fractions, exactly."""
    P = max(v.denominator.bit_length() - 1 for v in (re, im, rad))
    return Ball.from_disk(*(int(v * 2 ** P) for v in (re, im, rad)), P, 128)


@pytest.mark.parametrize("k, re, im, rad", [
    (6, Fraction(-1, 2), None, Fraction(0)),                 # |g| = 1/2
    (4, Fraction(3, 8), Fraction(1, 2), Fraction(3, 8)),     # |mid| + rad = 1
])
def test_offdominant_weight_bound_decides_at_the_boundary(k, re, im, rad):
    # Class 1 gets a weight whose upper bound sits at the bound, then
    # 2^-100 below it.
    rs = _system(k, 128)
    tiny = Fraction(1, 1 << 100)
    for shift, holds in ((0, False), (tiny, True)):
        if im is None:
            ball = _fball(re + shift, Fraction(0), rad)
        else:
            ball = _fball(re, im, rad - shift)
        report = spectra.check_root_bounds(_with_weight(rs, 1, ball))
        assert report["offdominant_weight_bound"]["holds"] is holds, (k, shift)


@pytest.mark.parametrize("k", [2, 5, 6])
def test_dominant_weight_range_decides_at_the_boundary(k):
    # The dominant weight disk (GX, 0, GR) has its lower end at or just
    # above 0.276, then its upper end at or just below 1/2; 0.276 2^P
    # is not an integer, so t = floor(0.276 2^P) is below it.
    rs = _system(k, 128)
    one = 1 << rs.P
    t = 276 * one // 1000
    for disk, holds in (((t + 5, 0, 5), False), ((t + 5, 0, 4), True),
                        ((one // 2 - 5, 0, 5), False), ((one // 2 - 5, 0, 4), True)):
        report = spectra.check_root_bounds(_with_weight_disk(rs, rs.dominant, disk))
        assert report["dominant_weight_range"]["holds"] is holds, (k, disk)


@pytest.mark.parametrize("k", [2, 5, 6, 40])
def test_smallest_root_caps_decide_at_the_boundary(k):
    # c = mod_hi[0] - 2^P bounds ln(gamma) 2^P above.  The cap holds iff
    # c < 2k (2^P - mod_hi[-1]), the floor iff c < 2k(5k+2) g_lo.
    rs = _system(k, 128)
    one = 1 << rs.P
    edge = one + 2 * k * (one - rs.mod_hi[-1])
    for top, holds in ((edge, False), (edge - 1, True)):
        hi = [top] + rs.mod_hi[1:]
        report = spectra.check_root_bounds(dataclasses.replace(rs, mod_hi=hi))
        assert report["smallest_root_caps"]["modulus_below_cap"] is holds, (k, top)
    g = (rs.mod_hi[0] - one) // (2 * k * (5 * k + 2))
    for g_lo, holds in ((g, False), (g + 1, True)):
        disk = (g_lo + 3, 0, 3) if k % 2 else (-g_lo - 3, 0, 3)
        report = spectra.check_root_bounds(_with_weight_disk(rs, rs.k - 1, disk))
        assert report["smallest_root_caps"]["weight_above_floor"] is holds, (k, g_lo)


@pytest.mark.parametrize("k", list(range(2, 41)) + [150, 250, 499, 500])
def test_dominant_weight_value_prints_as_mpmath_did(k):
    # The reported midpoint GX 2^-P, formatted without mpmath, is the
    # string mpmath's to_str gives for the same exact dyadic value.
    rs = spectra.solve_roots(k)
    GX = rs.weight_disks[rs.dominant][0]
    value = spectra.check_root_bounds(rs)["dominant_weight_range"]["value"]
    assert value == to_str(from_man_exp(GX, -rs.P), 12)
