"""Root certification by Newton inclusion disks and a sorted disk sweep.

The enclosure test checks that every 128-bit root ball holds the disk of
the matching certified 512-bit root, exactly on the integer disks
(Ball.to_disk), and that the kept integer modulus intervals hold its
modulus.  The failure-path
tests feed _certify class centres that must not certify: a duplicated
centre, a real class near the spurious root at 1, a real class off the
axis, a pair class on it, a centre moved so far towards a neighbour that
the disks meet, and, with
the inclusion radii pinned, centres or radii that break one of the later
checks each (modulus order, dominance, root sum, root product); a
certification whose radii miss its precision label fails, and the solve
escalates.  Centres are fixed-point integers (X, Y) at P = prec + 16.  The
sweep tests check the fixed-point sweep (spectra._overlapping_pairs) and
pair test (spectra._disjoint) against an all-pairs exact oracle on
random disks, the radius conversion of Ball.to_disk against exact
rounding up, and pin the number of pair tests one certification makes.
The seed tests check that _initial_seeds gives one
seed per conjugate class, the real roots first with Y = 0 and then the
upper member of each pair, and that gamma's seed stays finite where
gamma^k leaves the double range.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pellzero import spectra
from pellzero.ball import Ball
from pellzero.precision import sig_str
from pellzero.spectra import CertificationFailure


@pytest.fixture(autouse=True)
def cold_cache():
    """Each test starts cold and leaves no high-precision system behind
    for later tests that expect a 128-bit solve."""
    spectra.clear_cache()
    yield
    spectra.clear_cache()


def _dyadic(man, exp):
    return Fraction(man) * Fraction(2) ** exp


def _parts(b):
    """The exact (re, im, rad) of a Ball, as Fractions: at the Ball's own
    scale Q, to_disk moves nothing."""
    X, Y, R, Q = b.to_disk(max(b.Q, 0))
    return tuple(Fraction(v, 1 << Q) for v in (X, Y, R))


def _fball(re, im, rad):
    """The Ball of the disk (re + i im, rad), dyadic Fractions, exactly."""
    P = max(v.denominator.bit_length() - 1 for v in (re, im, rad))
    return Ball.from_disk(*(int(v * 2 ** P) for v in (re, im, rad)), P, 128)


def _centres(k, prec=128):
    return spectra._polish(k, spectra._initial_seeds(k, prec + 16), prec)


def _class_centres(rs):
    """The class centres of a root system, in _initial_seeds order: the
    real roots, gamma first, then the upper member of each pair."""
    return [rs.disks[i][:2] for i in rs.real_roots + [a for a, _ in rs.conj_pairs]]


@pytest.mark.parametrize("k", list(range(2, 61)) + [86])
def test_root_balls_contain_the_512_bit_centres(k):
    low = spectra.solve_roots(k, 128)
    assert low.prec == 128
    # The 512-bit system is polished from the 128-bit centres, moved to
    # its fixed point, and certified on its own.  Both list the roots by
    # descending modulus, conjugate partners by descending imaginary
    # part, so the certified order matches them up.
    seeds = [(X << 384, Y << 384) for X, Y in _class_centres(low)]
    high = spectra._certify(k, spectra._polish(k, seeds, 512), 512)
    P, shift = high.P, high.P - low.P
    for lo_ball, hi_ball in zip(low.roots, high.roots):
        (X, Y, R, _), (x, y, r, _) = lo_ball.to_disk(P), hi_ball.to_disk(P)
        assert r <= R and (X - x) ** 2 + (Y - y) ** 2 <= (R - r) ** 2, (k, lo_ball)
    # The kept modulus intervals hold the 512-bit moduli too.
    for a, b, hi_ball in zip(low.mod_lo, low.mod_hi, high.roots):
        m_lo, m_hi = spectra._modulus_bounds(*hi_ball.to_disk(P)[:3])
        assert a << shift <= m_lo and m_hi <= b << shift, k


def test_duplicated_centre_raises():
    # Class centres list the real classes (gamma, and the negative root
    # for even k) first, then one upper member per pair.  A real centre
    # copied into a pair class puts that pair on the axis as well.
    for k in (9, 10):
        centres = _centres(k)
        spectra._certify(k, centres, 128)
        first_pair = 2 - k % 2
        copies = [(0, first_pair), (first_pair, first_pair + 1),
                  (first_pair + 1, first_pair)] + [(0, 1)] * (k % 2 == 0)
        for src, dst in copies:
            dup = list(centres)
            dup[dst] = dup[src]
            with pytest.raises(CertificationFailure, match="not certifiedly disjoint"):
                spectra._certify(k, dup, 128)


def test_centre_at_the_spurious_root_raises():
    # delta_k = (x - 1) Psi_k: a centre that homes in on x = 1 finds a
    # root of delta_k, and only the exact node at 1 exposes it.  The
    # negative real class of k = 10 is moved there; sorted by modulus it
    # is root 1.
    k = 10
    centres = _centres(k)
    centres[1] = (1 << P128) + (1 << (P128 - 100)), 0
    with pytest.raises(CertificationFailure, match=f"disks 1,{k} not certifiedly disjoint"):
        spectra._certify(k, centres, 128)


@pytest.mark.parametrize("k", [9, 10])
def test_real_class_off_the_axis_raises(k):
    # A real class is certified real because its disk is its own mirror;
    # a real class with Y != 0 is no such disk, so it fails at once.
    for i in range(2 - k % 2):
        moved = _centres(k)
        X, _ = moved[i]
        moved[i] = X, 1
        with pytest.raises(CertificationFailure,
                           match=rf"real class \({X} \+ 1i\) 2\^-{P128} is off the axis"):
            spectra._certify(k, moved, 128)


@pytest.mark.parametrize("k", [9, 10])
def test_pair_class_on_the_axis_raises(k):
    # A pair class with Y = 0 is emitted as a disk and its mirror, the
    # same disk twice, which the disjointness test rejects.
    centres = _centres(k)
    for i in range(2 - k % 2, len(centres)):
        moved = list(centres)
        moved[i] = centres[i][0], 0
        with pytest.raises(CertificationFailure, match="not certifiedly disjoint"):
            spectra._certify(k, moved, 128)


def test_centre_moved_onto_a_neighbour_raises():
    k = 9
    centres = _centres(k)
    upper = [i for i, (_, Y) in enumerate(centres) if Y > 0]

    def dist2(ij):
        (X, Y), (U, V) = centres[ij[0]], centres[ij[1]]
        return (X - U) ** 2 + (Y - V) ** 2

    i, j = min(((a, b) for a in upper for b in upper if a < b), key=dist2)
    (X, Y), (U, V) = centres[i], centres[j]
    moved = list(centres)
    moved[i] = X + (U - X) * 45 // 100, Y + (V - Y) * 45 // 100
    with pytest.raises(CertificationFailure, match="not certifiedly disjoint"):
        spectra._certify(k, moved, 128)


# -- the checks after the sweep, with pinned radii -----------------------

P128 = 128 + 16
# Radii in units of 2^-P128: 2^-130 is far above the 128-bit centres'
# error and below |root| 2^-128 for every root of k = 9 and 10, so it
# meets the precision label; 41 2^-12 is about 0.01.
PINNED = 1 << (P128 - 130)
WIDE = 41 << (P128 - 12)


def _pin_radii(monkeypatch, wide=None):
    """Every inclusion radius pinned to 2^-130, except about 0.01 at the
    centre `wide`, so that a moved centre keeps a small disk."""
    def pinned(kk, X, Y, P):
        return WIDE if wide is not None and (X, Y) == wide else PINNED
    monkeypatch.setattr(spectra, "_inclusion_radius", pinned)


def _real_centres(centres):
    """Indices of gamma and, for even k, of the negative real root."""
    reals = sorted((c, i) for i, c in enumerate(centres) if not c[1])
    return reals[-1][1], reals[0][1]


def _moved(c, units):
    """A real centre moved by `units` of 2^-(128+16)."""
    return c[0] + units, 0


@pytest.mark.parametrize("k", [9, 10])
def test_pinned_radii_certify_the_polished_centres(k, monkeypatch):
    # The control for the tests below: with every radius at 2^-130, the
    # true centres pass every check.
    _pin_radii(monkeypatch)
    rs = spectra._certify(k, _centres(k), 128)
    assert _parts(rs.roots[0])[2] == Fraction(1, 1 << 130)


def test_modulus_order_inversion_raises(monkeypatch):
    # k = 10: the negative real root (modulus 0.8509) and the smallest
    # pair (0.8578) are about 0.6 apart, so a radius of 0.01 keeps the
    # disks apart but lets the modulus intervals meet.
    k = 10
    centres = _centres(k)
    _, neg = _real_centres(centres)
    _pin_radii(monkeypatch, wide=centres[neg])
    with pytest.raises(CertificationFailure, match="modulus order inversion at sorted index 8"):
        spectra._certify(k, centres, 128)


def test_dominant_modulus_below_one_raises(monkeypatch):
    # gamma replaced by 0.999: still the largest modulus (the next is
    # 0.959), clear of the node at 1, but not above 1.
    k = 9
    centres = _centres(k)
    gamma, _ = _real_centres(centres)
    centres[gamma] = (999 << P128) // 1000, 0
    _pin_radii(monkeypatch)
    with pytest.raises(CertificationFailure, match="dominant modulus not certified > 1"):
        spectra._certify(k, centres, 128)


def test_second_modulus_above_one_raises(monkeypatch):
    # The negative real root of k = 10 moved out to -1.001: second in
    # modulus order, and outside the unit circle.
    k = 10
    centres = _centres(k)
    _, neg = _real_centres(centres)
    centres[neg] = -((1001 << P128) // 1000), 0
    _pin_radii(monkeypatch)
    with pytest.raises(CertificationFailure, match="modulus 1 not certified < 1"):
        spectra._certify(k, centres, 128)


def test_negative_dominant_root_raises(monkeypatch):
    k = 9
    centres = _centres(k)
    gamma, _ = _real_centres(centres)
    centres[gamma] = -centres[gamma][0], 0
    _pin_radii(monkeypatch)
    with pytest.raises(CertificationFailure, match="dominant root is not real positive"):
        spectra._certify(k, centres, 128)


def test_root_sum_off_two_raises(monkeypatch):
    # gamma moved by 2^-60: its pinned disk no longer holds it, and the
    # centres sum to 2 + 2^-60, far outside 9 radii of 2^-130.
    k = 9
    centres = _centres(k)
    gamma, _ = _real_centres(centres)
    centres[gamma] = _moved(centres[gamma], 1 << (P128 - 60))
    _pin_radii(monkeypatch)
    with pytest.raises(CertificationFailure, match="root sum does not enclose 2"):
        spectra._certify(k, centres, 128)


def test_root_product_off_one_raises(monkeypatch):
    # gamma moved up and the negative root moved left by the same 2^-60:
    # the sum is unchanged, but the product of the moduli grows by about
    # 2^-60 (1/gamma + 1/0.85) relative.
    k = 10
    centres = _centres(k)
    gamma, neg = _real_centres(centres)
    centres[gamma] = _moved(centres[gamma], 1 << (P128 - 60))
    centres[neg] = _moved(centres[neg], -(1 << (P128 - 60)))
    _pin_radii(monkeypatch)
    with pytest.raises(CertificationFailure, match=r"\|root product\| does not enclose 1"):
        spectra._certify(k, centres, 128)


def test_radius_with_bits_below_the_fixed_point_rounds_up(monkeypatch):
    # gamma and a real centre 11 units of 2^-(128+16) below it, each with
    # an inclusion radius (k+1) |D| / |S| of 5.75 units, which
    # _inclusion_radius rounds up to 6: the disks meet.  Rounded down to
    # 5 units, the radii would leave the disks a unit apart.
    k = 10
    centres = _centres(k)
    gamma, neg = _real_centres(centres)
    centres[neg] = _moved(centres[gamma], -11)

    def delta(kk, X, Y, P):
        if Y:
            return PINNED, 0, 0, (k + 1) << P, 0, 0
        return 23, 0, 0, 4 * (k + 1) << P, 0, 0

    monkeypatch.setattr(spectra, "_delta_fixed", delta)
    i, j = sorted((gamma, neg))
    with pytest.raises(CertificationFailure, match=f"disks {i},{j} not certifiedly disjoint"):
        spectra._certify(k, centres, 128)


def test_near_real_centre_is_made_real(monkeypatch):
    # A real class off the axis fails like any other certification; the
    # 256-bit polish makes it real.
    k = 10
    polish, certify = spectra._polish, spectra._certify
    failures = []
    tilted = []

    def polish_then_tilt(kk, seeds, prec):
        centres = polish(kk, seeds, prec)
        if not tilted:
            # The negative real root, one unit of 2^-P off the axis.
            i = centres.index(min(c for c in centres if not c[1]))
            centres[i] = centres[i][0], 1
            tilted.append(centres[i])
        return centres

    def recording_certify(kk, centres, prec):
        try:
            return certify(kk, centres, prec)
        except CertificationFailure as fail:
            failures.append(fail)
            raise

    monkeypatch.setattr(spectra, "_polish", polish_then_tilt)
    monkeypatch.setattr(spectra, "_certify", recording_certify)
    rs = spectra.solve_roots(k)
    assert len(failures) == 1 and type(failures[0]) is CertificationFailure
    X, Y = tilted[0]
    assert str(failures[0]) == f"real class ({X} + {Y}i) 2^-{P128} is off the axis"
    assert rs.prec == 256
    assert rs.real_roots == [0, k - 1]
    assert rs.roots[k - 1].fr_mid() < 0
    assert len(rs.conj_pairs) == (k - 2) // 2


@pytest.mark.parametrize("k", [9, 10])
def test_failed_certification_escalates_from_the_old_centres(k, monkeypatch):
    # One plain failure sends the 128-bit centres to a polish at 256
    # bits, which reads them at the new fixed point.
    certify = spectra._certify
    failed = []

    def fail_once(kk, centres, prec):
        if not failed:
            failed.append(prec)
            raise CertificationFailure("forced")
        return certify(kk, centres, prec)

    monkeypatch.setattr(spectra, "_certify", fail_once)
    rs = spectra.solve_roots(k)
    assert failed == [128]
    monkeypatch.setattr(spectra, "_certify", certify)
    spectra.clear_cache()
    direct = spectra.solve_roots(k, 256)
    assert rs.prec == direct.prec == 256
    assert rs.conj_pairs == direct.conj_pairs
    assert rs.real_roots == direct.real_roots
    assert ([[sig_str(v, 30) for v in _parts(b)[:2]] for b in rs.roots]
            == [[sig_str(v, 30) for v in _parts(b)[:2]] for b in direct.roots])
    # Polished at the new precision, not left at the old one.
    assert max(_parts(b)[2] for b in rs.roots) < Fraction(1, 1 << 200)


@pytest.mark.parametrize("k", [5, 10])
def test_radii_short_of_the_label_escalate(k, monkeypatch):
    # One Newton step from a float seed reaches about 106 bits: the
    # 128-bit disks pass every structural check, but their radii miss
    # 2^-128 |centre|, so the certification fails last, on the label.
    newton, certify = spectra._newton, spectra._certify
    failures = []

    def one_step_at_128(kk, X, Y, P, prec):
        if prec != 128:
            return newton(kk, X, Y, P, prec)
        dX, dY = spectra._newton_step(kk, X, Y, P)
        return X - dX, Y - dY

    def recording_certify(kk, centres, prec):
        try:
            return certify(kk, centres, prec)
        except CertificationFailure as fail:
            failures.append((prec, str(fail)))
            raise

    monkeypatch.setattr(spectra, "_newton", one_step_at_128)
    monkeypatch.setattr(spectra, "_certify", recording_certify)
    rs = spectra.solve_roots(k)
    assert [prec for prec, _ in failures] == [128]
    assert failures[0][1] == "radii miss the label, |centre| 2^-128"
    assert rs.prec == 256
    for b in rs.roots:
        re, im, rad = _parts(b)
        assert (rad * 2 ** 256) ** 2 <= re * re + im * im


@pytest.mark.parametrize("k", [499, 500])
def test_top_of_the_paper_range_certifies(k):
    rs = spectra.solve_roots(k, 128)
    assert rs.prec == 128
    assert len(rs.conj_pairs) == ((k - 1) // 2 if k % 2 else (k - 2) // 2)
    assert rs.real_roots == ([0] if k % 2 else [0, k - 1])


# -- the seeds ----------------------------------------------------------

@pytest.mark.parametrize("k", list(range(2, 61)) + [499, 500])
def test_seeds_are_one_per_root_by_conjugate_class(k):
    seeds = spectra._initial_seeds(k, P128)
    n_real = 2 - k % 2
    assert len(seeds) == n_real + (k - n_real) // 2
    reals, uppers = seeds[:n_real], seeds[n_real:]
    assert all(Y == 0 for _, Y in reals)
    assert reals[0][0] > 0 and all(X < 0 for X, _ in reals[1:])
    assert all(Y > 0 for _, Y in uppers)
    assert len(set(uppers)) == len(uppers)


def test_gamma_seed_stays_finite_past_the_double_range():
    # gamma^800 is far above the largest double, so a double-precision
    # Newton pass on delta_k unscaled would give inf or nan here, which
    # has no fixed-point value; gamma lies just below phi^2.
    gamma, _ = spectra._initial_seeds(800, P128)[0]
    assert 2 << P128 < gamma < 3 << P128
    rs = spectra.solve_roots(800, 128)
    assert rs.prec == 128
    assert len(rs.roots) == 800


# -- the sweep ----------------------------------------------------------

@st.composite
def disk_lists(draw):
    """Disks on a coarse dyadic grid, so that overlaps, exact touching
    (along either axis), duplicates and disks just apart by 2^-120 all
    occur; centres are real, or complex (some on the real axis) with a
    128-bit tail, and radii are zero or 30-bit mantissas."""
    disks = []
    for _ in range(draw(st.integers(0, 14))):
        how = draw(st.sampled_from(["fresh", "duplicate", "touch_re", "touch_im",
                                    "just_apart"])) if disks else "fresh"
        rad = (_dyadic(draw(st.integers(0, (1 << 30) - 1)), -36)
               if draw(st.integers(0, 3)) else Fraction(0))
        if how == "fresh":
            re = _dyadic((draw(st.integers(-40, 40)) << 128)
                         + draw(st.integers(0, (1 << 128) - 1)), -134)
            im = Fraction(0) if draw(st.booleans()) else _dyadic(draw(st.integers(-40, 40)), -6)
            disks.append(_fball(re, im, rad))
            continue
        old = disks[draw(st.integers(0, len(disks) - 1))]
        re, im, old_rad = _parts(old)
        if how == "duplicate":
            disks.append(_fball(re, im, old_rad))
            continue
        gap = old_rad + rad + (_dyadic(1, -120) if how == "just_apart" else 0)
        if how == "touch_im":
            im += gap
        else:
            re += gap
        disks.append(_fball(re, im, rad))
    return disks


def _projection(b):
    re, _, r = _parts(b)
    return re - r, re + r


def _fixed_disks(disks):
    """The disks as (X, Y, R) at the one P that holds every bit of every
    centre and radius, so the conversion (Ball.to_disk) is exact."""
    P = max([0] + [b.Q for b in disks])
    return [b.to_disk(P)[:3] for b in disks]


def _apart(a, b):
    """Exact oracle: the centres are more than ra + rb apart."""
    (xa, ya, ra), (xb, yb, rb) = _parts(a), _parts(b)
    dx, dy, reach = xa - xb, ya - yb, ra + rb
    return dx * dx + dy * dy > reach * reach


@given(disk_lists())
def test_sweep_holds_every_pair_disjoint_rejects(disks):
    fixed = _fixed_disks(disks)
    pairs = spectra._overlapping_pairs(fixed)
    found = {frozenset(p) for p in pairs}
    assert len(found) == len(pairs)
    assert all(len(p) == 2 for p in found)
    spans = [_projection(b) for b in disks]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            meet = spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
            assert (frozenset((i, j)) in found) == meet, (i, j)
            apart = _apart(disks[i], disks[j])
            assert spectra._disjoint(fixed[i], fixed[j]) == apart, (i, j)
            if not apart:
                assert frozenset((i, j)) in found, (i, j)


def test_disjoint_decides_apart_real_projections_exactly():
    # Centres 2r + 2^-120 apart with radius r: a 30-bit distance bound
    # would round the gap away.
    r = _dyadic((1 << 30) - 1, -30)
    far = 2 * r + _dyadic(1, -120)
    zero = Fraction(0)
    a, b, touching = _fixed_disks([_fball(zero, zero, r), _fball(far, zero, r),
                                   _fball(2 * r, zero, r)])
    assert spectra._disjoint(a, b) and spectra._disjoint(b, a)
    assert not spectra._disjoint(a, touching)


@given(st.integers(1, (1 << 30) - 1), st.integers(-200, 40), st.integers(0, 200))
def test_radius_converts_rounding_up(man, exp, P):
    X, Y, R, Q = Ball.from_disk(0, 0, man, -exp, 128).to_disk(P)
    exact = man * Fraction(2) ** (exp + P)
    assert (X, Y, Q) == (0, 0, P)
    assert R - 1 < exact <= R


def test_certify_calls_disjoint_linearly(monkeypatch):
    k = 200
    centres = _centres(k)
    calls = 0
    disjoint = spectra._disjoint

    def counting(a, b):
        nonlocal calls
        calls += 1
        return disjoint(a, b)

    monkeypatch.setattr(spectra, "_disjoint", counting)
    rs = spectra._certify(k, centres, 128)
    assert len(rs.conj_pairs) == (k - 2) // 2
    assert 0 < calls < 4 * (k + 1)
