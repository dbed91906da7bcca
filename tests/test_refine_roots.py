"""Refining single roots by nested Newton inclusion disks.

odd_k_reduce certifies the root system once at 128 bits and refines only
gamma_s of the smallest pair (spectra.refine_root).  The tests check, for
gamma_s and root k - 3, that each refined ball lies inside its 128-bit
ball and holds the matching root of a 512-bit system, that the weight
refine_root returns with it is eval_gk at the refined root bit for bit
(and rs.weights[i] when nothing is refined), that a refinement
which polishes towards a neighbouring root is never returned, that one
whose radius misses the requested precision or is not certified
escalates, and that the reduction pays for one certification, still
gives the outcome of a full reduction-grade solve, and gives the same
outcome when tau must be refined again.
"""

import json
from fractions import Fraction

import pytest

from pellzero import ball, cli, precision, reduction, spectra
from pellzero.ball import PrecisionExhausted
from pellzero.reduction import (
    DEFAULT_M,
    dp_reduce,
    odd_k_instance,
    odd_k_reduce,
    working_prec_for,
)
from pellzero.spectra import CertificationFailure, refine_root, solve_roots

ODD = list(range(5, 54, 2))
PREC = working_prec_for(DEFAULT_M)


@pytest.fixture(autouse=True)
def cold_cache():
    spectra.clear_cache()
    yield
    spectra.clear_cache()


def _parts(b):
    """The exact (re, im, rad) of a Ball, as Fractions: at the Ball's own
    scale Q, to_disk moves nothing."""
    X, Y, R, Q = b.to_disk(max(b.Q, 0))
    return tuple(Fraction(v, 1 << Q) for v in (X, Y, R))


def _inside(inner, outer) -> bool:
    """Whether the disk of the ball inner lies in the disk of outer,
    decided on exact rationals."""
    (x1, y1, r1), (x0, y0, r0) = _parts(inner), _parts(outer)
    r = r0 - r1
    return r >= 0 and (x1 - x0) ** 2 + (y1 - y0) ** 2 <= r * r


def _same(a, b) -> bool:
    """Bit for bit: integer disks, scales, labels and markers."""
    return ((a.to_disk(a.Q), a.prec, a.is_complex)
            == (b.to_disk(b.Q), b.prec, b.is_complex))


def _read_roots(rs):
    """gamma_s, the one root the odd reduction refines, and root k - 3,
    the next modulus down the order (the reduction reads only its
    modulus), as a second refinement case."""
    return rs.k - 1, rs.k - 3


@pytest.mark.parametrize("k", ODD + [99])
def test_refined_ball_lies_inside_the_128_bit_ball(k):
    rs = solve_roots(k)
    assert rs.prec == 128
    for i in _read_roots(rs):
        refined, weight = refine_root(rs, i, PREC)
        assert _same(weight, spectra.eval_gk(k, refined))
        assert refined.prec >= PREC
        assert _inside(refined, rs.roots[i])
        assert _parts(refined)[2] < _parts(rs.roots[i])[2]


@pytest.mark.parametrize("k", [5, 7, 21, 53, 99])
def test_refined_ball_holds_the_512_bit_root(k):
    rs = solve_roots(k)
    refined = {i: refine_root(rs, i, PREC)[0] for i in _read_roots(rs)}
    fine = solve_roots(k, 512)
    for i, b in refined.items():
        assert _inside(fine.roots[i], b)


def test_refining_at_or_below_the_system_precision_returns_the_root():
    rs = solve_roots(21)
    for i in _read_roots(rs):
        assert refine_root(rs, i, 128)[0] is rs.roots[i]
        assert refine_root(rs, i, 64)[0] is rs.roots[i]
        assert _same(refine_root(rs, i, 128)[1], rs.weights[i])


def test_partner_of_a_refined_root_is_its_exact_mirror():
    # The lower member of a pair is refined at its upper partner's disk
    # and mirrored, so the two refined balls are conjugate bit for bit.
    for k in (5, 21, 53):
        rs = solve_roots(k)
        i, partner = k - 1, k - 2
        assert (partner, i) in rs.conj_pairs
        (a, _), (b, _) = refine_root(rs, i, PREC), refine_root(rs, partner, PREC)
        assert a.prec == b.prec, k
        assert _same(a, b.conjugate()), k


@pytest.mark.parametrize("k", [5, 21, 53])
def test_refinement_towards_a_neighbouring_root_is_never_returned(k, monkeypatch):
    # The planted Newton starts every refinement from the centre of the
    # pair above the smallest one, so it converges to a neighbouring root;
    # its inclusion disk is certified but lies outside the old disk.  The
    # precision ceiling is lowered only so that the escalations stop after
    # a few doublings instead of running Newton on million-bit integers.
    rs = solve_roots(k)
    i = rs.k - 1
    NX, NY, _ = rs.disks[k - 4]
    newton = spectra._newton

    def towards_neighbour(k_, X, Y, P, prec):
        shift = P - rs.P
        return newton(k_, NX << shift, abs(NY) << shift, P, prec)

    monkeypatch.setattr(spectra, "_newton", towards_neighbour)
    monkeypatch.setattr(precision, "PREC_CEILING", 4 * PREC)
    with pytest.raises((CertificationFailure, PrecisionExhausted)):
        refine_root(rs, i, PREC)


@pytest.mark.parametrize("k", [5, 53])
def test_refinement_short_of_the_label_escalates(k, monkeypatch):
    # One Newton step from a 128-bit centre reaches about 256 bits: the
    # new disk nests in the old one, but its radius misses 2^-PREC |z|.
    rs = solve_roots(k)
    i = rs.k - 1
    newton = spectra._newton

    def one_step_at_prec(k_, X, Y, P, prec):
        if prec != PREC:
            return newton(k_, X, Y, P, prec)
        dX, dY = spectra._newton_step(k_, X, Y, P)
        return X - dX, Y - dY

    monkeypatch.setattr(spectra, "_newton", one_step_at_prec)
    root, _ = refine_root(rs, i, PREC)
    assert root.prec == ball.escalate(PREC)
    re, im, rad = _parts(root)
    assert rad ** 2 * 4 ** root.prec <= re ** 2 + im ** 2


@pytest.mark.parametrize("k", [5, 53])
def test_refinement_with_an_uncertified_radius_escalates(k, monkeypatch):
    # A planted failure of the first inclusion radius (delta_k' not
    # certified nonzero) sends refine_root on to twice the precision,
    # whose disk nests in the 128-bit one.
    rs = solve_roots(k)
    radius = spectra._inclusion_radius
    failed = []

    def fail_once(k_, X, Y, P):
        if not failed:
            failed.append(P)
            raise CertificationFailure("planted")
        return radius(k_, X, Y, P)

    monkeypatch.setattr(spectra, "_inclusion_radius", fail_once)
    with spectra.record_precisions() as seen:
        root, weight = refine_root(rs, k - 1, PREC)
    assert failed == [spectra._scale(k, PREC)]
    assert root.prec == ball.escalate(PREC) and seen == [root.prec]
    assert _inside(root, rs.roots[k - 1])
    assert _same(weight, spectra.eval_gk(k, root))


def test_odd_reduce_refines_tau_through_its_callback(monkeypatch):
    # At 256 bits the certified quotients of tau run out before a
    # denominator passes 6M, so dp_reduce asks odd_k_reduce's callback for
    # tau at 512 bits; the outcome is the one at the default precision.
    ks = range(5, 40, 2)
    want = {k: odd_k_reduce(k) for k in ks}
    monkeypatch.setattr(reduction, "working_prec_for", lambda M: 256)
    for k in ks:
        out = odd_k_reduce(k)
        assert out.epsilon.prec == 512, k
        assert (out.R, out.q_used, out.m_index, out.attempts) == (
            want[k].R, want[k].q_used, want[k].m_index, want[k].attempts), k


@pytest.mark.parametrize("k", [21, 53])
def test_odd_reduce_certifies_once_at_128_bits(k, monkeypatch):
    certify = spectra._certify
    precs = []

    def counting(k_, centers, prec):
        precs.append(prec)
        return certify(k_, centers, prec)

    monkeypatch.setattr(spectra, "_certify", counting)
    out = odd_k_reduce(k)
    assert precs == [128]
    assert out.nonvanishing_certified is True


def test_odd_reduce_matches_the_full_reduction_grade_solve():
    for k in ODD:
        spectra.clear_cache()
        out = odd_k_reduce(k)
        # The oracle: every root class solved and certified at the
        # reduction's working precision, re-solved on each refinement.
        full = solve_roots(k, PREC)
        assert full.prec == PREC
        inst = odd_k_instance(full, DEFAULT_M)
        ref = dp_reduce(inst, refine=lambda p, k=k: odd_k_instance(
            solve_roots(k, p), DEFAULT_M).tau)
        assert (out.R, out.q_used, out.m_index, out.attempts) == (
            ref.R, ref.q_used, ref.m_index, ref.attempts), k
        assert out.certifications == inst.certifications, k


def test_verify_full_odd_still_reports_the_reduction_precision(capsys):
    rc = cli.main(["verify", "--k", "7", "--full"])
    rec = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert rec["bound_used"]["kind"] == "reduced_odd"
    assert rec["precision_used"] == 390
