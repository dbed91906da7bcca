"""Certified continued fractions, the two-term inhomogeneous reduction,
and the odd-order pipeline down to the reduced index bound."""

import dataclasses
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from pellzero import reduction, spectra
from pellzero.ball import Ball, PrecisionExhausted
from pellzero.reduction import (
    DEFAULT_M,
    MAX_ATTEMPTS,
    ReductionExhausted,
    ReductionInstance,
    cf_expand,
    dp_reduce,
    odd_k_instance,
    odd_k_reduce,
    working_prec_for,
)
from pellzero.spectra import refine_root, solve_roots
from pellzero.zerostruct import enumerate_zeros


def _golden(prec):
    return (Ball.exact(5, prec).sqrt() + 1) / 2


def _silver(prec):
    return Ball.exact(2, prec).sqrt() + 1


def _quad_irrational(a, b, c, d):
    """(a + b sqrt(d)) / c as a refinable enclosure factory."""
    def make(prec):
        return (Ball.exact(d, prec).sqrt() * b + a) / c
    return make


def _fibs(count):
    out = [1, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def test_cf_golden_ratio_is_all_ones():
    exp = cf_expand(_golden(128), 100, refine=_golden)
    assert all(a == 1 for a in exp.partial_quotients)
    # convergents are ratios of consecutive Fibonacci numbers
    fib = _fibs(len(exp.convergents) + 2)
    for i, (p, q) in enumerate(exp.convergents):
        assert (p, q) == (fib[i + 1], fib[i])
    assert exp.convergents[-1][1] > 100
    # first denominator past 100 in the Fibonacci sequence is 144
    past = [q for _, q in exp.convergents if q > 100]
    assert past[0] == 144


def test_cf_silver_ratio_quotients():
    exp = cf_expand(_silver(128), 10 ** 6, refine=_silver)
    assert all(a == 2 for a in exp.partial_quotients)


def test_cf_convergent_laws():
    exp = cf_expand(_golden(192), 10 ** 9, refine=_golden)
    quots = exp.partial_quotients
    convs = exp.convergents
    assert len(quots) == len(convs)
    lo, hi = None, None
    x = _golden(192)
    lo, hi = x.fr_lo(), x.fr_hi()
    for i, (p, q) in enumerate(convs):
        assert math.gcd(p, q) == 1
        if i >= 1:
            assert q >= convs[i - 1][1]
        if i >= 2:
            assert q > convs[i - 1][1]
            # denominator recurrence with the next quotient
            assert q == quots[i] * convs[i - 1][1] + convs[i - 2][1]
        # approximation quality against the enclosure
        err = max(abs(lo - Fraction(p, q)), abs(hi - Fraction(p, q)))
        assert err < Fraction(1, q * q)


def test_cf_rational_value_terminates():
    # a dyadic rational is enclosed with zero radius, so the expansion
    # is its exact finite continued fraction
    exp = cf_expand(Ball.exact(Fraction(355, 128), 128), 50)
    assert exp.partial_quotients == (2, 1, 3, 2, 2, 2, 2)
    assert exp.convergents[-1] == (355, 128)


def test_cf_guards():
    with pytest.raises(ValueError):
        cf_expand(_golden(128), 0)
    # no refiner: certified quotients from one enclosure run out
    with pytest.raises(PrecisionExhausted):
        cf_expand(_golden(64), 10 ** 30)


def test_cf_quotients_stable_under_refinement():
    coarse = cf_expand(_golden(64), 100, refine=None)
    fine = cf_expand(_golden(256), 100, refine=None)
    n = min(len(coarse.partial_quotients), len(fine.partial_quotients))
    assert coarse.partial_quotients[:n] == fine.partial_quotients[:n]


def _brute_force_max_exponent(tau_f, mu_f, A, B, M):
    """Largest integer w admitting a solution of
    0 < |u tau - v + mu| < A * B**-w with 0 < u <= M, by direct scan."""
    best = None
    logA, logB = mp.log(A), mp.log(B)
    for u in range(1, M + 1):
        y = u * tau_f + mu_f
        dist = abs(y - mp.nint(y))
        if dist == 0:
            continue
        w = int(mp.floor((logA - mp.log(dist)) / logB))
        while A * mp.mpf(B) ** (-w) <= dist:
            w -= 1
        if best is None or w > best:
            best = w
    return best


def test_dp_reduce_planted_golden_instance():
    prec = 128
    inst = ReductionInstance(tau=_golden(prec),
                             mu=Ball.exact(Fraction(1, 2), prec),
                             A=Ball.exact(10, prec),
                             B=Ball.exact(2, prec),
                             M=1000)
    out = dp_reduce(inst, refine=_golden)
    assert out.q_used > 6000
    assert out.q_used == 6765  # first Fibonacci number past 6M
    assert out.attempts == 1
    assert out.epsilon.fr_lo() > 0
    # eps = ||q/2|| - M ||q tau|| = 1/2 - 1000 |q tau - p| here
    assert 0.40 < float(out.epsilon.fr_mid()) < 0.45
    # the certified bound excludes every deeper exponent in a full scan
    with mp.workprec(220):
        tau_f = (1 + mp.sqrt(5)) / 2
        w_max = _brute_force_max_exponent(tau_f, mp.mpf(0.5), 10, 2, 1000)
    assert w_max <= out.R
    # and the bound is not absurdly loose for this small instance
    assert out.R < 40


def _golden_third(prec):
    return ReductionInstance(tau=_golden(prec), mu=Ball.exact(Fraction(1, 3), prec),
                             A=Ball.exact(10, prec), B=Ball.exact(2, prec), M=10 ** 15)


def test_dp_reduce_bounds_on_the_refined_tau():
    # Golden tau at 64 bits is too coarse for M = 10^15: cf_expand refines
    # it once to reach q > 6M, and |tau q - p| must be bounded on the
    # refined tau, which gives the outcome of the instance built at 256
    # bits.  With mu = 0 no convergent certifies eps > 0, and each longer
    # expansion goes on from the last refinement instead of inst.tau.
    calls = []

    def refine(prec):
        calls.append(prec)
        return _golden(prec)

    fine = dp_reduce(_golden_third(256))
    out = dp_reduce(_golden_third(64), refine=refine)
    assert calls == [128]
    assert out.R == fine.R == 58
    assert (out.q_used, out.m_index, out.attempts) == (fine.q_used, fine.m_index, 1)
    del calls[:]
    inst = dataclasses.replace(_golden_third(64), mu=Ball.exact(0, 64))
    with pytest.raises(ReductionExhausted):
        dp_reduce(inst, refine=refine)
    assert calls == [128, 256]


def test_dp_reduce_degenerate_shift_exhausts():
    # mu = 0 makes ||mu q|| vanish identically, so eps is never positive
    inst = ReductionInstance(tau=_golden(160),
                             mu=Ball.exact(0, 160),
                             A=Ball.exact(10, 160),
                             B=Ball.exact(2, 160),
                             M=100)
    with pytest.raises(ReductionExhausted):
        dp_reduce(inst, refine=_golden)


def test_dp_reduce_attempt_cap_is_honored(monkeypatch):
    monkeypatch.setattr(reduction, "MAX_ATTEMPTS", 3)
    inst = ReductionInstance(tau=_golden(160),
                             mu=Ball.exact(0, 160),
                             A=Ball.exact(10, 160),
                             B=Ball.exact(2, 160),
                             M=100)
    with pytest.raises(ReductionExhausted) as info:
        dp_reduce(inst, refine=_golden)
    assert "3 convergents" in str(info.value)


def test_dp_reduce_instance_guards():
    g = _golden(128)
    with pytest.raises(ValueError):
        ReductionInstance(tau=g, mu=Ball.exact(0, 128),
                          A=Ball.exact(10, 128), B=Ball.exact(2, 128), M=0)
    with pytest.raises(ValueError):
        ReductionInstance(tau=g, mu=Ball.exact(0, 128),
                          A=Ball.exact(0, 128), B=Ball.exact(2, 128), M=10)
    with pytest.raises(ValueError):
        ReductionInstance(tau=g, mu=Ball.exact(0, 128),
                          A=Ball.exact(10, 128), B=Ball.exact(1, 128), M=10)


def test_dp_reduce_randomized_planted_instances():
    rng = random.Random(0xD11E77A)
    checked = 0
    for _ in range(12):
        d = rng.choice([2, 3, 5, 7, 11, 13])
        a = rng.randint(-3, 3)
        b = rng.randint(1, 5)
        c = rng.randint(1, 7)
        make = _quad_irrational(a, b, c, d)
        mu = Fraction(rng.randint(1, 49), rng.choice([50, 51, 53, 64]))
        A = rng.randint(2, 20)
        B = rng.choice([Fraction(3, 2), 2, 3])
        M = rng.randint(50, 2000)
        prec = 160
        inst = ReductionInstance(tau=make(prec),
                                 mu=Ball.exact(mu, prec),
                                 A=Ball.exact(A, prec),
                                 B=Ball.exact(B, prec),
                                 M=M)
        out = dp_reduce(inst, refine=make)
        assert out.q_used > 6 * M
        assert out.epsilon.fr_lo() > 0
        with mp.workprec(240):
            tau_f = (a + b * mp.sqrt(d)) / c
            a_f = mp.mpf(A)
            b_f = mp.mpf(B.numerator) / mp.mpf(B.denominator) \
                if isinstance(B, Fraction) else mp.mpf(B)
            mu_f = mp.mpf(mu.numerator) / mp.mpf(mu.denominator)
            w_max = _brute_force_max_exponent(tau_f, mu_f, a_f, b_f, M)
        if w_max is not None:
            assert w_max <= out.R
        checked += 1
    assert checked == 12


def test_odd_instance_k5_data():
    M = DEFAULT_M
    rs = solve_roots(5, working_prec_for(M))
    inst = odd_k_instance(rs, M)
    assert abs(float(inst.tau.fr_mid()) - 1.5897467549728115) < 1e-12
    assert inst.M == M
    certs = inst.certifications
    assert certs["branch_switched"] is False
    assert certs["mu_in_range"] is True
    assert certs["small_linear_form"] is True
    assert certs["positive_shift_excluded"] is True
    # weight reciprocal stays under the crude cap 2k(5k+2)/log gamma
    cap = Ball.exact(2 * 5 * 27, rs.prec) / rs.gamma.magnitude().log()
    assert cap.gt(inst.A)


@pytest.mark.xfail(strict=True,
                   reason="the angle ratio for order 5 is 1.58974..., "
                          "just below the published floor 1.59")
def test_odd_instance_k5_tau_range_as_published():
    rs = solve_roots(5, working_prec_for(DEFAULT_M))
    inst = odd_k_instance(rs, DEFAULT_M)
    assert inst.certifications["tau_in_range"] is True


def test_odd_instance_k5_tau_sits_just_below_floor():
    rs = solve_roots(5, working_prec_for(DEFAULT_M))
    inst = odd_k_instance(rs, DEFAULT_M)
    assert inst.certifications["tau_in_range"] is False
    assert inst.tau.lt(Fraction(159, 100))
    assert inst.tau.gt(Fraction(1589, 1000))


def test_odd_instance_k7_k9_ranges_hold():
    for k in (7, 9):
        rs = solve_roots(k, working_prec_for(DEFAULT_M))
        certs = odd_k_instance(rs, DEFAULT_M).certifications
        assert certs["tau_in_range"] is True
        assert certs["mu_in_range"] is True
        assert certs["branch_switched"] is False


def test_odd_instance_guards():
    rs = solve_roots(5, 128)
    with pytest.raises(ValueError):
        odd_k_instance(solve_roots(4, 128), 10)
    with pytest.raises(ValueError):
        odd_k_instance(rs, 0)


def test_odd_reduce_k5_outcome():
    out = odd_k_reduce(5)
    assert out.k == 5
    assert out.R == 847
    assert out.attempts == 2
    assert out.nonvanishing_certified is True
    assert 48 <= len(str(out.q_used)) <= 52
    assert abs(float(out.epsilon.fr_mid()) - 0.47910964) < 1e-6
    blob = out.to_json()
    assert blob["q_used"] == str(out.q_used)
    assert blob["R"] == 847
    assert blob["certifications"]["tau_in_range"] is False
    assert set(blob["epsilon"]) == {"mid", "rad"}


@pytest.mark.parametrize("k, R", [(5, 847), (7, 2344)])
def test_odd_reduce_bound_is_bracketed_exactly(k, R, monkeypatch):
    # R is the largest n with B_lo^n <= A_hi q / e_lo, for the lower
    # ends of B and eps and the upper end of A; dp_reduce's call to
    # log_floor is the last one odd_k_reduce makes.
    log_floor = reduction.log_floor
    calls = []

    def recording(x, y):
        calls.append((x, y))
        return log_floor(x, y)

    monkeypatch.setattr(reduction, "log_floor", recording)
    out = odd_k_reduce(k)
    monkeypatch.undo()
    x, y = calls[-1]
    inst = odd_k_instance(solve_roots(k), DEFAULT_M, working_prec_for(DEFAULT_M))
    assert out.R == R
    assert y == inst.B.fr_lo()
    assert out.epsilon.fr_lo() <= inst.A.fr_hi() * out.q_used / x <= out.epsilon.fr_hi()
    assert y ** R <= x < y ** (R + 1)


@pytest.mark.xfail(strict=True,
                   reason="published reduced bound range [1568, 130068833] "
                          "misses the certified value 847 at order 5")
def test_odd_reduce_k5_bound_in_published_range():
    out = odd_k_reduce(5)
    assert 1568 <= out.R <= 130068833


def test_odd_reduce_k5_bound_covers_true_zero_set():
    out = odd_k_reduce(5)
    zeros = enumerate_zeros(5, -(out.R + 1))
    assert min(zeros.indices) == -7
    assert out.R > 7


def test_odd_reduce_k7_outcome_and_zero_sweep():
    out = odd_k_reduce(7)
    assert out.R == 2344
    assert 1568 <= out.R <= 130068833
    assert out.certifications["tau_in_range"] is True
    zeros = enumerate_zeros(7, -out.R)
    assert min(zeros.indices) == -17
    assert max(zeros.indices) == 0


@pytest.mark.xfail(strict=True,
                   reason="the exact scan below the order-7 reduced bound "
                          "bottoms out at -17, not the published -19")
def test_odd_reduce_k7_published_deepest_zero():
    out = odd_k_reduce(7)
    zeros = enumerate_zeros(7, -out.R)
    assert min(zeros.indices) == -19


def test_odd_reduce_k9_outcome():
    out = odd_k_reduce(9)
    assert out.R == 5201
    assert out.certifications["tau_in_range"] is True
    assert out.nonvanishing_certified is True
    assert abs(float(out.epsilon.fr_mid()) - 0.22624854) < 1e-6


def test_odd_reduce_guards():
    with pytest.raises(ValueError):
        odd_k_reduce(4)
    with pytest.raises(ValueError):
        odd_k_reduce(3)


def test_working_precision_scales_with_modulus():
    assert working_prec_for(1) >= 128
    assert working_prec_for(DEFAULT_M) > working_prec_for(10 ** 6)
    # enough bits to resolve M * ||tau q|| near a 6M denominator:
    # at least the digit count of M plus a safety band
    for m in (10 ** 3, 10 ** 20, DEFAULT_M):
        digits = len(str(m)) + 60
        assert working_prec_for(m) >= digits * 3.32


def test_epsilon_positive_across_odd_orders():
    for k in (5, 7, 9):
        out = odd_k_reduce(k)
        assert out.epsilon.fr_lo() > 0
        assert out.epsilon.fr_hi() < 1
        assert out.attempts <= MAX_ATTEMPTS


ODD_TO_53 = range(5, 54, 2)


@pytest.mark.parametrize("k", range(5, 100, 2))
def test_odd_instance_tau_lies_in_zero_two(k):
    # gamma_s has certified negative imaginary part, so its argument lies
    # in (-pi, 0) and the conjugate branch could never meet [1.59, 1.99].
    inst = odd_k_instance(solve_roots(k), DEFAULT_M)
    assert inst.tau.gt(0) and inst.tau.lt(2)


@pytest.mark.parametrize("k", ODD_TO_53)
def test_positive_shift_test_agrees_with_the_shift_term(k):
    inst = odd_k_instance(solve_roots(k), DEFAULT_M, working_prec_for(DEFAULT_M))
    n = k ** 3 + 2
    with_term = (inst.tau * n).gt(inst.mu + inst.A * inst.B.pow_int(-n))
    assert inst.certifications["positive_shift_excluded"] is with_term


@pytest.mark.parametrize("k", ODD_TO_53)
def test_odd_instance_B_encloses_the_512_bit_modulus_ratio(k, monkeypatch):
    inst = odd_k_instance(solve_roots(k), DEFAULT_M, working_prec_for(DEFAULT_M))
    # A fresh cache keeps the 512-bit system out of later tests.
    monkeypatch.setattr(spectra, "_root_cache", {})
    fine = solve_roots(k, 512)
    ratio = fine.roots[k - 3].magnitude() / fine.roots[k - 1].magnitude()
    assert inst.B.fr_lo() <= ratio.fr_lo() and ratio.fr_hi() <= inst.B.fr_hi()


def test_odd_reduce_refines_one_root_per_order(monkeypatch):
    calls = []

    def counted(rs, i, prec):
        calls.append((rs.k, i))
        return refine_root(rs, i, prec)

    monkeypatch.setattr(reduction, "refine_root", counted)
    for k in ODD_TO_53:
        del calls[:]
        odd_k_reduce(k)
        assert len(calls) == 1, (k, calls)
        assert calls[0][1] in (k - 2, k - 1)


@pytest.mark.parametrize("k, R, tau_in_range, mu_in_range", [
    (101, 7_865_671, True, True),
    (151, 26_316_972, True, False),
    (199, 61_637_820, True, False),
    (251, 119_347_141, False, False),
    (499, 960_984_392, False, False),
])
def test_odd_reduce_large_orders_pinned(k, R, tau_in_range, mu_in_range):
    # ln B falls to 1.3e-7 at k = 499 and is read off 128-bit moduli; the
    # pins hold R where a coarse B would move it first.
    out = odd_k_reduce(k)
    assert out.R == R
    assert out.certifications == {
        "tau_in_range": tau_in_range, "branch_switched": False,
        "mu_in_range": mu_in_range, "small_linear_form": True,
        "positive_shift_excluded": True}


def test_working_prec_counts_digits_past_the_str_limit():
    # str(int) refuses more than 4300 digits (Python 3.11+), so the
    # digits of M are counted by Decimal; below the limit the count is
    # the decimal length, and M = 10^5000 has 5001 digits.
    for M in (1, 9, 10, 99, 100, 10 ** 47 - 1, DEFAULT_M, 10 ** 4000):
        assert working_prec_for(M) == max(128, int((len(str(M)) + 60) * 3.3220) + 32), M
    assert working_prec_for(DEFAULT_M) == 390
    assert working_prec_for(10 ** 5000) == int(5061 * 3.3220) + 32


def test_reduce_records_an_m_past_the_str_limit():
    # An M of 5001 digits: q_used passes 6M, so it has 5001 digits or
    # more, and the record prints it, and eps, in full.
    M = 10 ** 5000
    out = odd_k_reduce(5, M).to_json()
    q = out["q_used"]
    assert q.isdigit() and len(q) >= 5001 and Decimal(q) > 6 * M
    assert out["nonvanishing_certified"]
    assert float(out["epsilon"]["mid"]) > 0
