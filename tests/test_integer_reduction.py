"""The reduction decided on integer endpoints against Ball arithmetic.

cf_expand and dp_reduce read the exact endpoints of tau and mu once as
integers at one scale 2^-S and decide the certified quotients, |tau q -
p|, ||mu q|| and eps on them.  The oracle here is the Ball path they
replace: the two Fraction endpoint expansions, and |tau q - p|, ||mu q||
and eps in Ball arithmetic.  For odd k = 5..99 at the default M and for
planted golden and silver instances, the reduction picks the same
convergent, index, attempt count and R as the oracle, and its eps Ball
lies inside the oracle's.  The quotient tests compare cf_expand and the
simultaneous Euclid with the two expansions, on those instances and on
random enclosures: negative, exact, wide and narrow.
"""

import random
from fractions import Fraction

import pytest

from pellzero import reduction
from pellzero.ball import Ball, escalate
from pellzero.effbounds import log_floor
from pellzero.reduction import (
    DEFAULT_M,
    ReductionInstance,
    cf_expand,
    dp_reduce,
    odd_k_instance,
    working_prec_for,
)
from pellzero.spectra import solve_roots


def _rational_cf(fr):
    out = []
    p, q = fr.numerator, fr.denominator
    while q:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
    return out


def _two_endpoint_quotients(x):
    """The quotients common to the Fraction expansions of both endpoints,
    less the last one, or the whole expansion of an exact value."""
    lo, hi = x.fr_lo(), x.fr_hi()
    if lo == hi:
        return _rational_cf(lo)
    a, b = _rational_cf(lo), _rational_cf(hi)
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return a[:n][:-1]


def _oracle_convergents(x, q_target, refine):
    while True:
        convs = []
        p0, p1, q0, q1 = 0, 1, 1, 0
        for a in _two_endpoint_quotients(x):
            p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
            convs.append((p1, q1))
        if convs and convs[-1][1] > q_target:
            return convs
        x = refine(escalate(x.prec))


def _oracle_reduce(inst, refine):
    """(q, index, attempts, R, eps Ball) with |tau q - p|, ||mu q|| and
    eps in Ball arithmetic."""
    threshold = 6 * inst.M
    convs = _oracle_convergents(inst.tau, threshold, refine)
    attempts = idx = 0
    while True:
        for idx in range(idx, len(convs)):
            p, q = convs[idx]
            if q <= threshold:
                continue
            attempts += 1
            dist_tau = (inst.tau * q - p).magnitude()
            y = inst.mu * q
            dist_mu = (y - int(round(y.fr_mid()))).magnitude()
            d_lo, d_hi = dist_mu.fr_lo(), dist_mu.fr_hi()
            e_lo = min(d_lo, 1 - d_hi) - inst.M * dist_tau.fr_hi()
            e_hi = min(d_hi, Fraction(1, 2)) - inst.M * dist_tau.fr_lo()
            if e_lo > 0:
                eps = Ball.exact(Fraction(e_lo + e_hi, 2),
                                 inst.tau.prec).add_error((e_hi - e_lo) / 2)
                r_bound = log_floor(inst.A.fr_hi() * q / e_lo, inst.B.fr_lo())
                return q, idx, attempts, r_bound, eps
        idx = len(convs)
        convs = _oracle_convergents(inst.tau, convs[-1][1] * 16, refine)


def _golden(prec):
    return (Ball.exact(5, prec).sqrt() + 1) / 2


def _silver(prec):
    return Ball.exact(2, prec).sqrt() + 1


def _planted(make, mu, prec=128):
    return ReductionInstance(tau=make(prec), mu=Ball.exact(mu, prec),
                             A=Ball.exact(10, prec), B=Ball.exact(2, prec),
                             M=1000), make


def _odd(k):
    rs = solve_roots(k)
    inst = odd_k_instance(rs, DEFAULT_M, working_prec_for(DEFAULT_M))
    return inst, lambda prec: odd_k_instance(rs, DEFAULT_M, prec).tau


CASES = {f"odd-{k}": (lambda k=k: _odd(k)) for k in range(5, 100, 2)}
CASES["golden"] = lambda: _planted(_golden, Fraction(1, 2))
CASES["silver"] = lambda: _planted(_silver, Fraction(1, 3))


@pytest.mark.parametrize("case", CASES)
def test_reduction_matches_the_ball_oracle(case):
    inst, refine = CASES[case]()
    out = dp_reduce(inst, refine)
    q, idx, attempts, r_bound, eps = _oracle_reduce(inst, refine)
    assert (out.q_used, out.m_index, out.attempts, out.R) == (q, idx, attempts, r_bound)
    assert eps.fr_lo() <= out.epsilon.fr_lo() and out.epsilon.fr_hi() <= eps.fr_hi()
    exp = cf_expand(inst.tau, 6 * inst.M, refine)
    assert list(exp.partial_quotients) == _two_endpoint_quotients(inst.tau)


def _random_ball(rng):
    prec = rng.choice([64, 128, 390])
    mid = Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 38))
    ball = Ball.exact(mid, prec)
    rad = rng.choice([0, Fraction(1, 2 ** rng.randint(1, prec)),
                      Fraction(rng.randint(1, 99), 10 ** rng.randint(0, 30))])
    X, _, _, Q = ball.to_disk(0)
    return ball.add_error(rad) if rad else Ball.from_disk(X, 0, 0, Q, prec)


def test_simultaneous_euclid_matches_the_two_expansions():
    rng = random.Random(0x5EC7)
    balls = [_random_ball(rng) for _ in range(400)]
    balls += [Ball.exact(Fraction(355, 128), 128), Ball.exact(-3, 128),
              Ball.exact(0, 128), _golden(256), _silver(64)]
    for x in balls:
        S, [(lo, hi)] = reduction._endpoints(x)
        # dp_reduce needs 1/2 as an integer at the scale: S >= 1.
        assert S >= 1
        assert (Fraction(lo, 1 << S), Fraction(hi, 1 << S)) == (x.fr_lo(), x.fr_hi())
        assert reduction._common_quotients(lo, hi, 1 << S) == _two_endpoint_quotients(x)
