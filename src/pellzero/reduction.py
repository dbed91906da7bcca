"""Certified continued fractions and the inhomogeneous two-term
reduction, plus the odd-order pipeline from certified roots to the
reduced index bound R_k.

The continued fraction of an enclosed real is certified from the exact
Fraction endpoints of its Ball: the set of reals sharing a partial
quotient prefix is an interval, so quotients common to both endpoint
expansions hold for every value inside (one defensive quotient is
dropped to sidestep the rational endpoints' double representation).

The reduction step: for tau, mu, A > 0, B > 1 and a convergent p/q of
tau with q > 6M, set eps = ||mu q|| - M ||tau q|| (||.|| = distance to
the nearest integer).  When eps > 0, any solution of
0 < |u tau - v + mu| < A B^(-w) with 0 < u <= M forces
w < log(A q / eps) / log B.  R is that bound floored after outward
rounding, so the exclusion survives every enclosure outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .ball import (
    Ball,
    IndeterminateComparison,
    PREC_START,
    PrecisionExhausted,
    escalate,
)
from .spectra import RootSystem, eval_gk, solve_roots

DEFAULT_M = 3 * 10 ** 47
MAX_ATTEMPTS = 40


class ReductionExhausted(RuntimeError):
    """No convergent past 6M certified eps > 0 within the attempt cap."""


@dataclass(frozen=True)
class CFExpansion:
    partial_quotients: tuple
    convergents: tuple  # ((p, q), ...) coprime, q nondecreasing (strict from index 1)
    source_prec: int
    certified_len: int


@dataclass
class ReductionInstance:
    tau: Ball
    mu: Ball
    A: Ball
    B: Ball
    M: int
    certifications: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not self.A.fr_lo() > 0:
            raise ValueError("A must be certified positive")
        if not self.B.fr_lo() > 1:
            raise ValueError("B must be certified > 1")


@dataclass
class ReductionOutcome:
    q_used: int
    m_index: int
    epsilon: Ball
    R: int
    attempts: int
    k: int | None = None
    nonvanishing_certified: bool = False
    certifications: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "q_used": str(self.q_used),
            "m_index": self.m_index,
            "epsilon": self.epsilon.to_decimal(),
            "R": self.R,
            "attempts": self.attempts,
        }
        if self.k is not None:
            out["k"] = self.k
        if self.certifications:
            out["certifications"] = dict(self.certifications)
            out["nonvanishing_certified"] = self.nonvanishing_certified
        return out


def _rational_cf(fr: Fraction) -> list:
    """Canonical continued fraction of a rational (last quotient > 1
    unless the expansion is a single term)."""
    out = []
    p, q = fr.numerator, fr.denominator
    while q:
        a = p // q
        out.append(a)
        p, q = q, p - a * q
    return out


def _convergents(quotients):
    convs = []
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    for a in quotients:
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        convs.append((p, q))
        p_prev2, p_prev = p_prev, p
        q_prev2, q_prev = q_prev, q
    return convs


def cf_expand(x: Ball, q_target: int, refine=None) -> CFExpansion:
    """Expand until a certified convergent denominator exceeds q_target.

    refine(prec) -> Ball supplies a tighter enclosure when the certified
    prefix runs out; without it, exhaustion raises PrecisionExhausted.
    """
    if q_target < 1:
        raise ValueError(f"q_target must be >= 1, got {q_target}")
    while True:
        lo, hi = x.fr_lo(), x.fr_hi()
        if lo == hi:
            quots = _rational_cf(lo)
        else:
            a, b = _rational_cf(lo), _rational_cf(hi)
            n = 0
            while n < len(a) and n < len(b) and a[n] == b[n]:
                n += 1
            quots = a[:n]
            if quots:
                quots = quots[:-1]
        convs = _convergents(quots)
        if convs and convs[-1][1] > q_target:
            return CFExpansion(partial_quotients=tuple(quots),
                               convergents=tuple(convs),
                               source_prec=x.prec,
                               certified_len=len(quots))
        if refine is None:
            raise PrecisionExhausted(
                f"certified quotients exhausted at q={convs[-1][1] if convs else 0} "
                f"< target {q_target} with prec {x.prec} and no refiner")
        x = refine(escalate(x.prec))


def _nearest_int_distance(y: Ball):
    """Ball for |y - n0| with n0 the integer nearest the midpoint.

    The rounding goes through the exact Fraction view of the midpoint;
    floating the midpoint first would misround once |y| outgrows the
    radius working precision (q here reaches ~1e48).
    """
    return (y - int(round(y.fr_mid()))).magnitude()


def _outward_R(A: Ball, q: int, e_lo: Fraction, B: Ball) -> int:
    """floor(log(A q / eps) / log B) with the quotient rounded up:
    A and q at upper bounds, eps (given as its certified lower bound)
    and log B at lower bounds."""
    a_hi = A.fr_hi()
    b_lo = B.fr_lo()
    if e_lo <= 0:
        raise ValueError("eps lower bound must be positive")
    if b_lo <= 1:
        raise IndeterminateComparison("log B lower bound not positive")
    with mp.workprec(192):
        num = (mp.log(mp.mpf(a_hi.numerator)) - mp.log(mp.mpf(a_hi.denominator))
               + mp.log(mp.mpf(q))
               - mp.log(mp.mpf(e_lo.numerator)) + mp.log(mp.mpf(e_lo.denominator)))
        den = mp.log(mp.mpf(b_lo.numerator)) - mp.log(mp.mpf(b_lo.denominator))
        ratio = num / den * (1 + mp.mpf(2) ** -40)
        return int(mp.floor(ratio))


def dp_reduce(inst: ReductionInstance, refine=None,
              max_attempts: int = MAX_ATTEMPTS) -> ReductionOutcome:
    """First convergent past 6M with certified eps > 0; advances through
    later convergents on eps <= 0, raising ReductionExhausted after
    max_attempts of them."""
    threshold = 6 * inst.M
    exp = cf_expand(inst.tau, threshold, refine)
    convs = list(exp.convergents)
    attempts = 0
    idx = 0
    while True:
        while idx < len(convs):
            p, q = convs[idx]
            if q <= threshold:
                idx += 1
                continue
            attempts += 1
            dist_tau = (inst.tau * q - p).magnitude()
            dist_mu = _nearest_int_distance(inst.mu * q)
            # ||.|| folds at half-integers: when the enclosure of
            # |mu q - n0| crosses 1/2, the distance to the next integer
            # over takes the minimum, so the norm interval is toggled
            # rather than taken from the raw magnitude (mu = 1/2 with
            # odd q lands exactly on the fold).
            d_lo, d_hi = dist_mu.fr_lo(), dist_mu.fr_hi()
            norm_lo = min(d_lo, 1 - d_hi)
            norm_hi = min(d_hi, Fraction(1, 2))
            e_lo = norm_lo - inst.M * dist_tau.fr_hi()
            e_hi = norm_hi - inst.M * dist_tau.fr_lo()
            if e_lo > 0:
                eps = Ball.exact(Fraction(e_lo + e_hi, 2),
                                 inst.tau.prec).add_error((e_hi - e_lo) / 2)
                r_bound = _outward_R(inst.A, q, e_lo, inst.B)
                return ReductionOutcome(q_used=q, m_index=idx, epsilon=eps,
                                        R=r_bound, attempts=attempts)
            if attempts >= max_attempts:
                raise ReductionExhausted(
                    f"{attempts} convergents past 6M={threshold} all failed "
                    f"eps > 0; perturb M")
            idx += 1
        exp = cf_expand(inst.tau, convs[-1][1] * 16, refine)
        convs = list(exp.convergents)


# -- odd-order pipeline -----------------------------------------------------

def _small_pair_branch(rs: RootSystem) -> Ball:
    """Member of the smallest-modulus conjugate pair with certified
    negative imaginary part."""
    k = rs.k
    for i in (k - 1, k - 2):
        root = rs.roots[i]
        if not root.is_complex:
            continue
        im = root.imag()
        if im.fr_hi() < 0:
            return root
    raise IndeterminateComparison(
        "no smallest-pair member with certified negative imaginary part")


def odd_k_instance(rs: RootSystem, M: int) -> ReductionInstance:
    """Reduction data for odd k: with gamma_s the negative-imaginary
    member of the smallest-modulus pair and g its Binet weight,

        tau = -2 arg(gamma_s) / pi        mu = 2 arg(g) / pi
        A   = 1 / |g|                     B = |third smallest| / |gamma_s|

    The published ranges tau in [1.59, 1.99] and mu in [0.700657, 1.9927]
    are checked and recorded (not gated: k = 5 lands just below the tau
    floor; the conjugate branch misses the range entirely, so the branch
    stays put and the miss is recorded).  Two side conditions are also
    certified: the linear form stays below 1/2 for n > k^3, and the
    positive-shift variant is excluded there.
    """
    k = rs.k
    if k % 2 == 0:
        raise ValueError(f"odd-order instance needs odd k, got {k}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    p = rs.prec
    gamma_s = _small_pair_branch(rs)
    pi_ball = Ball.pi(p)
    tau = gamma_s.arg() * (-2) / pi_ball
    gval = eval_gk(k, gamma_s)
    mu = gval.arg() * 2 / pi_ball
    g_mag = gval.magnitude()
    a_ball = Ball.exact(1, p) / g_mag
    b_ball = rs.moduli[-3] / rs.moduli[-1]

    certs = {}
    tau_lo, tau_hi = Fraction(159, 100), Fraction(199, 100)
    in_range = tau.gt(tau_lo) and tau.lt(tau_hi)
    switched = False
    if not in_range:
        tau_conj = gamma_s.conjugate().arg() * (-2) / pi_ball
        if tau_conj.gt(tau_lo) and tau_conj.lt(tau_hi):
            tau = tau_conj
            mu = eval_gk(k, gamma_s.conjugate()).arg() * 2 / pi_ball
            in_range = True
            switched = True
    certs["tau_in_range"] = bool(in_range)
    certs["branch_switched"] = switched
    certs["mu_in_range"] = bool(
        mu.gt(Fraction(700657, 1000000)) and mu.lt(Fraction(19927, 10000)))

    k3 = k ** 3
    form_cap = (a_ball * pi_ball * 2).log()
    certs["small_linear_form"] = bool((b_ball.log() * (k3 + 2)).gt(form_cap))
    lhs = tau * (k3 + 2)
    rhs = mu + a_ball * b_ball.pow_int(-(k3 + 2))
    certs["positive_shift_excluded"] = bool(lhs.gt(rhs))

    return ReductionInstance(tau=tau, mu=mu, A=a_ball, B=b_ball, M=M,
                             certifications=certs)


def working_prec_for(M: int) -> int:
    """Decimal digits of M plus 60, in bits, floored at the default."""
    digits = len(str(abs(M))) + 60
    return max(PREC_START, int(digits * 3.3220) + 32)


def odd_k_reduce(k: int, M: int = DEFAULT_M) -> ReductionOutcome:
    """Compose odd_k_instance and dp_reduce at reduction-grade precision;
    the returned outcome carries k, the recorded range/side-condition
    certifications, and the nonvanishing flag (eps > 0 certifies
    u tau - v + mu != 0 for every 0 < u <= M)."""
    if k % 2 == 0:
        raise ValueError(f"odd-order reduction needs odd k, got {k}")
    if k < 5:
        raise ValueError(f"odd-order reduction needs k >= 5, got {k}")
    prec0 = working_prec_for(M)
    inst = odd_k_instance(solve_roots(k, prec0), M)

    def refine(prec):
        return odd_k_instance(solve_roots(k, prec), M).tau

    outcome = dp_reduce(inst, refine=refine)
    outcome.k = k
    outcome.certifications = dict(inst.certifications)
    outcome.nonvanishing_certified = outcome.epsilon.fr_lo() > 0
    return outcome
